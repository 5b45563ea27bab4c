"""Figure 8: NYC-taxi analytics on the DataFrame library.

Paper shape: with ample memory (100%) AIFM is 50-83% slower than the
others (dereference checks); DiLOS beats AIFM by up to 54% (and even
DiLOS-TCP by ~14%); Fastswap's completion more than doubles as local
memory shrinks to 12.5% while DiLOS and AIFM degrade only mildly. All
systems must compute identical answers.
"""

from conftest import bench_once, emit

from repro.harness import ratio_table
from repro.harness.experiment import pick
from repro.harness.figures import FIGURES, run_figure


def run_grid():
    ms = run_figure("fig8")
    reference = ms[0].extra["result"]["answers"]
    for m in ms:
        for key, value in reference.items():
            got = m.extra["result"]["answers"][key]
            if abs(got - value) > 1e-6 * max(1.0, abs(value)):
                raise AssertionError(
                    f"{m.system}@{m.ratio} disagrees on {key}: {got} vs {value}")
    return ms


def test_fig8_dataframe_taxi(benchmark):
    ms = bench_once(benchmark, run_grid)
    emit(ratio_table(FIGURES["fig8"].title, ms))

    # 100% local: AIFM pays deref checks — slower than every paging system
    # (paper: 50-83% slower).
    aifm_full = pick(ms, "aifm", 1.0).value
    for kind in ("fastswap", "dilos-readahead", "dilos-tcp"):
        assert aifm_full > 1.2 * pick(ms, kind, 1.0).value
    # 12.5%: DiLOS beats AIFM (paper: up to 54%); DiLOS-TCP also ahead.
    assert pick(ms, "dilos-readahead", 0.125).value < \
        pick(ms, "aifm", 0.125).value
    assert pick(ms, "dilos-tcp", 0.125).value < pick(ms, "aifm", 0.125).value
    # Fastswap's completion more than doubles across the sweep; DiLOS and
    # AIFM degrade far more gently.
    fast_degr = pick(ms, "fastswap", 0.125).value / pick(ms, "fastswap", 1.0).value
    dilos_degr = (pick(ms, "dilos-readahead", 0.125).value
                  / pick(ms, "dilos-readahead", 1.0).value)
    aifm_degr = pick(ms, "aifm", 0.125).value / aifm_full
    assert fast_degr > 2.0
    assert dilos_degr < 0.75 * fast_degr
    assert aifm_degr < 0.75 * fast_degr
