"""The repository's pytest settings (``pyproject.toml``) keep a failing
test reportable: a failure is a named ``FAILED`` line, never an
INTERNALERROR that ends the session."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = textwrap.dedent('''
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property_fails(x):
        assert x != x


    def test_plain_passes():
        pass
''')


def test_failing_hypothesis_test_is_reported_not_internal_error(tmp_path):
    """``filterwarnings = ["error"]`` once turned a DeprecationWarning
    raised inside hypothesis's report hook into an INTERNALERROR: the
    report read ``1 failed`` with no test name, and the rest of the
    session never ran."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    # --assert=plain skips rewriting hypothesis's modules on import,
    # which is most of the child's start-up time.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "--assert=plain", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_probe.py::test_property_fails" in out, out
    assert "1 failed, 1 passed" in out, out
