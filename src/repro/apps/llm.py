"""Token-level LLM inference with its KV cache in disaggregated memory.

The flagship scenario from ROADMAP item 2: a config-sized transformer
(``layers x heads x head_dim``) whose **per-sequence KV cache** lives in
far memory, accessed through the same paging path as every other app.
The two inference phases stress the memory system in opposite ways:

* **Prefill** writes the full prompt's K/V entries per layer as long
  sequential spans (``write_batch`` of whole-layer runs) — the
  streaming-write pattern readahead prefetchers love.
* **Decode** appends one token's K/V per layer and then performs a
  random ``read_batch`` attention gather over sampled past positions —
  the pointer-chasing pattern that punishes small local caches.

Everything the model "computes" is a pure function of token identities,
so the decoded token stream and the final KV bytes are *exactly*
reproducible across kernels (DiLOS/Fastswap/AIFM), local-memory ratios
and seeded net-fault plans — the paper's compatibility invariant,
enforced by ``tests/test_llm_differential.py``:

* a K/V entry for ``(token, pos, layer)`` is a BLAKE2b keystream;
* the attention gather for step ``pos`` reads a seeded sample of past
  positions, and the next token is a CRC-32 of the *bytes actually
  gathered from memory* — so any corruption anywhere in the paging or
  transport stack changes the output stream loudly.

On top of the single-node engines this module provides:

* :class:`TieringPolicy` — hot layers pinned local (re-touched on every
  append so reclaim keeps them resident), cold layers paged to the
  remote pool, plus an LRU capacity bound on finished sequences.
* :class:`LlmWorkload` — the closed-loop driver (seeded prompt/output
  length distributions, TTFT/TPOT accounting, token + KV digests).
* :class:`LlmService` — the ``SERVICES`` port the serve presets drive
  (``repro run llm_flash_crowd``).
* :func:`run_pd` — **prefill/decode disaggregation**: P prefill tenants
  and D decode tenants on one :class:`~repro.sim.tenancy.ComputeCluster`
  (shared clock + shared cluster backend), connected by a KV-transfer
  step (the prefill side reads its finished cache back through its
  paging path, the decode side writes it into its own); sweeping
  local-memory ratio x P:D split reproduces the regime crossover from
  SNIPPETS.md #3.
"""

from __future__ import annotations

import hashlib
import random
import struct
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.apps.api import Request, Response
from repro.common.units import KIB, MIB
from repro.obs.snapshot import MetricsSnapshot

#: Model-recipe version, mixed into every derived byte/token so a future
#: change to the recipe shows up as a digest change, never silently.
_MODEL_VERSION = 1

#: CPU cycles charged per prefilled / decoded token.
PREFILL_TOKEN_CYCLES = 600.0
DECODE_TOKEN_CYCLES = 2400.0

# -- the deterministic model --------------------------------------------------


@dataclass(frozen=True)
class LlmConfig:
    """Shape of the simulated model and its KV-cache geometry.

    One K (or V) entry for a ``(token, layer)`` pair is
    ``heads * head_dim`` bytes (int8-style, one byte per element); a
    token therefore owns ``2 * layers * entry_bytes`` of KV cache.
    """

    layers: int = 4
    heads: int = 2
    head_dim: int = 32
    vocab: int = 32768
    #: Per-sequence KV capacity (prompt + generated), in tokens.
    max_tokens: int = 192
    #: Past positions sampled by each attention gather (<= 16).
    attn_window: int = 8

    def __post_init__(self) -> None:
        if min(self.layers, self.heads, self.head_dim, self.vocab,
               self.max_tokens) <= 0:
            raise ValueError("config dimensions must be positive")
        if not 1 <= self.attn_window <= 16:
            raise ValueError("attn_window must be in [1, 16] (one BLAKE2b "
                             "block seeds at most 16 draws)")

    @property
    def entry_bytes(self) -> int:
        """Bytes per K (or V) entry: ``heads * head_dim`` int8 elements."""
        return self.heads * self.head_dim

    @property
    def kv_token_bytes(self) -> int:
        """KV bytes one token owns across all layers (K and V)."""
        return 2 * self.layers * self.entry_bytes

    @property
    def seq_bytes(self) -> int:
        """Region size for one sequence's full KV cache."""
        return self.max_tokens * self.kv_token_bytes


@dataclass(frozen=True)
class TieringPolicy:
    """How a sequence's KV cache splits between local and remote tiers.

    ``hot_layers`` counts the leading layers re-touched on every decode
    append, which keeps their pages at the head of the reclaim LRU —
    "pinned local" as long as the local cache can hold them; the
    remaining cold layers page to the remote pool under pressure.
    ``capacity_tokens`` bounds the KV held for *finished* sequences
    (service mode): beyond it the least-recently-finished sequence's
    cache is unmapped (``llm.seqs_evicted``). ``None`` keeps everything.
    """

    hot_layers: int = 1
    capacity_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hot_layers < 0:
            raise ValueError("hot_layers must be >= 0")
        if self.capacity_tokens is not None and self.capacity_tokens <= 0:
            raise ValueError("capacity_tokens must be positive or None")


def _registry_of(system: Any) -> Any:
    """The system's MetricsRegistry (kernels expose it via ``obs``)."""
    return system.obs.registry if hasattr(system, "obs") else system.registry


def _blake(*fields: int) -> bytes:
    """One 64-byte BLAKE2b block keyed by integer coordinates."""
    return hashlib.blake2b(
        struct.pack("<%dq" % (len(fields) + 1), _MODEL_VERSION, *fields),
        digest_size=64).digest()


def kv_entry(token: int, pos: int, layer: int, half: int,
             nbytes: int) -> bytes:
    """The K (``half=0``) or V (``half=1``) entry bytes for a token.

    A pure function of its coordinates — every kernel and fault plan
    must end up with these exact bytes in memory.
    """
    block = _blake(1, token, pos, layer, half)
    reps = -(-nbytes // len(block))
    return (block * reps)[:nbytes]


def prompt_tokens(seed: int, n: int, vocab: int) -> List[int]:
    """The deterministic prompt for ``seed``: ``n`` tokens of ``vocab``."""
    out: List[int] = []
    counter = 0
    while len(out) < n:
        block = _blake(2, seed, counter)
        for i in range(0, len(block), 4):
            if len(out) >= n:
                break
            out.append(struct.unpack_from("<I", block, i)[0] % vocab)
        counter += 1
    return out


def attn_positions(seed: int, pos: int, layer: int,
                   window: int) -> List[int]:
    """Past positions step ``pos`` attends to in ``layer`` (seeded draw).

    At most ``window`` draws from ``[0, pos)``; repeats are kept (a
    position can be gathered twice, like a real attention head
    concentrating). Depends only on the sequence seed and coordinates,
    never on the kernel executing the gather.
    """
    draws = struct.unpack_from("<%dI" % min(window, pos),
                               _blake(3, seed, pos, layer))
    return [draw % pos for draw in draws]


def next_token(gathered: bytes, pos: int, vocab: int) -> int:
    """The decoded token: CRC-32 of the bytes the gather actually read."""
    return (zlib.crc32(gathered) ^ (pos * 0x9E3779B1)) % vocab


def token_stream_digest(streams: Sequence[Sequence[int]]) -> str:
    """SHA-256 over per-request decoded token streams, in request order."""
    h = hashlib.sha256()
    for tokens in streams:
        h.update(struct.pack("<%dI" % (len(tokens) + 1),
                             len(tokens), *tokens))
    return h.hexdigest()


def combine_kv_digests(digests: Sequence[str]) -> str:
    """SHA-256 over per-sequence KV digests, in request order."""
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode())
    return h.hexdigest()


# -- KV-cache engines ---------------------------------------------------------
#
# Both engines expose the same surface: write_prompt / append / gather /
# kv_digest / free. The paged engine stores the cache layer-major in one
# far-memory region; the AIFM engine stores it in a RemArray with the
# same index math.


class KvCache:
    """One sequence's KV cache as a region over :class:`VirtualMemory`.

    Layout is layer-major: entry ``(layer, half, pos)`` lives at offset
    ``((layer * 2 + half) * max_tokens + pos) * entry_bytes``, so a
    whole layer's K (or V) run for a prompt is one contiguous span —
    what makes prefill sequential — while decode gathers hop across the
    whole region — what makes decode random.
    """

    def __init__(self, system: Any, config: LlmConfig,
                 name: str = "llm.kv") -> None:
        self.system = system
        self.config = config
        self.region = system.mmap(config.seq_bytes, ddc=True, name=name)
        self.n_tokens = 0
        self._entry = config.entry_bytes
        run_bytes = config.max_tokens * self._entry
        #: Base address of run ``layer * 2 + half`` (a layer's K or V
        #: entries); entry ``pos`` sits ``pos * _entry`` bytes past it.
        self._runs = [self.region.base + run * run_bytes
                      for run in range(2 * config.layers)]

    def write_prompt(self, tokens: Sequence[int]) -> int:
        """Sequential prefill: per layer, one K span + one V span."""
        cfg = self.config
        if self.n_tokens or len(tokens) > cfg.max_tokens:
            raise ValueError("prompt must be written first and fit")
        entry = self._entry
        datas = [b"".join(kv_entry(token, pos, layer, half, entry)
                          for pos, token in enumerate(tokens))
                 for layer in range(cfg.layers) for half in (0, 1)]
        self._write(self._runs, datas)
        self.n_tokens = len(tokens)
        return sum(len(d) for d in datas)

    def append(self, token: int) -> int:
        """Decode-phase append: one K + one V entry per layer."""
        cfg = self.config
        pos = self.n_tokens
        if pos >= cfg.max_tokens:
            raise ValueError("KV cache full")
        entry = self._entry
        offset = pos * entry
        datas = [kv_entry(token, pos, layer, half, entry)
                 for layer in range(cfg.layers) for half in (0, 1)]
        self._write([run + offset for run in self._runs], datas)
        self.n_tokens = pos + 1
        return sum(len(d) for d in datas)

    def gather(self, layer: int, positions: Sequence[int]) -> bytes:
        """Random attention gather: K then V entries at ``positions``."""
        entry = self._entry
        k_run = self._runs[2 * layer]
        v_run = self._runs[2 * layer + 1]
        vas = ([k_run + pos * entry for pos in positions]
               + [v_run + pos * entry for pos in positions])
        return b"".join(self._read(vas, [entry] * len(vas)))

    def pin_hot(self, hot_layers: int) -> None:
        """Re-touch the hot layers' live prefix so reclaim keeps them
        resident (touch faults pages in without moving bytes)."""
        if not self.n_tokens:
            return
        span = self.n_tokens * self._entry
        touch = self.system.memory.touch
        for run in self._runs[:2 * hot_layers]:
            touch(run, span)

    def kv_digest(self) -> str:
        """SHA-256 of the live KV bytes, read back through the paging
        path (layer-major, K then V per layer)."""
        span = self.n_tokens * self._entry
        h = hashlib.sha256()
        if span:
            for chunk in self._read(self._runs, [span] * len(self._runs)):
                h.update(chunk)
        return h.hexdigest()

    def read_layer(self, layer: int, half: int) -> bytes:
        """One whole live K/V run (the KV-transfer unit)."""
        span = self.n_tokens * self._entry
        if not span:
            return b""
        return self._read([self._runs[layer * 2 + half]], [span])[0]

    def write_layer(self, layer: int, half: int, data: bytes,
                    n_tokens: int) -> None:
        """Ingest one transferred K/V run (decode side of P:D)."""
        if len(data) != n_tokens * self._entry:
            raise ValueError("transferred run has the wrong size")
        self._write([self._runs[layer * 2 + half]], [data])
        self.n_tokens = max(self.n_tokens, n_tokens)

    def free(self) -> None:
        self.system.munmap(self.region)

    def _write(self, vas: List[int], datas: List[bytes]) -> None:
        self.system.memory.write_batch(vas, datas)

    def _read(self, vas: List[int], sizes: List[int]) -> List[bytes]:
        return self.system.memory.read_batch(vas, sizes)


class AifmKvCache:
    """The AIFM port: the same cache in a remoteable array.

    Index math mirrors :class:`KvCache` exactly — entry
    ``(layer, half, pos)`` is item ``(layer * 2 + half) * max_tokens +
    pos`` — so the bytes (and therefore the decoded stream) are
    identical; only the runtime underneath differs. Hot-layer pinning is
    a no-op: AIFM's own evacuation policy manages object residency.
    """

    def __init__(self, runtime: Any, config: LlmConfig,
                 name: str = "llm.kv") -> None:
        from repro.baselines.aifm import RemArray

        self.runtime = runtime
        self.config = config
        self.array = RemArray(runtime, 2 * config.layers * config.max_tokens,
                              config.entry_bytes)
        self.n_tokens = 0

    def _index(self, layer: int, half: int, pos: int) -> int:
        return (layer * 2 + half) * self.config.max_tokens + pos

    def write_prompt(self, tokens: Sequence[int]) -> int:
        cfg = self.config
        if self.n_tokens or len(tokens) > cfg.max_tokens:
            raise ValueError("prompt must be written first and fit")
        indices: List[int] = []
        items: List[bytes] = []
        for layer in range(cfg.layers):
            for half in (0, 1):
                for pos, token in enumerate(tokens):
                    indices.append(self._index(layer, half, pos))
                    items.append(kv_entry(token, pos, layer, half,
                                          cfg.entry_bytes))
        self._set(indices, items)
        self.n_tokens = len(tokens)
        return len(items) * cfg.entry_bytes

    def append(self, token: int) -> int:
        cfg = self.config
        pos = self.n_tokens
        if pos >= cfg.max_tokens:
            raise ValueError("KV cache full")
        indices = []
        items = []
        for layer in range(cfg.layers):
            for half in (0, 1):
                indices.append(self._index(layer, half, pos))
                items.append(kv_entry(token, pos, layer, half,
                                      cfg.entry_bytes))
        self._set(indices, items)
        self.n_tokens = pos + 1
        return len(items) * cfg.entry_bytes

    def gather(self, layer: int, positions: Sequence[int]) -> bytes:
        indices = ([self._index(layer, 0, pos) for pos in positions]
                   + [self._index(layer, 1, pos) for pos in positions])
        return b"".join(self._get(indices))

    def pin_hot(self, hot_layers: int) -> None:
        """AIFM manages residency itself; pinning is not part of its
        programming model."""

    def kv_digest(self) -> str:
        cfg = self.config
        h = hashlib.sha256()
        for layer in range(cfg.layers):
            for half in (0, 1):
                indices = [self._index(layer, half, pos)
                           for pos in range(self.n_tokens)]
                for chunk in self._get(indices):
                    h.update(chunk)
        return h.hexdigest()

    def free(self) -> None:
        self.array.free()

    def _set(self, indices: List[int], items: List[bytes]) -> None:
        for index, item in zip(indices, items):
            self.array.set(index, item)

    def _get(self, indices: List[int]) -> List[bytes]:
        return [self.array.get(index) for index in indices]


def make_kv_cache(system: Any, config: LlmConfig,
                  name: str = "llm.kv") -> Any:
    """The right engine for ``system``: paged for kernels exposing the
    POSIX-ish memory facade, the RemArray port for AIFM runtimes."""
    if hasattr(system, "memory"):
        return KvCache(system, config, name=name)
    return AifmKvCache(system, config, name=name)


# -- the inference loop -------------------------------------------------------


@dataclass
class SequenceRun:
    """What generating one sequence produced."""

    seed: int
    prompt_len: int
    output: List[int]
    #: Simulated µs from request start to the first decoded token.
    ttft_us: float
    #: Mean simulated µs per decoded token after the first.
    tpot_us: float
    kv_digest: str = ""


def _check_lengths(config: LlmConfig, prompt_len: int,
                   out_len: int) -> None:
    """Reject a sequence that cannot run on ``config``'s KV capacity."""
    if prompt_len <= 0 or out_len < 0:
        raise ValueError("prompt_len must be positive, out_len >= 0")
    if prompt_len + out_len > config.max_tokens:
        raise ValueError("sequence exceeds max_tokens")


def _prefill(system: Any, cache: Any, config: LlmConfig, seed: int,
             prompt_len: int, counters: Optional["_LlmCounters"]) -> None:
    """Write one sequence's prompt KV into ``cache`` and charge the
    prefill compute."""
    written = cache.write_prompt(prompt_tokens(seed, prompt_len,
                                               config.vocab))
    system.cpu_cycles(prompt_len * PREFILL_TOKEN_CYCLES)
    if counters is not None:
        counters.prefill(prompt_len, written)


def _decode_step(system: Any, cache: Any, config: LlmConfig, seed: int,
                 tiering: TieringPolicy, output: List[int],
                 counters: Optional["_LlmCounters"]) -> None:
    """Decode one token: gather the attention window of every layer,
    append the next token's KV, and add the token to ``output``."""
    pos = cache.n_tokens
    gathered = b"".join(
        cache.gather(layer,
                     attn_positions(seed, pos, layer, config.attn_window))
        for layer in range(config.layers))
    token = next_token(gathered, pos, config.vocab)
    written = cache.append(token)
    cache.pin_hot(tiering.hot_layers)
    system.cpu_cycles(DECODE_TOKEN_CYCLES)
    output.append(token)
    if counters is not None:
        counters.decode(len(gathered), written)


def generate(system: Any, cache: Any, config: LlmConfig, seed: int,
             prompt_len: int, out_len: int,
             tiering: TieringPolicy = TieringPolicy(),
             counters: Optional["_LlmCounters"] = None) -> SequenceRun:
    """Run prefill + decode for one sequence on ``cache``.

    ``system`` only supplies the clock and CPU-charge hooks, so the same
    loop drives paged kernels and AIFM runtimes. The decoded stream is a
    pure function of ``(seed, prompt_len, out_len)`` *provided* the
    memory system returns the bytes that were written — which is exactly
    what the differential suite asserts.
    """
    _check_lengths(config, prompt_len, out_len)
    clock = system.clock
    t0 = clock.now
    _prefill(system, cache, config, seed, prompt_len, counters)

    output: List[int] = []
    ttft_us = clock.now - t0
    t_first = clock.now
    for _ in range(out_len):
        _decode_step(system, cache, config, seed, tiering, output, counters)
        if len(output) == 1:
            ttft_us = clock.now - t0
            t_first = clock.now
    tpot_us = ((clock.now - t_first) / (len(output) - 1)
               if len(output) > 1 else 0.0)
    return SequenceRun(seed=seed, prompt_len=prompt_len, output=output,
                       ttft_us=ttft_us, tpot_us=tpot_us)


class _LlmCounters:
    """Canonical ``llm.*`` instruments on a system's registry."""

    def __init__(self, registry: Any) -> None:
        self._registry = registry
        for name in ("llm.requests", "llm.prefill_tokens",
                     "llm.decode_tokens", "llm.kv_bytes_written",
                     "llm.kv_bytes_gathered", "llm.seqs_evicted",
                     "llm.kv_transfer_bytes"):
            registry.counter(name)

    def prefill(self, tokens: int, written: int) -> None:
        self._registry.add("llm.prefill_tokens", tokens)
        self._registry.add("llm.kv_bytes_written", written)

    def decode(self, gathered: int, written: int) -> None:
        self._registry.add("llm.decode_tokens")
        self._registry.add("llm.kv_bytes_gathered", gathered)
        self._registry.add("llm.kv_bytes_written", written)

    def request(self) -> None:
        self._registry.add("llm.requests")

    def evicted(self) -> None:
        self._registry.add("llm.seqs_evicted")

    def transfer(self, nbytes: int) -> None:
        self._registry.add("llm.kv_transfer_bytes", nbytes)


# -- request sampling ---------------------------------------------------------


@dataclass(frozen=True)
class LlmRequest:
    """One inference request: a seeded prompt and an output budget."""

    seed: int
    prompt_len: int
    out_len: int


def sample_requests(n: int, seed: int, prompt_min: int = 12,
                    prompt_max: int = 48, out_min: int = 4,
                    out_max: int = 12) -> List[LlmRequest]:
    """The seeded request stream every front end shares (lengths are
    uniform draws — crude, but the *distribution* is not the point; the
    determinism is)."""
    if not 0 < prompt_min <= prompt_max or not 0 <= out_min <= out_max:
        raise ValueError("bad length bounds")
    rng = random.Random(seed)
    return [LlmRequest(seed=rng.randrange(1 << 30),
                       prompt_len=rng.randint(prompt_min, prompt_max),
                       out_len=rng.randint(out_min, out_max))
            for _ in range(n)]


# -- closed-loop workload -----------------------------------------------------


@dataclass
class LlmResult:
    """Summary of one closed-loop inference run."""

    requests: int
    prefill_tokens: int
    decoded_tokens: int
    elapsed_us: float
    #: SHA-256 over the decoded token streams, in request order.
    token_digest: str
    #: SHA-256 over per-sequence KV read-back digests, in request order.
    kv_digest: str
    ttft_us: List[float] = field(default_factory=list)
    tpot_us: List[float] = field(default_factory=list)
    outputs: List[List[int]] = field(default_factory=list)
    metrics: Optional[MetricsSnapshot] = None


class LlmWorkload:
    """Closed-loop LLM inference: N seeded requests, run to completion.

    All sequences stay mapped until the final KV read-back, so the
    aggregate cache footprint builds up across requests and the tiering
    policy has something to tier.
    """

    def __init__(self, n_requests: int = 8, seed: int = 31,
                 config: LlmConfig = LlmConfig(),
                 tiering: TieringPolicy = TieringPolicy(),
                 prompt_min: int = 12, prompt_max: int = 48,
                 out_min: int = 4, out_max: int = 12) -> None:
        self.config = config
        self.tiering = tiering
        self.requests = sample_requests(n_requests, seed, prompt_min,
                                        prompt_max, out_min, out_max)

    @property
    def footprint_bytes(self) -> int:
        """KV bytes actually touched across every request."""
        return sum((r.prompt_len + r.out_len) for r in self.requests) \
            * self.config.kv_token_bytes

    def run(self, system: Any) -> LlmResult:
        """Drive every request on ``system`` (paged kernels or AIFM)."""
        counters = _LlmCounters(_registry_of(system))
        begin = system.clock.now
        caches: List[Any] = []
        runs: List[SequenceRun] = []
        for i, req in enumerate(self.requests):
            counters.request()
            cache = make_kv_cache(system, self.config, name=f"llm.kv.{i}")
            caches.append(cache)
            runs.append(generate(system, cache, self.config, req.seed,
                                 req.prompt_len, req.out_len,
                                 tiering=self.tiering, counters=counters))
        kv_digests = [cache.kv_digest() for cache in caches]
        for cache in caches:
            cache.free()
        outputs = [run.output for run in runs]
        return LlmResult(
            requests=len(runs),
            prefill_tokens=sum(r.prompt_len for r in self.requests),
            decoded_tokens=sum(len(o) for o in outputs),
            elapsed_us=system.clock.now - begin,
            token_digest=token_stream_digest(outputs),
            kv_digest=combine_kv_digests(kv_digests),
            ttft_us=[run.ttft_us for run in runs],
            tpot_us=[run.tpot_us for run in runs],
            outputs=outputs,
            metrics=system.metrics(),
        )

    # AIFM runtimes share the same driver (make_kv_cache dispatches);
    # the alias keeps the harness's run/run_aifm convention.
    run_aifm = run


# -- the serving port ---------------------------------------------------------


class LlmService:
    """LLM inference behind the unified Service protocol.

    ``handle`` serves one ``generate`` request end to end (prefill +
    decode on the tenant's own KV engine) and reports the phase split in
    the response value — ``ttft_us`` (prefill + first decode step) and
    ``tpot_us`` — which the serving frontend folds into the
    ``serve.ttft_us`` / ``serve.tpot_us`` SLO histograms. Finished
    sequences stay cached (warm KV) up to the tiering policy's
    ``capacity_tokens``; beyond it the least-recently-finished cache is
    evicted.
    """

    name = "llm"

    def __init__(self, system: Any, config: LlmConfig,
                 tiering: TieringPolicy, prompt_min: int, prompt_max: int,
                 out_min: int, out_max: int) -> None:
        self.system = system
        self.config = config
        self.tiering = tiering
        self.prompt_min, self.prompt_max = prompt_min, prompt_max
        self.out_min, self.out_max = out_min, out_max
        self._counters = _LlmCounters(_registry_of(system))
        self._ttft = _registry_of(system).log_histogram("llm.ttft_us")
        self._tpot = _registry_of(system).log_histogram("llm.tpot_us")
        #: finished-sequence caches, least-recently-finished first.
        self._finished: "OrderedDict[int, Any]" = OrderedDict()
        self._cached_tokens = 0
        self._seq = 0

    # -- the Service protocol ------------------------------------------------

    def handle(self, request: Request) -> Response:
        if request.op != "generate":
            return Response.fail(f"unknown op {request.op!r}; "
                                 "the llm service only generates")
        try:
            seed, prompt_len, out_len = request.args
        except ValueError:
            return Response.fail("generate needs args=(seed, prompt_len, "
                                 "out_len)")
        try:
            self._counters.request()
            # Before mapping: a rejected request must leave no cache
            # behind (AIFM's bump-allocated remote heap never gets it
            # back, even when the cache is freed).
            _check_lengths(self.config, prompt_len, out_len)
            cache = make_kv_cache(self.system, self.config,
                                  name=f"llm.kv.{self._seq}")
            run = generate(self.system, cache, self.config, seed,
                           prompt_len, out_len, tiering=self.tiering,
                           counters=self._counters)
        except ValueError as exc:
            return Response.fail(str(exc))
        self._finished[self._seq] = cache
        self._cached_tokens += cache.n_tokens
        self._seq += 1
        self._evict()
        self._ttft.record(run.ttft_us)
        self._tpot.record(run.tpot_us)
        return Response(value={
            "tokens": len(run.output),
            "last_token": run.output[-1] if run.output else -1,
            "ttft_us": run.ttft_us,
            "tpot_us": run.tpot_us,
        })

    def sample_request(self, rng: random.Random) -> Request:
        """A seeded draw from the request-length model."""
        seed = rng.randrange(1 << 30)
        prompt_len = rng.randint(self.prompt_min, self.prompt_max)
        out_len = rng.randint(self.out_min, self.out_max)
        return Request("generate", key=b"seq:%d" % seed,
                       args=(seed, prompt_len, out_len))

    # -- tiering: finished-sequence eviction ---------------------------------

    def _evict(self) -> None:
        cap = self.tiering.capacity_tokens
        if cap is None:
            return
        while self._cached_tokens > cap and len(self._finished) > 1:
            _, cache = self._finished.popitem(last=False)
            self._cached_tokens -= cache.n_tokens
            cache.free()
            self._counters.evicted()


#: The serving port's model: deliberately small, because serving presets
#: issue thousands of requests (128 B of KV per token).
SERVICE_CONFIG = LlmConfig(layers=2, heads=2, head_dim=16, max_tokens=64,
                           attn_window=4)
#: ``(min, max)`` prompt length the serving port samples.
SERVICE_PROMPT_LENS = (6, 20)
#: ``(min, max)`` output length the serving port samples.
SERVICE_OUT_LENS = (2, 6)


def build_llm_service(system,
                      capacity_tokens: Optional[int] = 2048) -> LlmService:
    """Boot one LLM service on ``system``: :data:`SERVICE_CONFIG` with
    one hot layer, and finished-sequence KV bounded by
    ``capacity_tokens``. Requests draw their seeds from the serving
    frontend's stream (:meth:`LlmService.sample_request`)."""
    tiering = TieringPolicy(capacity_tokens=capacity_tokens)
    return LlmService(system, SERVICE_CONFIG, tiering, *SERVICE_PROMPT_LENS,
                      *SERVICE_OUT_LENS)


# -- prefill/decode disaggregation -------------------------------------------


def parse_pd_split(text: str) -> Tuple[int, int]:
    """``"3:1"`` -> ``(3, 1)`` prefill:decode tenant counts."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad P:D split {text!r}: expected 'P:D' "
                         "(e.g. '3:1', '1:1', '1:3')")
    try:
        p, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad P:D split {text!r}: counts must be "
                         "integers") from None
    if p <= 0 or d <= 0:
        raise ValueError(f"bad P:D split {text!r}: counts must be positive")
    return p, d


@dataclass
class PdResult:
    """What one prefill/decode disaggregation run produced."""

    kind: str
    split: str
    ratio: float
    backend: str
    #: Shared-clock time from boot to the last decoded sequence.
    makespan_us: float
    token_digest: str
    kv_digest: str
    requests: int
    decoded_tokens: int
    kv_transfer_bytes: int
    ttft_us: List[float]
    per_tenant: Dict[str, Dict[str, float]]
    snapshot_digest: str


class _PdCoordinator:
    """The KV-transfer rendezvous between prefill and decode tenants.

    Request ``i`` is prefills' ``i % P``'s job and decodes' ``i % D``'s
    job — a fixed assignment, so the interleaving (and the final digest)
    is a pure function of the configuration. Transfers carry the raw
    layer runs read back from the prefill tenant's memory; the decode
    tenant writes them into its own cache, so both sides charge their
    full paging paths for the handoff.
    """

    def __init__(self, requests: List[LlmRequest], n_decode: int) -> None:
        self.queues: List[deque] = [deque() for _ in range(n_decode)]
        self.runs: List[Optional[SequenceRun]] = [None] * len(requests)
        self.ttft_us: List[float] = [0.0] * len(requests)
        self.transfer_bytes = 0

    def push(self, req_index: int, runs: List[bytes]) -> None:
        self.queues[req_index % len(self.queues)].append((req_index, runs))
        self.transfer_bytes += sum(len(r) for r in runs)


def _prefill_tenant(coord: _PdCoordinator, requests: List[LlmRequest],
                    indices: List[int], config: LlmConfig):
    """Workload factory for one prefill tenant: prefill each assigned
    request, read the KV back (the transfer's send side), hand it to the
    coordinator, free the local copy."""

    def factory(system) -> Iterator[str]:
        def gen() -> Iterator[str]:
            counters = _LlmCounters(_registry_of(system))
            for i in indices:
                req = requests[i]
                counters.request()
                cache = KvCache(system, config, name=f"llm.prefill.{i}")
                _prefill(system, cache, config, req.seed, req.prompt_len,
                         counters)
                yield "prefill"
                runs = [cache.read_layer(layer, half)
                        for layer in range(config.layers)
                        for half in (0, 1)]
                counters.transfer(sum(len(r) for r in runs))
                cache.free()
                coord.push(i, runs)
                yield "transfer"
        return gen()
    return factory


class _ActiveSeq:
    """One in-flight sequence on a decode tenant's continuous batch."""

    __slots__ = ("index", "req", "cache", "t0", "t_first", "output")

    def __init__(self, index: int, req: LlmRequest, cache: KvCache,
                 t0: float) -> None:
        self.index = index
        self.req = req
        self.cache = cache
        self.t0 = t0
        self.t_first = t0
        self.output: List[int] = []


def _decode_tenant(coord: _PdCoordinator, requests: List[LlmRequest],
                   my_queue: int, n_jobs: int, config: LlmConfig,
                   tiering: TieringPolicy):
    """Workload factory for one decode tenant: **continuous batching**.

    Ingests transferred KV as it arrives and round-robins single-token
    decode steps across every live sequence — so the tenant's working
    set is its whole concurrent batch (its share of the request stream),
    not one sequence. That is what couples the P:D split to the
    local-memory ratio: decode-heavy splits shrink each decoder's batch
    (and multiply the decode role's aggregate local cache), which pays
    off exactly when KV no longer fits. Idles (charging
    :data:`PD_IDLE_US` per op, so the shared clock always advances) only
    while it has nothing live and prefills are still in flight.
    """

    def factory(system) -> Iterator[str]:
        def gen() -> Iterator[str]:
            counters = _LlmCounters(_registry_of(system))
            clock = system.clock
            queue = coord.queues[my_queue]
            active: List[_ActiveSeq] = []
            done = 0
            rr = 0
            while done < n_jobs:
                while queue:  # ingest everything transferred so far
                    i, layer_runs = queue.popleft()
                    req = requests[i]
                    t0 = clock.now
                    cache = KvCache(system, config,
                                    name=f"llm.decode.{i}")
                    run_iter = iter(layer_runs)
                    for layer in range(config.layers):
                        for half in (0, 1):
                            cache.write_layer(layer, half, next(run_iter),
                                              req.prompt_len)
                            yield "ingest"
                    if req.out_len == 0:
                        run = SequenceRun(
                            seed=req.seed, prompt_len=req.prompt_len,
                            output=[], ttft_us=0.0, tpot_us=0.0,
                            kv_digest=cache.kv_digest())
                        cache.free()
                        coord.runs[i] = run
                        done += 1
                    else:
                        active.append(_ActiveSeq(i, req, cache, t0))
                if not active:
                    system.cpu(PD_IDLE_US)
                    yield "idle"
                    continue
                rr %= len(active)
                seq = active[rr]
                _decode_step(system, seq.cache, config, seq.req.seed,
                             tiering, seq.output, counters)
                if len(seq.output) == 1:
                    coord.ttft_us[seq.index] = clock.now - seq.t0
                    seq.t_first = clock.now
                yield "decode"
                if len(seq.output) >= seq.req.out_len:
                    tpot = ((clock.now - seq.t_first)
                            / (len(seq.output) - 1)
                            if len(seq.output) > 1 else 0.0)
                    run = SequenceRun(
                        seed=seq.req.seed, prompt_len=seq.req.prompt_len,
                        output=seq.output,
                        ttft_us=coord.ttft_us[seq.index], tpot_us=tpot,
                        kv_digest=seq.cache.kv_digest())
                    seq.cache.free()
                    coord.runs[seq.index] = run
                    active.pop(rr)
                    done += 1
                else:
                    rr += 1
        return gen()
    return factory


#: Defaults for the P:D disaggregation scenario — sized so the sweep's
#: local-memory ratios actually move the fault rate (the per-token KV is
#: 1 KiB here, vs 128 B in the service defaults).
PD_CONFIG = LlmConfig(layers=4, heads=4, head_dim=32, max_tokens=96,
                      attn_window=8)
#: The P:D cluster's scheduling quantum (simulated µs per tenant turn).
PD_QUANTUM_US = 150.0
#: What an idle decode tenant charges per turn while it waits for KV.
PD_IDLE_US = 40.0


def build_pd(kind: str = "dilos-readahead", ratio: float = 0.25,
             split: str = "1:1", backend: Any = "sharded:2",
             n_requests: int = 12, seed: int = 31,
             prompt_min: int = 24, prompt_max: int = 56,
             out_min: int = 8, out_max: int = 16,
             net_faults: Any = None, net_retry: Any = None) -> "PdRun":
    """Boot one prefill/decode disaggregation cluster, not yet run.

    P prefill tenants and D decode tenants (``split="P:D"``) round-robin
    on one shared clock and one shared cluster backend. The sweep's
    ``ratio`` budgets the *total* local memory across the fleet
    (``local_bytes_for(footprint, ratio)``), allocated by role: each
    prefill tenant gets a fixed streaming stipend (sequential writes
    need almost no residency) and the decode tenants split the rest —
    so a P:D split is also a KV-cache split. Decode-heavy splits shrink
    each decoder's continuous batch *and* grow the decode role's
    aggregate cache — a win exactly while KV doesn't fit — but starve
    prefill throughput, burning idle decoder slices on the shared
    clock once it does. That tension is the regime crossover
    (see docs/LLM_WORKLOAD.md).

    Tenants run :data:`PD_CONFIG` over a 64 MiB backend. AIFM kinds
    are rejected (``ValueError`` from the runtime's boot): AIFM cannot
    share a cluster backend (bump allocation), and P:D *is* a
    shared-backend scenario. Use the single-node AIFM port
    (:class:`LlmWorkload`) instead.
    """
    from repro.core.spec import SystemSpec
    from repro.harness.experiment import local_bytes_for
    from repro.net.faults import coerce_fault_plan
    from repro.sim.tenancy import ComputeCluster

    n_prefill, n_decode = parse_pd_split(split)
    requests = sample_requests(n_requests, seed, prompt_min, prompt_max,
                               out_min, out_max)
    footprint = sum((r.prompt_len + r.out_len) for r in requests) \
        * PD_CONFIG.kv_token_bytes
    total_local = local_bytes_for(footprint, ratio, minimum=96 * KIB)
    prefill_local = 96 * KIB
    decode_local = max((total_local - n_prefill * prefill_local)
                       // n_decode, 96 * KIB)

    cluster = ComputeCluster(backend=backend, remote_mem_bytes=64 * MIB,
                             quantum_us=PD_QUANTUM_US)
    coord = _PdCoordinator(requests, n_decode)

    def node_spec(local_mem_bytes: int) -> SystemSpec:
        # One fault plan per spec, shared by the tenants booted from it.
        faults = {"net_faults": coerce_fault_plan(net_faults),
                  "net_retry": net_retry}
        return SystemSpec(kind=kind, local_mem_bytes=local_mem_bytes,
                          overrides=faults)

    prefill_spec = node_spec(prefill_local)
    decode_spec = node_spec(decode_local)
    for p in range(n_prefill):
        indices = [i for i in range(n_requests) if i % n_prefill == p]
        cluster.add_tenant(f"prefill{p}", prefill_spec,
                           _prefill_tenant(coord, requests, indices,
                                           PD_CONFIG))
    for d in range(n_decode):
        n_jobs = len([i for i in range(n_requests) if i % n_decode == d])
        cluster.add_tenant(f"decode{d}", decode_spec,
                           _decode_tenant(coord, requests, d, n_jobs,
                                          PD_CONFIG, TieringPolicy()))
    return PdRun(kind=kind, ratio=ratio, split=f"{n_prefill}:{n_decode}",
                 cluster=cluster, coord=coord)


@dataclass
class PdRun:
    """A booted P:D cluster (:func:`build_pd`) and its KV rendezvous."""

    kind: str
    ratio: float
    split: str
    cluster: Any
    coord: _PdCoordinator

    def run(self) -> PdResult:
        """Schedule every tenant to completion and summarize the run."""
        cluster, coord = self.cluster, self.coord
        snapshot = cluster.run()
        runs = [run for run in coord.runs]
        if any(run is None for run in runs):
            raise RuntimeError("P:D run finished with undecoded requests")
        outputs = [run.output for run in runs]
        per_tenant = {
            t.name: {"ops": float(t.ops), "run_us": t.run_us,
                     "major_faults": snapshot.value(
                         f"tenant.{t.name}.fault.major")}
            for t in cluster.tenants}
        return PdResult(
            kind=self.kind,
            split=self.split,
            ratio=self.ratio,
            backend=cluster.backend_label,
            makespan_us=cluster.clock.now,
            token_digest=token_stream_digest(outputs),
            kv_digest=combine_kv_digests([run.kv_digest for run in runs]),
            requests=len(runs),
            decoded_tokens=sum(len(o) for o in outputs),
            kv_transfer_bytes=coord.transfer_bytes,
            ttft_us=list(coord.ttft_us),
            per_tenant=per_tenant,
            snapshot_digest=snapshot.digest(),
        )


def run_pd(*args: Any, **kwargs: Any) -> PdResult:
    """One prefill/decode disaggregation run on a shared cluster:
    :func:`build_pd` with the same arguments, run to completion."""
    return build_pd(*args, **kwargs).run()


class PdSweepRunner:
    """Picklable per-cell runner for the ratio x P:D-split sweep grid.

    ``sweep_ratios`` drives it with the *split* string in the "system"
    slot of each grid cell (the kernel kind is fixed per sweep), so
    ``repro sweep llm --jobs`` reuses the whole fan-out/merge machinery;
    byte-identity between serial and parallel runs follows from
    :func:`run_pd` being a pure function of its arguments.
    """

    def __init__(self, kind: str, n_requests: int = 12,
                 seed: int = 31) -> None:
        self.kind = kind
        self.n_requests = n_requests
        self.seed = seed

    def __call__(self, split: str, ratio: float, backend: Any = "sharded:2"):
        from repro.harness.experiment import Measurement

        result = run_pd(kind=self.kind, ratio=ratio, split=split,
                        backend=backend, n_requests=self.n_requests,
                        seed=self.seed)
        return Measurement(
            "", "", 0.0, value=result.makespan_us / 1000.0, unit="ms",
            extra={"kind": self.kind, "split": result.split,
                   "token_digest": result.token_digest,
                   "kv_digest": result.kv_digest,
                   "snapshot_digest": result.snapshot_digest,
                   "kv_transfer_bytes": result.kv_transfer_bytes,
                   "decoded_tokens": result.decoded_tokens})


def best_split_per_ratio(measurements: List[Any]) -> Dict[float, str]:
    """ratio -> fastest P:D split, the sweep's headline (the crossover
    shows as this map changing across ratios)."""
    best: Dict[float, Any] = {}
    for m in measurements:
        if m.ratio not in best or m.value < best[m.ratio].value:
            best[m.ratio] = m
    return {ratio: m.system for ratio, m in sorted(best.items())}


__all__ = [
    "AifmKvCache",
    "KvCache",
    "LlmConfig",
    "LlmRequest",
    "LlmResult",
    "LlmService",
    "LlmWorkload",
    "PD_CONFIG",
    "PdResult",
    "PdSweepRunner",
    "SERVICE_CONFIG",
    "SequenceRun",
    "PdRun",
    "TieringPolicy",
    "attn_positions",
    "best_split_per_ratio",
    "build_llm_service",
    "build_pd",
    "combine_kv_digests",
    "generate",
    "kv_entry",
    "make_kv_cache",
    "next_token",
    "parse_pd_split",
    "prompt_tokens",
    "run_pd",
    "sample_requests",
    "token_stream_digest",
]
