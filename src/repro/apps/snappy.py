"""In-memory compression/decompression (Figures 7(c), 7(d)).

The paper compresses files with Google's snappy. We implement a
snappy-flavoured byte codec from scratch — run-length tokens plus literal
spans, the degenerate-match case of snappy's literal/copy format — and run
it streaming over far-memory buffers. Input data is generated log-like
(long byte runs) so the codec genuinely compresses, and every run verifies
the decompressed output against the original.

Compression cost is charged per input byte (snappy-class codecs spend a
few cycles per byte), so the workload is compute/IO balanced like the real
one: sequential access, prefetch-friendly, and sensitive to how well a
system overlaps fetching with compression — the regime where AIFM's
streaming prefetcher shines at 12.5% local memory (§6.2).

Both the paging version (unmodified POSIX-ish code) and the AIFM port
(remoteable arrays, as the paper had to write) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.api import BaseSystem
from repro.baselines.aifm import AifmRuntime, RemArray
from repro.apps.views import PagedBytes
from repro.obs.snapshot import MetricsSnapshot

#: Streaming block size (16 pages).
BLOCK = 64 * 1024
#: Minimum run length worth a run token.
RUN_MIN = 4
#: Charged compute (cycles per input byte).
COMPRESS_CYCLES_PER_BYTE = 5.0
DECOMPRESS_CYCLES_PER_BYTE = 2.2

_OP_LITERAL = 0
_OP_RUN = 1


def compress_block(data: bytes) -> bytes:
    """Encode ``data`` as literal/run tokens."""
    if not data:
        return b""
    arr = np.frombuffer(data, dtype=np.uint8)
    boundaries = np.nonzero(np.diff(arr))[0] + 1
    starts = np.concatenate(([0], boundaries))
    lengths = np.diff(np.concatenate((starts, [len(arr)])))
    out = bytearray()
    literal_start = None

    def flush_literal(end: int) -> None:
        nonlocal literal_start
        if literal_start is None:
            return
        span = data[literal_start:end]
        cursor = 0
        while cursor < len(span):
            piece = span[cursor:cursor + 65535]
            out.append(_OP_LITERAL)
            out.extend(len(piece).to_bytes(2, "little"))
            out.extend(piece)
            cursor += len(piece)
        literal_start = None

    for start, length in zip(starts.tolist(), lengths.tolist()):
        if length >= RUN_MIN:
            flush_literal(start)
            remaining = length
            while remaining > 0:
                piece = min(remaining, 65535)
                out.append(_OP_RUN)
                out.extend(piece.to_bytes(2, "little"))
                out.append(arr[start])
                remaining -= piece
        elif literal_start is None:
            literal_start = start
    flush_literal(len(arr))
    return bytes(out)


def decompress_block(blob: bytes) -> bytes:
    """Invert :func:`compress_block`."""
    out = bytearray()
    cursor = 0
    end = len(blob)
    while cursor < end:
        op = blob[cursor]
        length = int.from_bytes(blob[cursor + 1:cursor + 3], "little")
        cursor += 3
        if op == _OP_LITERAL:
            out.extend(blob[cursor:cursor + length])
            cursor += length
        elif op == _OP_RUN:
            out.extend(blob[cursor:cursor + 1] * length)
            cursor += 1
        else:
            raise ValueError(f"corrupt stream: op {op}")
    return bytes(out)


def generate_loglike(nbytes: int, seed: int) -> bytes:
    """Log-like data: runs of repeated bytes with geometric lengths."""
    rng = np.random.default_rng(seed)
    mean_run = 48
    n_runs = max(4, int(nbytes / mean_run * 1.3))
    values = rng.integers(32, 96, size=n_runs).astype(np.uint8)
    lengths = rng.geometric(1.0 / mean_run, size=n_runs)
    data = np.repeat(values, lengths)[:nbytes]
    if len(data) < nbytes:
        data = np.concatenate([data, np.zeros(nbytes - len(data), np.uint8)])
    return data.tobytes()


@dataclass
class SnappyResult:
    mode: str
    input_bytes: int
    output_bytes: int
    elapsed_us: float
    metrics: MetricsSnapshot


class SnappyWorkload:
    """Compress (or decompress) ``n_files`` far-memory files, streaming."""

    def __init__(self, n_files: int = 4, file_bytes: int = 512 * 1024,
                 seed: int = 9) -> None:
        self.n_files = n_files
        self.file_bytes = file_bytes
        self.seed = seed

    @property
    def footprint_bytes(self) -> int:
        # Input files + output buffers of comparable size.
        return 2 * self.n_files * self.file_bytes

    def _originals(self) -> List[bytes]:
        return [generate_loglike(self.file_bytes, self.seed + i)
                for i in range(self.n_files)]

    # -- paging systems (unmodified application) ----------------------------

    def run_compress(self, system: BaseSystem, verify: bool = True) -> SnappyResult:
        originals = self._originals()
        inputs = []
        for i, blob in enumerate(originals):
            buf = PagedBytes(system, self.file_bytes, name=f"snappy-in-{i}")
            for start, stop in buf.chunks(BLOCK):
                buf.write(start, blob[start:stop])
            inputs.append(buf)
        out = PagedBytes(system, 2 * self.n_files * self.file_bytes,
                         name="snappy-out")
        begin = system.clock.now
        out_cursor = 0
        compressed_spans = []
        for buf in inputs:
            spans = []
            for start, stop in buf.chunks(BLOCK):
                block = buf.read(start, stop - start)
                system.cpu_cycles((stop - start) * COMPRESS_CYCLES_PER_BYTE)
                packed = compress_block(block)
                out.write(out_cursor, len(packed).to_bytes(4, "little"))
                out.write(out_cursor + 4, packed)
                spans.append((out_cursor, len(packed), stop - start))
                out_cursor += 4 + len(packed)
            compressed_spans.append(spans)
        elapsed = system.clock.now - begin
        if verify:
            for original, spans in zip(originals, compressed_spans):
                rebuilt = bytearray()
                for offset, length, _raw in spans:
                    rebuilt.extend(decompress_block(out.read(offset + 4, length)))
                if bytes(rebuilt) != original:
                    raise AssertionError("compression round-trip failed")
        return SnappyResult(mode="compress",
                            input_bytes=self.n_files * self.file_bytes,
                            output_bytes=out_cursor, elapsed_us=elapsed,
                            metrics=system.metrics())

    def run_decompress(self, system: BaseSystem, verify: bool = True) -> SnappyResult:
        originals = self._originals()
        packed_files = [[compress_block(blob[s:s + BLOCK])
                         for s in range(0, len(blob), BLOCK)]
                        for blob in originals]
        inputs = []
        for i, blocks in enumerate(packed_files):
            total = sum(4 + len(b) for b in blocks)
            buf = PagedBytes(system, total, name=f"snappy-cin-{i}")
            cursor = 0
            for block in blocks:
                buf.write(cursor, len(block).to_bytes(4, "little"))
                buf.write(cursor + 4, block)
                cursor += 4 + len(block)
            inputs.append((buf, len(blocks)))
        out = PagedBytes(system, self.n_files * self.file_bytes,
                         name="snappy-raw-out")
        begin = system.clock.now
        out_cursor = 0
        for buf, n_blocks in inputs:
            cursor = 0
            for _ in range(n_blocks):
                length = int.from_bytes(buf.read(cursor, 4), "little")
                packed = buf.read(cursor + 4, length)
                cursor += 4 + length
                raw = decompress_block(packed)
                system.cpu_cycles(len(raw) * DECOMPRESS_CYCLES_PER_BYTE)
                out.write(out_cursor, raw)
                out_cursor += len(raw)
        elapsed = system.clock.now - begin
        if verify:
            cursor = 0
            for blob in originals:
                if out.read(cursor, 64) != blob[:64]:
                    raise AssertionError("decompression round-trip failed")
                cursor += len(blob)
        return SnappyResult(mode="decompress", input_bytes=out_cursor,
                            output_bytes=out_cursor, elapsed_us=elapsed,
                            metrics=system.metrics())

    # -- AIFM port (remoteable arrays, streaming prefetch) ----------------------

    def run_compress_aifm(self, runtime: AifmRuntime,
                          verify: bool = True) -> SnappyResult:
        originals = self._originals()
        arrays = []
        for i, blob in enumerate(originals):
            arr = RemArray(runtime, count=self.file_bytes // 4096,
                           item_size=4096)
            for ci in range(arr.nchunks):
                arr.write_chunk(ci, blob[ci * 4096:(ci + 1) * 4096])
            arrays.append(arr)
        begin = runtime.clock.now
        outputs = []
        for arr, original in zip(arrays, originals):
            blocks = []
            pending = bytearray()
            for chunk in arr.scan_chunks():
                pending.extend(chunk)
                while len(pending) >= BLOCK:
                    raw = bytes(pending[:BLOCK])
                    del pending[:BLOCK]
                    runtime.cpu_cycles(len(raw) * COMPRESS_CYCLES_PER_BYTE)
                    packed = compress_block(raw)
                    blocks.append(runtime.allocate(max(1, len(packed)),
                                                   data=packed))
            if pending:
                raw = bytes(pending)
                runtime.cpu_cycles(len(raw) * COMPRESS_CYCLES_PER_BYTE)
                packed = compress_block(raw)
                blocks.append(runtime.allocate(max(1, len(packed)), data=packed))
            outputs.append(blocks)
        elapsed = runtime.clock.now - begin
        if verify:
            for original, blocks in zip(originals, outputs):
                rebuilt = b"".join(decompress_block(ptr.read())
                                   for ptr in blocks)
                if rebuilt != original:
                    raise AssertionError("AIFM compression round-trip failed")
        out_bytes = sum(ptr.size for blocks in outputs for ptr in blocks)
        return SnappyResult(mode="compress",
                            input_bytes=self.n_files * self.file_bytes,
                            output_bytes=out_bytes, elapsed_us=elapsed,
                            metrics=runtime.metrics())

    def run_decompress_aifm(self, runtime: AifmRuntime,
                            verify: bool = True) -> SnappyResult:
        originals = self._originals()
        packed_files = [[compress_block(blob[s:s + BLOCK])
                         for s in range(0, len(blob), BLOCK)]
                        for blob in originals]
        inputs = [[runtime.allocate(len(b), data=b) for b in blocks]
                  for blocks in packed_files]
        begin = runtime.clock.now
        total_out = 0
        outputs = []
        for blocks in inputs:
            raws = []
            for i, ptr in enumerate(blocks):
                for ahead in blocks[i + 1:i + 1 + runtime.config.prefetch_depth]:
                    ahead.prefetch()
                packed = ptr.read()
                raw = decompress_block(packed)
                runtime.cpu_cycles(len(raw) * DECOMPRESS_CYCLES_PER_BYTE)
                raws.append(runtime.allocate(len(raw), data=raw))
                total_out += len(raw)
            outputs.append(raws)
        elapsed = runtime.clock.now - begin
        if verify:
            for original, raws in zip(originals, outputs):
                rebuilt = b"".join(ptr.read() for ptr in raws)
                if rebuilt != original:
                    raise AssertionError("AIFM decompression round-trip failed")
        return SnappyResult(mode="decompress", input_bytes=total_out,
                            output_bytes=total_out, elapsed_us=elapsed,
                            metrics=runtime.metrics())
