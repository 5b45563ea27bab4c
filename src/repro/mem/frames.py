"""The computing node's local DRAM: a pool of 4 KiB frames.

Frames carry real bytes so that eviction, write-back and fetch round-trips
are verifiable — a paging bug shows up as corrupted workload data, not just
a wrong counter.

All frames live in **one contiguous buffer**; each frame is exposed as a
``memoryview`` slice (supporting the same reads, slice-assignments and
``bytes()`` conversions a per-frame ``bytearray`` did). The MMU
(:class:`~repro.mem.vm.VirtualMemory`) copies page bytes through these
slices directly.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import OutOfMemoryError
from repro.common.units import PAGE_SIZE

_ZERO_PAGE = bytes(PAGE_SIZE)


class FramePool:
    """Fixed-size pool of local physical frames with a free list."""

    __slots__ = ("total_frames", "_data", "_free", "_is_free", "_ever_used")

    def __init__(self, total_frames: int) -> None:
        if total_frames <= 0:
            raise ValueError("frame pool needs at least one frame")
        self.total_frames = total_frames
        view = memoryview(bytearray(total_frames * PAGE_SIZE))
        self._data: List[memoryview] = [
            view[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]
            for i in range(total_frames)]
        self._free: List[int] = list(range(total_frames - 1, -1, -1))
        self._is_free: List[bool] = [True] * total_frames
        self._ever_used: List[bool] = [False] * total_frames

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def used_frames(self) -> int:
        return self.total_frames - len(self._free)

    def alloc(self) -> int:
        """Pop a zeroed frame off the free list."""
        if not self._free:
            raise OutOfMemoryError("local DRAM exhausted")
        frame = self._free.pop()
        self._is_free[frame] = False
        if self._ever_used[frame]:
            self._data[frame][:] = _ZERO_PAGE
        else:
            # Fresh slice of the backing buffer: already zero.
            self._ever_used[frame] = True
        return frame

    def free(self, frame: int) -> None:
        """Return ``frame`` to the free list."""
        if not 0 <= frame < self.total_frames:
            raise ValueError(f"frame {frame} out of range")
        if not self._ever_used[frame]:
            raise ValueError(f"frame {frame} was never allocated")
        if self._is_free[frame]:
            raise ValueError(f"double free of frame {frame}")
        self._is_free[frame] = True
        self._free.append(frame)

    def data(self, frame: int) -> memoryview:
        """The 4 KiB backing buffer of ``frame``."""
        if not self._ever_used[frame]:
            raise ValueError(f"frame {frame} not allocated")
        return self._data[frame]
