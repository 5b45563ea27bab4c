"""Exception hierarchy for the simulated machine."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidAddressError(ReproError):
    """Access to a virtual address outside any mapped region (SIGSEGV)."""


class ProtectionError(ReproError):
    """Write to a read-only mapping, a malformed PTE transition, or a pool
    client's access to a slot it does not own."""


class OutOfMemoryError(ReproError):
    """Local DRAM or remote memory exhausted beyond what reclaim can fix."""


class FaultError(ReproError):
    """A page fault the kernel could not service."""
