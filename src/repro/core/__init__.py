"""DiLOS — the paper's contribution: kernel, page manager, prefetch, guides."""

from repro.core.api import BaseSystem
from repro.core.comm import CommModule
from repro.core.config import DilosConfig
from repro.core.dilos import DilosKernel, DilosSystem
from repro.core.guides import (
    AllocatorGuide,
    GuideContext,
    PrefetchGuide,
    coalesce_ranges,
)
from repro.core.libos import LibOS
from repro.core.loader import ElfLoader, LoadedBinary
from repro.core.page_manager import PageManager

# The boot layer imports the baseline packages, which import repro.core.*
# submodules directly — so it must come after everything above.
from repro.core.spec import (  # noqa: E402
    SystemSpec,
    backend_kinds,
    backend_label,
    kernel_kinds,
    make_backend,
    register_backend,
    register_kernel,
)

__all__ = [
    "AllocatorGuide",
    "BaseSystem",
    "CommModule",
    "DilosConfig",
    "DilosKernel",
    "DilosSystem",
    "ElfLoader",
    "GuideContext",
    "LibOS",
    "LoadedBinary",
    "PageManager",
    "PrefetchGuide",
    "SystemSpec",
    "backend_kinds",
    "backend_label",
    "coalesce_ranges",
    "kernel_kinds",
    "make_backend",
    "register_backend",
    "register_kernel",
]
