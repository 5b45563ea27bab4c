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
from repro.core.page_manager import PageManager
from repro.core.spec import (
    BACKENDS,
    KERNELS,
    SystemSpec,
    backend_label,
    make_backend,
)

__all__ = [
    "AllocatorGuide",
    "BACKENDS",
    "BaseSystem",
    "CommModule",
    "DilosConfig",
    "DilosKernel",
    "DilosSystem",
    "GuideContext",
    "KERNELS",
    "PageManager",
    "PrefetchGuide",
    "SystemSpec",
    "backend_label",
    "coalesce_ranges",
    "make_backend",
]
