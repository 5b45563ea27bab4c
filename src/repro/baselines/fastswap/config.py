"""Configuration for the Fastswap baseline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import KernelConfig


@dataclass
class FastswapConfig(KernelConfig):
    """Knobs for the modeled Fastswap computing node: only the fields
    every kernel takes. The Linux/Fastswap configuration of the paper's
    testbed (readahead cluster, watermarks, kswapd pacing) is fixed, as
    constants in :mod:`repro.baselines.fastswap.kernel`.
    """
