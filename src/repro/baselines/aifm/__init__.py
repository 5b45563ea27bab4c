"""AIFM [60]: application-integrated far memory (modeled).

AIFM avoids page faults entirely: applications hold *remoteable pointers*
and every dereference runs a presence check in user space; remote objects
are fetched at object granularity over a user-level (TCP) transport, and a
background evacuator keeps the local heap under budget. The price is the
programming model — workloads must be ported to the AIFM API, which is why
this package ships its own ports of the snappy and DataFrame workloads
(the two the paper could compare, §6.2).
"""

from repro.baselines.aifm.config import AifmConfig
from repro.baselines.aifm.runtime import AifmRuntime, RemPtr
from repro.baselines.aifm.arrays import RemArray

__all__ = ["AifmConfig", "AifmRuntime", "RemArray", "RemPtr"]
