"""Simulation utilities beyond the core machine model."""

from repro.sim.rack import RackCluster, make_rack, run_rack_cell, sweep_rack
from repro.sim.tenancy import ComputeCluster, Tenant

__all__ = [
    "ComputeCluster",
    "RackCluster",
    "Tenant",
    "make_rack",
    "run_rack_cell",
    "sweep_rack",
]
