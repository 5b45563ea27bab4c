"""Open-loop serving over disaggregated memory (millions of simulated
clients on the simulated clock).

The package turns the harness from "run this workload to completion" into
"serve this request stream under an SLO": deterministic arrival processes
(:mod:`~repro.serve.arrivals`), admission control
(:mod:`~repro.serve.admission`), pluggable load balancing
(:mod:`~repro.serve.balancer`) and an SLO-accounting frontend
(:mod:`~repro.serve.frontend`) that drives
:class:`~repro.sim.tenancy.ComputeCluster` service tenants and reports
p50/p99/p999, goodput and SLO-violation rate through canonical
``serve.*`` instruments. Everything is a pure function of the
:class:`~repro.serve.spec.ServeSpec` — same spec, same trace digest, same
metrics digest. See ``docs/SERVING.md`` for the tour.
"""

from repro.serve.admission import (
    ADMISSIONS,
    AdmissionPolicy,
    NoAdmission,
    QueueDepthAdmission,
    TokenBucketAdmission,
    make_admission,
)
from repro.serve.arrivals import Arrival
from repro.serve.balancer import (
    BALANCERS,
    Balancer,
    ConsistentHashBalancer,
    LeastOutstandingBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.serve.frontend import (
    RequestSampler,
    ServeFrontend,
    ServeReport,
)
from repro.serve.spec import (
    ARRIVALS,
    ARRIVAL_SPEC_EXAMPLES,
    ServeSpec,
    coerce_serve_spec,
    make_arrivals,
    parse_duration_us,
    parse_scaled,
)

__all__ = [
    "ADMISSIONS",
    "ARRIVALS",
    "ARRIVAL_SPEC_EXAMPLES",
    "AdmissionPolicy",
    "Arrival",
    "BALANCERS",
    "Balancer",
    "ConsistentHashBalancer",
    "LeastOutstandingBalancer",
    "NoAdmission",
    "QueueDepthAdmission",
    "RequestSampler",
    "RoundRobinBalancer",
    "ServeFrontend",
    "ServeReport",
    "ServeSpec",
    "TokenBucketAdmission",
    "coerce_serve_spec",
    "make_admission",
    "make_arrivals",
    "make_balancer",
    "parse_duration_us",
    "parse_scaled",
]
