"""repro — anytime anywhere algorithms for vertex additions in large and
dynamic graphs.

A from-scratch reproduction of Santos, Korah, Murugappan & Subramanian,
"Efficient Anytime Anywhere Algorithms for Vertex Additions in Large and
Dynamic Graphs" (IPDPS Workshops 2017): distributed closeness centrality
on dynamic graphs with anywhere vertex additions, processor-assignment
strategies (RoundRobin-PS, CutEdge-PS), Repartition-S, and a simulated
LogP-metered message-passing cluster.

Quick start::

    import repro
    from repro.graph import barabasi_albert

    result = repro.closeness(barabasi_albert(500, 3, seed=1), nprocs=4)
    print(result.closeness)

or, keeping a live session around for streaming/anytime runs::

    import repro

    with repro.session(g, repro.AnytimeConfig(nprocs=4)) as s:
        s.feed(events)                  # queue change events
        s.step()                        # one admission + paced RC step
        print(s.signals.delta_hit_rate)
        print(s.result().closeness)     # drain + run to convergence
"""

from .core.config import AnytimeConfig, ResilienceConfig
from .core.engine import AnytimeAnywhereCloseness, RunResult, closeness
from .errors import ReproError
from .graph.changes import ChangeBatch, ChangeStream
from .graph.graph import Graph
from .obs import ConvergenceProbe, Observer, SignalView, build_hub
from .runtime.backends import available_backends
from .runtime.chaos import FaultPlan
from .runtime.health import HealthPolicy
from .serve import Session, session

__version__ = "1.0.0"

__all__ = [
    "AnytimeAnywhereCloseness",
    "AnytimeConfig",
    "ResilienceConfig",
    "RunResult",
    "Session",
    "SignalView",
    "closeness",
    "session",
    "available_backends",
    "ConvergenceProbe",
    "Observer",
    "build_hub",
    "FaultPlan",
    "HealthPolicy",
    "Graph",
    "ChangeBatch",
    "ChangeStream",
    "ReproError",
    "__version__",
]
