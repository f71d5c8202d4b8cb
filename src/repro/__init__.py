"""repro — reproduction of the ICPP 2018 Hit-Scheduler paper.

Public API re-exports the pieces a downstream user needs: topology
generators, the workload generator, the TAA core (Hit-Scheduler), the
baseline schedulers and the discrete-event simulator.
"""

from . import analysis, cluster, core, experiments, mapreduce, obs, schedulers, simulator, topology

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "cluster",
    "core",
    "experiments",
    "mapreduce",
    "obs",
    "schedulers",
    "simulator",
    "topology",
    "__version__",
]
