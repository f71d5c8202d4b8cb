"""Canonical experiment configurations.

One place for the topology/workload parameters each figure uses, so the
benchmarks, the examples and EXPERIMENTS.md all describe the same setups.
Every named fabric lives in one registry, :data:`FABRICS`: a harness names
a fabric (``"testbed"``, ``{"name": "mini", "fanout": 3}``) and builds it
with :func:`build_fabric`; :func:`normalize_fabric` gives the canonical
dict form a sweep cell hashes.

The paper's absolute scales (GbE links, GB inputs, microsecond delays) are
mapped onto simulator units: sizes are "GB", rates are "GB per time unit",
and switch-traversal cost is 1 T per switch as in the Section 2.3 case
study.  Link bandwidths are deliberately tight relative to shuffle volumes —
the paper's whole premise is a bandwidth-constrained multi-tenant cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping

from ..cluster.resources import Resources
from ..mapreduce.workload import WorkloadGenerator
from ..simulator.engine import SimulationConfig
from ..topology.base import Topology
from ..topology.bcube import BCubeConfig, build_bcube
from ..topology.fattree import FatTreeConfig, build_fattree
from ..topology.tree import TreeConfig, build_tree
from ..topology.vl2 import VL2Config, build_vl2

__all__ = [
    "ARCHITECTURES_64",
    "FABRICS",
    "Fabric",
    "build_fabric",
    "normalize_fabric",
    "normalize_params",
    "register_fabric",
    "testbed_tree",
    "case_study_tree",
    "large_tree",
    "testbed_workload",
    "testbed_simulation_config",
]


# ------------------------------------------------------------ fabric registry
@dataclass(frozen=True)
class Fabric:
    """One named fabric: its tunable parameters (with canonical defaults)
    and the builder that takes exactly those parameters as keywords."""

    defaults: Mapping[str, Any]
    build: Callable[..., Topology]


#: Every fabric a harness can name, keyed by registry name.  The sweep's
#: topology axis, the chaos and online campaigns, the figure drivers and
#: ``repro topology`` all build through this table.
FABRICS: dict[str, Fabric] = {}


def register_fabric(name: str, **defaults: Any):
    """Decorator registering ``build(**params)`` as fabric ``name``.

    ``defaults`` are the fabric's parameters and their canonical values; a
    sweep cell's hash covers every one of them, so changing a default
    invalidates exactly the cells on that fabric.
    """

    def decorate(build: Callable[..., Topology]) -> Callable[..., Topology]:
        FABRICS[name] = Fabric(dict(defaults), build)
        return build

    return decorate


def normalize_params(
    section: str, raw: Mapping[str, Any], defaults: Mapping[str, Any]
) -> dict[str, Any]:
    """Defaults merged with ``raw``, values coerced to canonical types.

    Numeric coercion (int stays int, everything else becomes float; string
    defaults stay strings) makes a config hash insensitive to JSON
    round-trips — ``8`` and ``8.0`` for a rate knob must not be two
    different cells.  Unknown keys are an error: a typo silently ignored
    would *weaken* the hash (two specs differing only in the typo'd knob
    would collide).
    """
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown {section} field(s): {sorted(unknown)} "
            f"(known: {sorted(defaults)})"
        )
    out: dict[str, Any] = {}
    for key, default in defaults.items():
        value = raw.get(key, default)
        if value is None:
            out[key] = None
        elif isinstance(default, str):
            out[key] = str(value)
        elif isinstance(default, int) and not isinstance(default, bool):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out


def normalize_fabric(spec: str | Mapping[str, Any]) -> dict[str, Any]:
    """Fabric spec -> canonical dict: ``"testbed"`` and
    ``{"name": "testbed"}`` both become ``{"name": "testbed",
    "redundancy": 2}``; overrides are type-coerced, unknown ones rejected."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if "name" not in spec:
        raise ValueError(f"topology spec needs a 'name': {spec!r}")
    name = str(spec["name"])
    fabric = FABRICS.get(name)
    if fabric is None:
        raise ValueError(
            f"unknown topology {name!r} (known: {sorted(FABRICS)})"
        )
    params = {k: v for k, v in spec.items() if k != "name"}
    return {
        "name": name,
        **normalize_params(f"topology[{name}]", params, fabric.defaults),
    }


def build_fabric(spec: str | Mapping[str, Any]) -> Topology:
    """A fresh topology for a fabric name or ``{"name": ..., **overrides}``."""
    params = normalize_fabric(spec)
    return FABRICS[params.pop("name")].build(**params)


# --------------------------------------------------------------- the fabrics
@register_fabric("testbed", redundancy=2)
def testbed_tree(redundancy: int = 2) -> Topology:
    """The Figure 6/7 fabric: 64 hosts under a depth-3 tree.

    The paper's Mininet run used "a tree topology of depth 3 and fanout 8
    (i.e. 64 hosts...)"; depth 3 with fanout 4 is the consistent reading
    (4^3 = 64) and gives the three-tier access/aggregation/core hierarchy of
    Figure 2.  ``redundancy=2`` populates each switch position twice so that
    flows have alternative routes — the paper's policy optimisation is
    meaningless on a redundancy-1 tree.
    """
    return build_tree(
        TreeConfig(
            depth=3,
            fanout=4,
            redundancy=redundancy,
            server_link_bandwidth=1.0,
            # 4:1.6 oversubscription at the access uplinks: cross-rack
            # shuffle must contend in the aggregation/core tiers, which is
            # the regime the paper's scheduler is designed for.
            fabric_link_bandwidth=2.5,
            access_capacity=8.0,
            aggregation_capacity=24.0,
            core_capacity=64.0,
            server_resources=(3.0,),
        )
    )


@register_fabric("case-study")
def case_study_tree() -> Topology:
    """The Section 2.3 / Figure 3 fabric: 4 servers, 2 racks, 1 core.

    Same-rack shuffle traverses 1 switch; cross-rack traverses 3 — exactly
    the delays behind the paper's 112 GB.T vs 64 GB.T arithmetic.
    """
    return build_tree(
        TreeConfig(
            depth=2,
            fanout=2,
            redundancy=1,
            server_resources=(2.0,),
            access_capacity=100.0,
            core_capacity=100.0,
        )
    )


def _tree_shape(num_servers: int) -> tuple[int, int]:
    """``(depth, fanout)`` of the 64- and 512-server evaluation trees."""
    if num_servers == 512:
        return 3, 8
    if num_servers == 64:
        return 3, 4
    raise ValueError(
        f"evaluation trees have 64 or 512 servers, not {num_servers}"
    )


def large_tree(num_servers: int = 512, redundancy: int = 2) -> Topology:
    """The Figure 9/10 fabric: a 512-server tree (depth 3, fanout 8)."""
    depth, fanout = _tree_shape(num_servers)
    return build_tree(
        TreeConfig(
            depth=depth,
            fanout=fanout,
            redundancy=redundancy,
            server_link_bandwidth=1.0,
            fabric_link_bandwidth=4.0,
            access_capacity=8.0,
            aggregation_capacity=32.0,
            core_capacity=128.0,
            server_resources=(2.0,),
        )
    )


register_fabric("large64", redundancy=2)(partial(large_tree, 64))
register_fabric("large512", redundancy=2)(partial(large_tree, 512))


@register_fabric("fig9-tree", num_servers=512, bandwidth=1.0)
def _bandwidth_tree(num_servers: int, bandwidth: float) -> Topology:
    """The Figure 9 fabric: the evaluation tree with every link bandwidth
    and switch capacity scaled by ``bandwidth`` (the paper varies the
    Mininet link bandwidth, which scales switch forwarding too)."""
    depth, fanout = _tree_shape(num_servers)
    return build_tree(
        TreeConfig(
            depth=depth,
            fanout=fanout,
            redundancy=2,
            server_link_bandwidth=bandwidth,
            fabric_link_bandwidth=2.5 * bandwidth,
            access_capacity=8.0 * bandwidth,
            aggregation_capacity=32.0 * bandwidth,
            core_capacity=128.0 * bandwidth,
            server_resources=(3.0,),
        )
    )


# Plain trees.  ``tree`` takes the ``repro topology tree`` flags; ``mini``
# (16 servers) is the sweep's smoke fabric; ``small`` and ``deep`` are the
# chaos/online campaign fabrics — redundancy-2, so single-element outages
# never partition them and partition trials exercise the sampler's
# ``allow_partition`` path rather than an accidentally fragile fabric.
@register_fabric("tree", depth=2, fanout=4, redundancy=2, slots=2.0)
@register_fabric("mini", depth=2, fanout=4, redundancy=2, slots=3.0)
@register_fabric("small", depth=2, fanout=4, redundancy=2, slots=2.0)
@register_fabric("deep", depth=3, fanout=2, redundancy=2, slots=2.0)
def _tree(depth: int, fanout: int, redundancy: int, slots: float) -> Topology:
    return build_tree(
        TreeConfig(
            depth=depth,
            fanout=fanout,
            redundancy=redundancy,
            server_resources=(slots,),
        )
    )


# The ``repro topology`` multipath fabrics, with that command's flags.
@register_fabric("fattree", k=4, slots=2.0)
def _fattree(k: int, slots: float) -> Topology:
    return build_fattree(FatTreeConfig(k=k, server_resources=(slots,)))


@register_fabric("vl2", slots=2.0)
def _vl2(slots: float) -> Topology:
    return build_vl2(VL2Config(server_resources=(slots,)))


@register_fabric("bcube", n=4, levels=1, slots=2.0)
def _bcube(n: int, levels: int, slots: float) -> Topology:
    return build_bcube(BCubeConfig(n=n, k=levels, server_resources=(slots,)))


# The Figure 8(b) fabrics at comparable scale (~64 servers) to the testbed;
# the k=6 fat-tree's 54 servers are the closest pod size to 64.
register_fabric("fig8b-fattree")(partial(build_fattree, FatTreeConfig(
    k=6, server_resources=(2.0,), edge_capacity=8.0,
    aggregation_capacity=24.0, core_capacity=64.0,
)))
register_fabric("fig8b-vl2")(partial(build_vl2, VL2Config(
    num_intermediate=4, num_aggregation=8, num_tor=16, servers_per_tor=4,
    server_resources=(2.0,), tor_capacity=8.0, aggregation_capacity=24.0,
    intermediate_capacity=64.0,
)))
register_fabric("fig8b-bcube")(partial(build_bcube, BCubeConfig(
    n=8, k=1, server_resources=(2.0,), switch_capacity=16.0,
)))


#: Figure 8(b)'s architecture label -> fabric registry name.
ARCHITECTURES_64: dict[str, str] = {
    "tree": "testbed",
    "fat-tree": "fig8b-fattree",
    "vl2": "fig8b-vl2",
    "bcube": "fig8b-bcube",
}


def testbed_workload(
    seed: int = 0,
    num_jobs: int = 22,
    interarrival: float = 0.5,
) -> list:
    """The Table-1 mix sized for the 64-host testbed.

    Map compute is fast relative to shuffle transfer (``map_rate=8``): the
    paper's premise is that shuffle, not map compute, dominates job time for
    the shuffle-heavy mix.
    """
    generator = WorkloadGenerator(
        seed=seed,
        input_size_range=(4.0, 12.0),
        split_size=1.0,
        reduces_per_maps=0.25,
        map_rate=8.0,
        reduce_rate=8.0,
    )
    return generator.make_workload(num_jobs, interarrival=interarrival)


def testbed_simulation_config(seed: int = 0) -> SimulationConfig:
    """Simulation knobs shared by the Figure 6/7 runs."""
    return SimulationConfig(
        container_demand=Resources(1.0, 0.0),
        map_slots_per_job=16,
        seed=seed,
    )
