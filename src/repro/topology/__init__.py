"""Hierarchical data-center network substrate.

Provides the four fabric generators the paper evaluates (Tree, Fat-Tree, VL2,
BCube — Figure 8b), the topology graph model and routing/equal-cost-path
utilities used by the policy optimiser.
"""

from .base import Link, Server, Switch, Tier, Topology, UNREACHABLE
from .bcube import BCubeConfig, build_bcube
from .describe import TopologySummary, ascii_tree, describe_topology
from .fattree import FatTreeConfig, build_fattree
from .routing import (
    RoutePlan,
    bfs_layers,
    count_shortest_paths,
    enumerate_paths,
    path_is_valid,
    plan_endpoints,
    route_plan,
    shortest_path_stages,
    single_source_unit_costs,
)
from .tree import TreeConfig, build_tree
from .vl2 import VL2Config, build_vl2

__all__ = [
    "Link",
    "Server",
    "Switch",
    "Tier",
    "Topology",
    "UNREACHABLE",
    "TreeConfig",
    "build_tree",
    "FatTreeConfig",
    "build_fattree",
    "VL2Config",
    "build_vl2",
    "BCubeConfig",
    "build_bcube",
    "shortest_path_stages",
    "RoutePlan",
    "route_plan",
    "plan_endpoints",
    "bfs_layers",
    "single_source_unit_costs",
    "enumerate_paths",
    "count_shortest_paths",
    "path_is_valid",
    "TopologySummary",
    "describe_topology",
    "ascii_tree",
]
