"""MapReduce workload substrate: jobs, HDFS blocks and shuffle flows."""

from .hdfs import BlockPlacement, HdfsModel, rack_of_servers
from .job import JobSpec, ShuffleClass, shuffle_matrix
from .shuffle import ShuffleFlow, build_flows, flows_between
from .trace import (
    dump_workload,
    load_workload,
    load_workload_file,
    save_workload_file,
)
from .workload import PUMA_BENCHMARKS, Benchmark, WorkloadGenerator, class_mix

__all__ = [
    "JobSpec",
    "ShuffleClass",
    "shuffle_matrix",
    "HdfsModel",
    "BlockPlacement",
    "rack_of_servers",
    "ShuffleFlow",
    "build_flows",
    "flows_between",
    "PUMA_BENCHMARKS",
    "Benchmark",
    "WorkloadGenerator",
    "class_mix",
    "dump_workload",
    "load_workload",
    "save_workload_file",
    "load_workload_file",
]
