"""Experiment harnesses: one driver per paper table/figure plus shared
static-placement machinery and canonical configurations."""

from . import configs
from .faults import (
    FaultComparisonResult,
    FaultRunResult,
    fault_degradation,
    run_fault_cell,
    straggler_timeline,
)
from .figures import (
    CaseStudyResult,
    TestbedResult,
    fig1_traffic_volume,
    fig3_case_study,
    fig6_fig7_testbed,
    fig8a_workload_classes,
    fig8b_architectures,
    fig9_bandwidth_sensitivity,
    fig10_job_numbers,
)
from .static import (
    StaticResult,
    StaticWorkload,
    build_static_workload,
    run_static_cell,
    run_static_placement,
)
from .sweep import (
    CellConfig,
    SweepRunResult,
    SweepSpec,
    merge_sweep,
    run_cell,
    run_sweep,
)
from .telemetry import (
    TelemetryRunResult,
    run_telemetry_cell,
)

__all__ = [
    "configs",
    "fig1_traffic_volume",
    "fig3_case_study",
    "fig6_fig7_testbed",
    "fig8a_workload_classes",
    "fig8b_architectures",
    "fig9_bandwidth_sensitivity",
    "fig10_job_numbers",
    "CaseStudyResult",
    "TestbedResult",
    "FaultComparisonResult",
    "FaultRunResult",
    "fault_degradation",
    "run_fault_cell",
    "straggler_timeline",
    "StaticResult",
    "StaticWorkload",
    "build_static_workload",
    "run_static_placement",
    "run_static_cell",
    "TelemetryRunResult",
    "run_telemetry_cell",
    "CellConfig",
    "SweepSpec",
    "SweepRunResult",
    "run_cell",
    "run_sweep",
    "merge_sweep",
]
