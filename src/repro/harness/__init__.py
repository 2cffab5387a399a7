"""Experiment harness: the executor with its content-addressed result
store, per-figure experiments, table formatting.

Programmatic entry points live in the stable facade :mod:`repro.api`
(``Simulation`` / ``Sweep`` / ``Batch`` / ``Space`` / ``Tuner``); the
modules here are the plumbing those classes drive.
"""

from ._runner import (
    RunResult,
    SWL_SWEEP,
    geomean,
)
from .executor import (
    Executor,
    ExecutorError,
    ExecutorStats,
    ExperimentPlan,
    ExperimentRequest,
    PlanProgress,
    ResultStore,
    STORE_SCHEMA_VERSION,
    default_store_root,
    simulator_digest,
    workload_digest,
)
from . import experiments
from .tables import format_table, format_series

__all__ = [
    # runner
    "RunResult",
    "SWL_SWEEP",
    "geomean",
    # executor + result store
    "Executor",
    "ExecutorError",
    "ExecutorStats",
    "ExperimentPlan",
    "ExperimentRequest",
    "PlanProgress",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "default_store_root",
    "simulator_digest",
    "workload_digest",
    # figures/tables
    "experiments",
    "format_table",
    "format_series",
]
