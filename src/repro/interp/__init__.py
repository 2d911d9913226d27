"""IR interpreter with cost accounting, path profiling, and dynamic taint."""

from .compiled import CompiledModule
from .cost import DEFAULT_COST_MODEL, CostModel
from .interpreter import (
    ExecutionLimit,
    Interpreter,
    RunResult,
    Trap,
    run_module,
)
from .profiler import BallLarusProfiler, NullProfiler, TraceProfiler

__all__ = [
    "BallLarusProfiler",
    "CompiledModule",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "ExecutionLimit",
    "Interpreter",
    "NullProfiler",
    "RunResult",
    "run_module",
    "TraceProfiler",
    "Trap",
]
