"""Data-flow analysis: lattices, the monotone framework, the iterative
solver, and Wegman–Zadek conditional constant propagation."""

from .framework import (
    DATAFLOW_ENGINES,
    DataflowProblem,
    Solution,
    SolverBudgetExceeded,
    SolverStats,
    engine_scope,
    get_default_engine,
    priority_order,
    solve,
)
from .graph_view import GraphView
from .lattice import (
    BOT,
    TOP,
    UNREACHABLE,
    ConstEnv,
    EnvValue,
    FlatValue,
    is_const,
    leq_env,
    leq_flat,
    meet_env,
    meet_flat,
)
from .local import local_constant_sites
from .mop import mop_for_function, mop_solution
from .transfer import (
    block_site_values,
    eval_operand,
    eval_pure,
    transfer_block,
    transfer_instr,
)
from .wegman_zadek import CondConstResult, analyze

__all__ = [
    "analyze",
    "block_site_values",
    "BOT",
    "DATAFLOW_ENGINES",
    "engine_scope",
    "get_default_engine",
    "priority_order",
    "SolverBudgetExceeded",
    "SolverStats",
    "CondConstResult",
    "ConstEnv",
    "DataflowProblem",
    "EnvValue",
    "eval_operand",
    "eval_pure",
    "FlatValue",
    "GraphView",
    "is_const",
    "leq_env",
    "leq_flat",
    "local_constant_sites",
    "meet_env",
    "meet_flat",
    "mop_for_function",
    "mop_solution",
    "Solution",
    "solve",
    "TOP",
    "transfer_block",
    "transfer_instr",
    "UNREACHABLE",
]
