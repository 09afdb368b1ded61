"""RunConfig: the two settings that perfbench/workloads.py, its one reader,
passes to hardy_moment.  This module goes once that read does."""

from dataclasses import dataclass


@dataclass
class RunConfig:
    tol_moment: float = 1e-7  # accepted and unused: one fixed quadrature pass
    eval_budget: int = 100_000_000  # quad.EVAL_BUDGET, the library's default
