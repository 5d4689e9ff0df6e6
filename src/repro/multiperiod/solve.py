"""Solving the multi-period problem with the consensus machinery.

The time-expanded problem is a plain equality-constrained LP with bounds,
so it is the degenerate (zero-cone) case of the conic consensus solver:
components are the support-groups of the rows — every period's buses and
lines, plus one *storage component per storage spanning all periods* —
each solved by the batched closed-form affine projection.
"""

from __future__ import annotations

from repro.multiperiod.model import MultiPeriodProblem
from repro.socp.solver import ConicDecomposition, decompose_conic


class _ConicView:
    """Duck-type adapter: a multi-period problem as a cone-free conic one."""

    def __init__(self, problem: MultiPeriodProblem):
        self._p = problem
        self.rows = problem.rows
        self.var_index = problem.var_index
        self.cones: list = []
        self.cost = problem.cost
        self.lb = problem.lb
        self.ub = problem.ub
        self.n_vars = problem.n_vars

    def initial_point(self):
        return self._p.initial_point()


def decompose_multiperiod(problem: MultiPeriodProblem) -> ConicDecomposition:
    """Support-grouped decomposition of the time-expanded LP."""
    return decompose_conic(_ConicView(problem))
