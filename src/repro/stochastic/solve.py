"""Solving the two-stage stochastic problem with the consensus machinery.

The scenario-expanded LP is equality-constrained with bounds, so — like
the multi-period problem — it is the degenerate (zero-cone) case of the
conic consensus solver: the support-grouped components of *all* scenarios
(every scenario's buses/lines plus the per-scenario CVaR epigraph rows)
land in one :class:`~repro.core.batch.BatchedLocalSolver` batch, i.e. the
scenario set is solved as one stacked ADMM batch through the Backend
protocol.  The shared first-stage columns appear in K scenario components
at once, so the ADMM consensus average enforces non-anticipativity.

The module also hosts the evaluation utilities around the solve:
recourse evaluation of a fixed first-stage decision and the value of the
stochastic solution (VSS), both computed against the exact HiGHS
reference so the benchmark quantities are solver-noise-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ADMMConfig
from repro.core.results import ADMMResult
from repro.reference import solve_reference
from repro.socp.solver import ConicDecomposition, ConicSolverFreeADMM, decompose_conic
from repro.stochastic.model import (
    OBJECTIVE_CVAR,
    OBJECTIVE_EXPECTED,
    StochasticProblem,
    build_stochastic_lp,
)
from repro.stochastic.sampler import ScenarioSet


class _ConicView:
    """Duck-type adapter: the stochastic problem as a cone-free conic one."""

    def __init__(self, problem: StochasticProblem):
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


def decompose_stochastic(problem: StochasticProblem) -> ConicDecomposition:
    """Support-grouped decomposition of the scenario-expanded LP."""
    return decompose_conic(_ConicView(problem))


@dataclass
class StochasticSolution:
    """One solved two-stage instance plus its risk read-outs.

    ``expected_cost`` and ``cvar_cost`` are both evaluated on the *same*
    solution ``x`` (first-stage cost + expected / CVaR recourse), so
    ``cvar_cost >= expected_cost`` holds pointwise for any solution — the
    risk premium of the decision.
    """

    problem: StochasticProblem
    result: ADMMResult
    first_stage: dict[str, np.ndarray]
    scenario_costs: np.ndarray
    expected_cost: float
    cvar_cost: float

    @property
    def objective(self) -> float:
        return self.result.objective

    @property
    def converged(self) -> bool:
        return self.result.converged

    @property
    def iterations(self) -> int:
        return self.result.iterations


def solve_two_stage(
    net,
    scenarios: ScenarioSet,
    first_stage: list[str] | None = None,
    alpha: float = 0.95,
    objective: str = OBJECTIVE_CVAR,
    config: ADMMConfig | None = None,
    backend=None,
    precision: str | None = None,
    fix_first_stage: dict[str, np.ndarray] | None = None,
) -> StochasticSolution:
    """Build, decompose and solve one two-stage instance end to end."""
    problem = build_stochastic_lp(
        net,
        scenarios,
        first_stage=first_stage,
        alpha=alpha,
        objective=objective,
        fix_first_stage=fix_first_stage,
    )
    solver = ConicSolverFreeADMM(
        decompose_stochastic(problem), config, backend=backend, precision=precision
    )
    result = solver.solve()
    x = result.x
    return StochasticSolution(
        problem=problem,
        result=result,
        first_stage=problem.first_stage_setpoints(x),
        scenario_costs=problem.scenario_costs(x),
        expected_cost=problem.expected_cost(x),
        cvar_cost=problem.cvar_cost(x),
    )


def evaluate_first_stage(
    net,
    scenarios: ScenarioSet,
    setpoints: dict[str, np.ndarray],
    first_stage: list[str] | None = None,
) -> float:
    """Exact expected total cost of a fixed here-and-now decision.

    Collapses the first-stage boxes to ``setpoints`` and solves the
    expected-value LP with the HiGHS reference: the recourse function
    evaluation ``E_k[Q(y, xi_k)]`` plus the first-stage cost.
    """
    problem = build_stochastic_lp(
        net,
        scenarios,
        first_stage=first_stage if first_stage is not None else sorted(setpoints),
        objective=OBJECTIVE_EXPECTED,
        fix_first_stage=setpoints,
    )
    ref = solve_reference(problem.to_centralized())
    return float(ref.objective)


@dataclass
class VSSReport:
    """Value of the stochastic solution on one sampled scenario set.

    ``vss = deterministic_eval - stochastic_eval >= 0``: how much expected
    cost the mean-scenario (expected value problem) first stage leaves on
    the table relative to the true two-stage optimum.
    """

    stochastic_eval: float
    deterministic_eval: float
    first_stage_stochastic: dict[str, np.ndarray]
    first_stage_deterministic: dict[str, np.ndarray]

    @property
    def vss(self) -> float:
        return self.deterministic_eval - self.stochastic_eval


def value_of_stochastic_solution(
    net,
    scenarios: ScenarioSet,
    first_stage: list[str] | None = None,
) -> VSSReport:
    """VSS via exact reference solves (benchmark-grade, solver-noise-free).

    Solves the expected-value problem on the full scenario set (the
    recourse problem RP) and on the mean scenario (the expected value
    problem EV), then evaluates both first stages against the full set.
    """
    rp = build_stochastic_lp(
        net, scenarios, first_stage=first_stage, objective=OBJECTIVE_EXPECTED
    )
    x_rp = solve_reference(rp.to_centralized()).x
    y_rp = rp.first_stage_setpoints(x_rp)

    ev = build_stochastic_lp(
        net, scenarios.mean(), first_stage=first_stage, objective=OBJECTIVE_EXPECTED
    )
    x_ev = solve_reference(ev.to_centralized()).x
    y_ev = ev.first_stage_setpoints(x_ev)

    fs = list(rp.first_stage)
    return VSSReport(
        stochastic_eval=evaluate_first_stage(net, scenarios, y_rp, first_stage=fs),
        deterministic_eval=evaluate_first_stage(net, scenarios, y_ev, first_stage=fs),
        first_stage_stochastic=y_rp,
        first_stage_deterministic=y_ev,
    )
