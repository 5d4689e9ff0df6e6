"""Rolling-horizon DER scheduling over the multi-period problem.

Model-predictive scheduling in the standard receding-horizon pattern: at
step ``t`` solve the time-expanded problem over the lookahead window
``[t, t+W)``, commit only the first period's dispatch, advance each
storage's state of charge by the committed charge/discharge, and repeat
with the window shifted by one.  Windows use non-cyclic storage chains
(the terminal condition would otherwise forbid using energy near the end
of every window) anchored at the carried-over ``soc0``.

Each window solve goes through either the consensus ADMM
(:class:`~repro.socp.solver.ConicSolverFreeADMM` over the zero-cone
multi-period decomposition) or the
exact HiGHS reference; the committed trajectory satisfies the SoC
dynamics by construction of the committed charge/discharge powers, and —
under the reference solver — matches the solved ``se`` variables to
solver feasibility tolerance (see tests/test_multiperiod.py).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.backend.policy import HOST_DTYPE
from repro.core.config import ADMMConfig
from repro.multiperiod.model import Storage, _suffix, build_multiperiod_lp
from repro.multiperiod.solve import decompose_multiperiod
from repro.reference import solve_reference
from repro.socp.solver import ConicSolverFreeADMM
from repro.utils.exceptions import FormulationError


@dataclass
class HorizonStep:
    """One committed period of the rolling schedule."""

    period: int
    objective_window: float
    iterations: int
    converged: bool
    substation_p: float
    storage_p: dict[str, float]  # net injection (discharge - charge)
    storage_charge: dict[str, float]
    storage_discharge: dict[str, float]
    soc_after: dict[str, float]


@dataclass
class HorizonResult:
    """The committed rolling-horizon schedule."""

    steps: list[HorizonStep]
    storages: list[Storage]
    dt_hours: float
    committed_cost: float

    def soc_trajectory(self, storage: str) -> np.ndarray:
        """Committed SoC per period, initial value included."""
        st = next(s for s in self.storages if s.name == storage)
        return np.array(
            [st.soc0] + [step.soc_after[storage] for step in self.steps],
            dtype=HOST_DTYPE,
        )


def rolling_horizon(
    net,
    load_profile,
    price_profile=None,
    storages: list[Storage] | None = None,
    window: int = 4,
    dt_hours: float = 1.0,
    solver: str = "admm",
    config: ADMMConfig | None = None,
    backend=None,
    precision: str | None = None,
) -> HorizonResult:
    """Run the receding-horizon schedule over the whole profile.

    Parameters
    ----------
    window:
        Lookahead length W; each solve sees ``min(W, periods left)``
        periods and commits one.
    solver:
        ``"admm"`` for the consensus solver, ``"reference"`` for exact
        HiGHS window solves.

    Raises
    ------
    FormulationError
        On an empty profile or a non-positive window.
    """
    load_profile = np.asarray(load_profile, dtype=HOST_DTYPE)
    n_periods = int(load_profile.size)
    if n_periods == 0:
        raise FormulationError("load_profile must be non-empty")
    if window < 1:
        raise FormulationError("window must be at least 1")
    if solver not in ("admm", "reference"):
        raise FormulationError(f"unknown solver {solver!r}")
    if price_profile is None:
        price_profile = np.ones(n_periods, dtype=HOST_DTYPE)
    price_profile = np.asarray(price_profile, dtype=HOST_DTYPE)
    storages = list(storages or [])

    # Window storages lose the cyclic terminal condition and carry the
    # committed SoC forward step by step.
    soc = {st.name: float(st.soc0) for st in storages}
    steps: list[HorizonStep] = []
    committed_cost = 0.0
    for t in range(n_periods):
        w = min(window, n_periods - t)
        # The committed SoC can sit a solver-feasibility-tolerance outside
        # the capacity box; clamp so the next window's soc0 validates.
        window_storages = [
            replace(
                st,
                soc0=min(max(soc[st.name], 0.0), st.energy_max),
                cyclic=False,
            )
            for st in storages
        ]
        prob = build_multiperiod_lp(
            net,
            load_profile[t : t + w],
            price_profile[t : t + w],
            window_storages,
            dt_hours=dt_hours,
        )
        if solver == "reference":
            ref = solve_reference(prob.to_centralized())
            x, objective, iterations, converged = ref.x, float(ref.objective), 0, True
        else:
            admm = ConicSolverFreeADMM(
                decompose_multiperiod(prob),
                config if config is not None else ADMMConfig(),
                backend=backend,
                precision=precision,
            )
            result = admm.solve()
            x, objective = result.x, float(result.objective)
            iterations, converged = result.iterations, result.converged

        # Commit period 0 of the window and advance the SoC dynamics.
        vi = prob.var_index
        storage_p, charge, discharge, soc_after = {}, {}, {}, {}
        for st in window_storages:
            phases = net.buses[st.bus].phases
            nm = _suffix(st.name, 0)
            ch = sum(float(x[vi.index(("sc", nm, phi))]) for phi in phases)
            dis = sum(float(x[vi.index(("sd", nm, phi))]) for phi in phases)
            charge[st.name] = ch
            discharge[st.name] = dis
            storage_p[st.name] = dis - ch
            soc[st.name] = (
                soc[st.name]
                + dt_hours * st.eta_ch * ch
                - dt_hours * dis / st.eta_dis
            )
            soc_after[st.name] = soc[st.name]
        sub_p = float(prob.substation_power(x)[0])
        step_cost = 0.0
        for gen in net.generators_at(net.substation):
            nm = _suffix(gen.name, 0)
            for phi in gen.phases:
                step_cost += (
                    gen.cost
                    * float(price_profile[t])
                    * dt_hours
                    * float(x[vi.index(("pg", nm, phi))])
                )
        committed_cost += step_cost
        steps.append(
            HorizonStep(
                period=t,
                objective_window=objective,
                iterations=iterations,
                converged=converged,
                substation_p=sub_p,
                storage_p=storage_p,
                storage_charge=charge,
                storage_discharge=discharge,
                soc_after=soc_after,
            )
        )
    return HorizonResult(
        steps=steps,
        storages=storages,
        dt_hours=dt_hours,
        committed_cost=committed_cost,
    )
