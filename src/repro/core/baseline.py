"""The paper's benchmark: solver-based ADMM on model (8) (Section V-B).

Identical global and dual updates to Algorithm 1 — but the bound
constraints stay *inside* the component subproblems, so

* the global update is the **unclipped** minimizer ``x_hat`` of (10), and
* every local update must solve the box-constrained QP

      min 1/2 rho ||x_s||^2 + d_s^T x_s   s.t.  A_s x_s = b_s,
                                                lb_s <= x_s <= ub_s,

  which has no closed form and requires an optimization solver per
  component per iteration — the cost the paper's figures attribute to
  existing component-wise ADMM methods.

Two local execution modes:

* ``"interior_point"`` (default): the authentic path; calls the dense
  interior-point solver of :mod:`repro.qp` for every component, so measured
  wall time reflects real solver cost.
* ``"projection"``: a fast exact path (semismooth-Newton projection) that
  produces the *same iterate sequence* — used to count iterations on large
  instances where running thousands of solver-based iterations is
  impractical on this machine.  Timing benchmarks never use it.

The iteration skeleton is :class:`repro.core.loop.ADMMLoop` and the
shared updates are :class:`repro.core.consensus.ConsensusADMM`'s; this
class supplies the benchmark's local box-QPs.  The per-component QP solves are
always fp64 (SciPy); under an fp32 backend only the consensus state is
reduced precision.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import resolve_backend
from repro.core.config import ADMMConfig
from repro.core.consensus import ConsensusADMM, stack_offsets
from repro.decomposition.decomposed import DecomposedOPF
from repro.qp.interior_point import solve_qp_box_eq
from repro.qp.projection import project_box_affine
from repro.telemetry import NULL_TRACER


class BenchmarkADMM(ConsensusADMM):
    """Solver-based component ADMM (the paper's comparison baseline)."""

    algorithm_name = "benchmark ADMM (solver-based)"
    # The baseline deliberately runs the plain algorithm: no
    # over-relaxation, no residual balancing — and its global update is
    # the unclipped x_hat of (10), the bounds living in the local QPs.
    use_relaxation = False
    supports_balancing = False
    clip_global = False

    def __init__(
        self,
        dec: DecomposedOPF,
        config: ADMMConfig | None = None,
        local_mode: str = "interior_point",
        tracer=None,
        backend=None,
        precision: str | None = None,
    ):
        if local_mode not in ("interior_point", "projection"):
            raise ValueError(f"unknown local_mode {local_mode!r}")
        super().__init__(
            dec.lp, dec.global_cols, dec.counts, config,
            tracer=tracer if tracer is not None else NULL_TRACER,
            backend=resolve_backend(backend, precision),
        )
        self.dec = dec
        self.local_mode = local_mode
        self._bind_local(dec, 1, None)

    @classmethod
    def stacked(cls, dec, models, projections, backend=None):
        """Stacked batches run the closed-form ``projection`` mode."""
        solver = super().stacked(dec, models, projections, backend=backend)
        solver.local_mode = "projection"
        return solver

    def _bind_local(self, dec, k_n, projections) -> None:
        # Reduced (A_s, b_s) per component and the box gathered through
        # the consensus map (scenario k's bounds for its own copies).
        self.systems = (
            projections if projections is not None
            else [(c.a, c.b) for c in dec.components]
        )
        self.local_offsets = stack_offsets(dec.offsets, k_n)
        self.local_lb = self.problem.lb[self.global_cols]
        self.local_ub = self.problem.ub[self.global_cols]

    def solve_local(self, s: int, v_s: np.ndarray, rho: float) -> np.ndarray:
        """Solve component ``s``'s box-constrained QP for target ``v_s``."""
        a, b = self.systems[s]
        sl = slice(int(self.local_offsets[s]), int(self.local_offsets[s + 1]))
        lb, ub = self.local_lb[sl], self.local_ub[sl]
        if self.local_mode == "projection":
            return project_box_affine(v_s, a, b, lb, ub)
        n_s = v_s.shape[0]
        result = solve_qp_box_eq(
            rho * np.eye(n_s), -rho * v_s, a, b, lb, ub, tol=self.config.qp_tol
        )
        return result.x

    def project(self, v, rho):
        """Every component's box-QP (its exact projection), solved on the
        host in fp64 whatever the backend."""
        v = self.backend.to_numpy(v)
        z = self.backend.empty(self.n_local)
        off = self.local_offsets
        for s in range(len(self.systems)):
            sl = slice(int(off[s]), int(off[s + 1]))
            z[sl] = self.solve_local(s, v[sl], rho)
        return z

    def span_args(self) -> dict:
        return {"n_vars": self.n, "local_mode": self.local_mode}

    def _refinement_solver(self, backend) -> "BenchmarkADMM":
        return type(self)(
            self.dec, self.config, local_mode=self.local_mode,
            tracer=self.tracer, backend=backend,
        )

    # ------------------------------------------------------------------
    def measure_local_costs(self, repeats: int = 3, rho: float | None = None) -> np.ndarray:
        """Measured seconds of one authentic (interior-point) local solve per
        component — the benchmark's per-agent unit of work."""
        rho = self.config.rho if rho is None else rho
        rng = np.random.default_rng(0)
        costs = np.empty(self.dec.n_components)
        for s, comp in enumerate(self.dec.components):
            v = rng.standard_normal(comp.n_vars) * 0.1
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                solve_qp_box_eq(
                    rho * np.eye(comp.n_vars),
                    -rho * v,
                    comp.a,
                    comp.b,
                    comp.lb,
                    comp.ub,
                    tol=self.config.qp_tol,
                )
                best = min(best, time.perf_counter() - t0)
            costs[s] = best
        return costs
