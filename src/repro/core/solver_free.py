"""The paper's core contribution: solver-free ADMM (Algorithm 1).

One iteration consists of three closed-form stages over the stacked
consensus structure of Section IV-C:

* **global update** (13)/(18): a scatter-add of the local solutions and
  duals, a diagonal scaling by the copy counts ``diag(B^T B)``, and a clip
  to the global bounds — the *only* place the bound constraints (9d) live
  (shared by every rung, :mod:`repro.core.consensus`);
* **local update** (15): one batched affine projection per component
  (``repro.core.batch``), replacing the per-component QP solver of the
  benchmark with a matrix-vector product;
* **dual update** (12)/(19).

Termination follows the relative primal/dual criterion (16).  The
iteration skeleton lives in :class:`repro.core.loop.ADMMLoop` and the
shared global/dual updates and solve driver in
:class:`repro.core.consensus.ConsensusADMM`; this class supplies
Algorithm 1's local operator and runs on any
:class:`repro.backend.Backend` — fp64 NumPy (default, bit-identical to
the historical implementation), fp32 with the automatic fp64-refinement
fallback, or CuPy.  Warm starting from a previous result is supported,
which the dynamic-topology examples rely on.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import resolve_backend
from repro.core.batch import BatchedLocalSolver
from repro.core.config import ADMMConfig
from repro.core.consensus import ConsensusADMM, stack_offsets
from repro.core.rho import ResidualBalancer
from repro.decomposition.decomposed import DecomposedOPF
from repro.telemetry import NULL_TRACER


class SolverFreeADMM(ConsensusADMM):
    """Algorithm 1 on a decomposed OPF model.

    Parameters
    ----------
    dec:
        The decomposed model (9).
    config:
        Hyper-parameters; defaults to the paper's settings.
    tracer:
        Optional :class:`repro.telemetry.Tracer`; when enabled, every
        iteration's global/local/dual/residual phases become spans (from
        the ``perf_counter`` stamps the phase timers take anyway).
    backend:
        Array-execution backend (instance or registry name); defaults to
        the process default (``$REPRO_BACKEND`` or ``numpy64``).
    precision:
        Optional ``fp64`` / ``fp32`` / ``mixed`` overlay on the backend's
        dtype policy.

    Examples
    --------
    >>> from repro.feeders import ieee13
    >>> from repro.formulation import build_centralized_lp
    >>> from repro.decomposition import decompose
    >>> lp = build_centralized_lp(ieee13())
    >>> result = SolverFreeADMM(decompose(lp)).solve()
    >>> result.converged
    True
    """

    algorithm_name = "solver-free ADMM"

    def __init__(
        self,
        dec: DecomposedOPF,
        config: ADMMConfig | None = None,
        tracer=None,
        backend=None,
        precision: str | None = None,
    ):
        super().__init__(
            dec.lp, dec.global_cols, dec.counts, config,
            tracer=tracer if tracer is not None else NULL_TRACER,
            backend=resolve_backend(backend, precision),
        )
        self.dec = dec
        # Precomputation (Algorithm 1, lines 2-3): rho-independent.
        self._bind_local(dec, 1, None)
        self._balancer = ResidualBalancer(
            mu=self.config.balancing_mu,
            tau=self.config.balancing_tau,
            every=self.config.balancing_every,
        )

    def _bind_local(self, dec, k_n, projections) -> None:
        self.local_solver = BatchedLocalSolver.from_parts(
            dec.components * k_n, stack_offsets(dec.offsets, k_n),
            projections=projections, backend=self.backend,
        )

    def project(self, v, rho):
        """Eq. (15): one batched affine projection per component (the
        bounds live in the global clip, so ``rho`` drops out)."""
        return self.local_solver.solve(v)

    def span_args(self) -> dict:
        return {"n_vars": self.n, "n_components": self.local_solver.n_components}

    def _refinement_solver(self, backend) -> "SolverFreeADMM":
        return type(self)(self.dec, self.config, tracer=self.tracer, backend=backend)

    # ------------------------------------------------------------------
    # Instrumentation for the parallel/GPU performance studies
    # ------------------------------------------------------------------
    def measure_local_costs(self, repeats: int = 5) -> np.ndarray:
        """Measured wall seconds of one *un-batched* local update per
        component (the unit of work a CPU agent performs each iteration).

        Used by the simulated cluster to replay per-rank compute time.
        """
        rng = np.random.default_rng(0)
        costs = np.empty(self.dec.n_components)
        for s in range(self.dec.n_components):
            n_s = int(self.local_solver.sizes[s])
            v = rng.standard_normal(n_s)
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                self.local_solver.solve_one(s, v)
                best = min(best, time.perf_counter() - t0)
            costs[s] = best
        return costs
