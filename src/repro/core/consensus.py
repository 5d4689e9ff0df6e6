"""The consensus-ADMM rules every fidelity rung shares, written once.

Each rung of the ladder — solver-free Algorithm 1, the solver-based
benchmark, the conic extension — is the same consensus ADMM over the
stacked structure of Section IV-C and differs only in its *local*
operator.  :class:`ConsensusADMM` owns everything else:

* the layout: ``n``, ``n_local``, the gather index ``gcols`` (the 0-1
  matrix ``B`` of (17)), the copy ``counts`` ``diag(B^T B)`` and the
  problem's ``c``, ``lb``, ``ub``;
* the global update (18), clipped to the bounds (9d) unless the rung
  keeps them in its local subproblems;
* the dual update (19);
* the initial or warm-start state, with shape validation;
* ``solve`` and the fp64-refinement continuation of a stalled fp32 run.

A K-scenario serving batch is Algorithm 1 on a block-diagonal instance,
so it is the same rung solver over K-stacked data (:meth:`ConsensusADMM.
stacked`); :class:`ScenarioBatch` adds the per-scenario termination as a
residual hook.  Per-scenario rho enters as stacked vectors in exactly the
expressions where a single solve uses its scalar rho.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import refinement_backend, resolve_backend
from repro.backend.policy import HOST_DTYPE
from repro.core.config import ADMMConfig
from repro.core.loop import ADMMLoop, IterationStrategy, LoopOutcome
from repro.core.results import ADMMResult


def stack_offsets(offsets, k_n: int) -> np.ndarray:
    """Component slice boundaries of ``k_n`` scenario-major copies."""
    sizes = np.tile(np.diff(np.asarray(offsets, dtype=np.int64)), k_n)
    return np.concatenate([[0], np.cumsum(sizes)])


class StackedProblem:
    """K same-layout problems as one block-diagonal model (scenario-major).

    Each part needs ``n_vars``, ``cost``, ``lb``, ``ub`` and
    ``initial_point()`` — the interface of both the LP (7) and the conic
    model.
    """

    def __init__(self, parts):
        self.parts = list(parts)
        self.n_vars = sum(p.n_vars for p in self.parts)
        self.cost = np.concatenate([p.cost for p in self.parts])
        self.lb = np.concatenate([p.lb for p in self.parts])
        self.ub = np.concatenate([p.ub for p in self.parts])

    def initial_point(self) -> np.ndarray:
        return np.concatenate([p.initial_point() for p in self.parts])


class ConsensusADMM(IterationStrategy):
    """Shared layout, global/dual updates and solve driver of one rung.

    Subclasses supply :meth:`project` — the rung's local operator applied
    to ``v = B x + lam / rho`` — and :meth:`_refinement_solver`.
    """

    #: Clip the global update to ``[lb, ub]``; the benchmark rung keeps
    #: the bounds in its local box-QPs and turns this off.
    clip_global = True
    #: A stalled fp32 run may continue under an fp64 twin.
    refinement_supported = True
    #: Loop settings (each rung keeps its historical ones).
    record_timers = True
    phase_spans = True
    watch_stall = True
    #: Stacked per-scenario rho of a batch (local / global length); a
    #: single solve leaves them ``None`` and uses its scalar rho.
    rho_l = None
    rho_g = None
    _balancer = None

    def __init__(self, problem, global_cols, counts, config=None, tracer=None,
                 backend=None):
        self.problem = problem
        self.config = config or ADMMConfig()
        self.tracer = tracer
        self.backend = b = resolve_backend(backend)
        self.n = int(problem.n_vars)
        self.c = b.asarray(problem.cost)
        self.lb = b.asarray(problem.lb)
        self.ub = b.asarray(problem.ub)
        self.global_cols = np.asarray(global_cols, dtype=np.int64)
        self.gcols = b.index_array(self.global_cols)
        self.n_local = int(self.global_cols.size)
        self.counts = b.asarray(counts)

    @classmethod
    def stacked(cls, dec, models, projections, backend=None):
        """This rung over ``len(models)`` same-topology scenarios.

        ``dec`` is the shared decomposition, ``models`` the scenarios'
        perturbed problems and ``projections`` the K·S cached local
        systems in scenario-major order (what :meth:`_bind_local` of the
        rung consumes).  The union of independent scenarios is itself an
        instance of Algorithm 1, so the update rules are the single
        solve's.
        """
        k_n = len(models)
        self = cls.__new__(cls)
        n = models[0].n_vars
        gcols = np.concatenate([dec.global_cols + k * n for k in range(k_n)])
        ConsensusADMM.__init__(
            self, StackedProblem(models), gcols, np.tile(dec.counts, k_n),
            backend=backend,
        )
        self.dec = dec
        self._bind_local(dec, k_n, projections)
        return self

    def _bind_local(self, dec, k_n: int, projections) -> None:
        """Build the local operator over ``k_n`` copies of ``dec``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Update rules
    # ------------------------------------------------------------------
    def _rhos(self, rho):
        if self.rho_l is None:
            return rho, rho
        return self.rho_l, self.rho_g

    def global_update(self, z, lam, rho):
        """Eq. (18): scatter-add, scale by the copy counts, clip."""
        b = self.backend
        rho_l, rho_g = self._rhos(rho)
        scatter = b.scatter_add(self.gcols, z - lam / rho_l, self.n)
        xhat = (scatter - self.c / rho_g) / self.counts
        return b.clip(xhat, self.lb, self.ub) if self.clip_global else xhat

    def project(self, v, rho):
        """The rung's local operator on ``v = B x + lam / rho``."""
        raise NotImplementedError

    def local_update(self, bx, lam, rho):
        """Eq. (15): the local operator at ``v = B x + lam / rho``."""
        return self.project(bx + lam / self._rhos(rho)[0], rho)

    def dual_update(self, lam, bx, z, rho):
        """Eq. (19)."""
        return lam + self._rhos(rho)[0] * (bx - z)

    # Engine hooks (repro.core.loop)
    def global_step(self, z, lam, rho):
        return self.global_update(z, lam, rho)

    def local_step(self, bx_eff, z_prev, lam, rho):
        return self.local_update(bx_eff, lam, rho)

    def dual_step(self, lam, bx_eff, z, rho):
        return self.dual_update(lam, bx_eff, z, rho)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def initial_state(self, x0=None, z0=None, lam0=None):
        """Paper's initialization (line 1), or a warm start if given."""
        b = self.backend
        x = (
            b.from_numpy(self.problem.initial_point())
            if x0 is None
            else b.asarray(x0, copy=True)
        )
        if x.shape != (self.n,):
            raise ValueError("warm-start vectors have inconsistent shapes")
        z = x[self.gcols].copy() if z0 is None else b.asarray(z0, copy=True)
        lam = b.zeros(self.n_local) if lam0 is None else b.asarray(lam0, copy=True)
        if z.shape != (self.n_local,) or lam.shape != (self.n_local,):
            raise ValueError("warm-start vectors have inconsistent shapes")
        return x, z, lam

    def _make_loop(self, *, watch_stall: bool = True) -> ADMMLoop:
        return ADMMLoop(
            self,
            self.config,
            backend=self.backend,
            tracer=self.tracer,
            record_timers=self.record_timers,
            phase_spans=self.phase_spans,
            balancer=self._balancer,
            watch_stall=watch_stall and self.watch_stall,
        )

    def solve(
        self,
        x0=None,
        z0=None,
        lam0=None,
        max_iter: int | None = None,
        callback=None,
    ) -> ADMMResult:
        """Iterate until (16) holds or the iteration budget is hit.

        Parameters
        ----------
        x0, z0, lam0:
            Optional warm start (e.g. a previous :class:`ADMMResult`'s
            ``x``, ``z``, ``lam``).
        max_iter:
            Override the configured budget.
        callback:
            Optional ``callback(iteration, x, z, lam, residuals)`` invoked
            every iteration.

        Raises
        ------
        ValueError
            If the warm-start vectors do not match the layout.
        ConvergenceError
            Only if ``config.raise_on_max_iter`` and the budget is exhausted.
        DivergenceError
            If ``config.divergence_guard`` and an iterate goes non-finite;
            the error carries the best (last finite) state as ``result``.

        Notes
        -----
        Under a backend whose precision policy enables refinement (the
        ``numpy32`` default), a run whose relative residuals stall above
        tolerance is continued in fp64, warm-started from the fp32
        iterate; the returned result merges both segments.
        """
        budget = self.config.max_iter if max_iter is None else max_iter
        x, z, lam = self.initial_state(x0, z0, lam0)
        if self._balancer is not None:
            self._balancer.reset()
        loop = self._make_loop()
        outcome = loop.run(x, z, lam, budget=budget, callback=callback)
        if outcome.stalled and self.refinement_supported:
            return self._refine(loop, outcome, budget, callback)
        return loop.result(outcome)

    def _refinement_solver(self, backend) -> "ConsensusADMM | None":
        """An fp64 twin of this solver for the refinement continuation."""
        return None

    def _refine(
        self, loop: ADMMLoop, outcome: LoopOutcome, budget: int, callback
    ) -> ADMMResult:
        """Continue a stalled low-precision solve in fp64.

        Classic ADMM-level iterative refinement: the fp32 iterate is a
        good warm start, and the fp64 continuation recovers the digits
        fp32 rounding cannot represent.
        """
        remaining = budget - outcome.iterations
        twin = self._refinement_solver(refinement_backend(self.backend))
        if remaining <= 0 or twin is None:
            return loop.result(outcome)
        b = self.backend
        x64, z64, lam64 = twin.initial_state(
            b.to_numpy(outcome.x), b.to_numpy(outcome.z), b.to_numpy(outcome.lam)
        )
        if twin._balancer is not None:
            twin._balancer.reset()
        loop64 = twin._make_loop(watch_stall=False)
        out64 = loop64.run(x64, z64, lam64, budget=remaining, callback=callback)
        result = loop64.result(out64)
        result.iterations += outcome.iterations
        if outcome.history is not None and out64.history is not None:
            merged = outcome.history
            for name in ("pres", "dres", "eps_prim", "eps_dual", "rho"):
                getattr(merged, name).extend(getattr(out64.history, name))
            result.history = merged
        timers = dict(outcome.timers)
        for key, val in result.timers.items():
            timers[key] = timers.get(key, 0.0) + val
        result.timers = timers
        result.algorithm = f"{self.algorithm_name} (fp32 + fp64 refinement)"
        return result


class BatchStatus:
    """The residual view the loop sees for a stacked batch: scalar
    aggregates for tracing plus ``converged`` = every scenario retired
    (converged, budget-exhausted, timed out or diverged)."""

    __slots__ = ("pres", "dres", "eps_prim", "eps_dual", "converged", "finite")

    def __init__(self, pres, dres, eps_prim, eps_dual, converged):
        self.pres = pres
        self.dres = dres
        self.eps_prim = eps_prim
        self.eps_dual = eps_dual
        self.converged = converged
        self.finite = True


#: Loop config of a batch.  Per-scenario options replace the usual
#: hyper-parameters, so only the control-flow flags matter: no history,
#: no engine-level divergence guard (a non-finite scenario is isolated
#: instead), and budget exhaustion is a status, never an exception.
_BATCH_CONFIG = ADMMConfig(record_history=False, divergence_guard=False)


class ScenarioBatch:
    """Per-scenario termination of a rung solver over K-stacked data.

    Each scenario owns its rho / eps_rel / budget / deadline and is
    retired independently: its residuals (16) are computed on its own
    slices, its solution snapshot freezes the iteration it finishes, and
    a non-finite iterate retires only that scenario (``diverged``) and
    resets its slices to the cold start so no NaN survives.  Construction
    sets the solver's stacked rho vectors, ``k_n`` and ``residuals``, and
    labels its ``admm.solve`` span as a stacked run over ``scenarios``.

    Parameters
    ----------
    solver:
        A :meth:`ConsensusADMM.stacked` rung solver.
    rho, eps_rel, max_iter, deadline_at:
        Per-scenario settings (``deadline_at`` absolute on
        :func:`time.perf_counter`, ``inf`` for none).
    check_every:
        Deadline sweep period in iterations.
    injector, targets:
        Optional fault injector (``begin_iteration`` / ``corrupt``) and
        the per-scenario target names it corrupts by.
    """

    def __init__(self, solver, rho, eps_rel, max_iter, deadline_at, *,
                 check_every: int = 1, injector=None, targets=None):
        b = solver.backend
        self.solver = solver
        self.rho = np.asarray(rho, dtype=HOST_DTYPE)
        self.eps_rel = np.asarray(eps_rel, dtype=HOST_DTYPE)
        self.max_iter = np.asarray(max_iter, dtype=np.int64)
        k_n = self.k_n = len(self.rho)
        self.n = solver.n // k_n
        self.n_local = solver.n_local // k_n
        # rho enters the iterates in the compute dtype (no silent fp64
        # promotion under fp32); the host fp64 copy feeds the residuals.
        solver.rho_l = b.asarray(np.repeat(self.rho, self.n_local))
        solver.rho_g = b.asarray(np.repeat(self.rho, self.n))
        solver.k_n = k_n
        solver.residuals = self.residuals
        solver.algorithm_name = f"stacked {solver.algorithm_name}"
        solver.span_args = lambda: {"scenarios": k_n, "n_vars": solver.n}
        self.deadline_at = np.asarray(deadline_at, dtype=HOST_DTYPE)
        self.has_deadline = bool(np.isfinite(self.deadline_at).any())
        self.check_every = int(check_every)
        self.injector = injector
        self.targets = targets
        #: The cold start of every scenario; also a diverged one's reset.
        self.cold = solver.initial_state()
        self.done = np.zeros(k_n, dtype=bool)
        self.iters = np.zeros(k_n, dtype=np.int64)
        self.conv = np.zeros(k_n, dtype=bool)
        self.pres_at = np.full(k_n, np.inf)
        self.dres_at = np.full(k_n, np.inf)
        self.diverged = np.zeros(k_n, dtype=bool)
        self.timed_out = np.zeros(k_n, dtype=bool)
        self.snap_x = self.snap_z = self.snap_lam = None

    def run(self, x, z, lam, tracer=None) -> LoopOutcome:
        """Iterate until every scenario is retired.  The initial state
        seeds the snapshots reported for scenarios that never converge."""
        self.snap_x, self.snap_z, self.snap_lam = x.copy(), z.copy(), lam.copy()
        loop = ADMMLoop(
            self.solver,
            _BATCH_CONFIG,
            backend=self.solver.backend,
            tracer=tracer,
            record_timers=False,
            watch_stall=False,
        )
        return loop.run(
            x, z, lam, budget=int(self.max_iter.max()), rho=float(self.rho[0])
        )

    def slices(self, k: int) -> tuple[slice, slice]:
        """Scenario ``k``'s (global, local) slices of the stacked state."""
        n, n_local = self.n, self.n_local
        return slice(k * n, (k + 1) * n), slice(k * n_local, (k + 1) * n_local)

    def residuals(self, iteration, x, bx, z, z_prev, lam, rho) -> BatchStatus:
        """Per-scenario residuals (16) plus the retirement bookkeeping:
        scenario-major slices reshape cleanly to ``(K, n_local)``."""
        done = self.done
        if self.injector is not None:
            # Chaos hook: seeded NaN corruption of a live scenario's local
            # iterate, applied to that scenario's own slice only.
            self.injector.begin_iteration(iteration)
            for k in np.flatnonzero(~done):
                self.injector.corrupt(z[self.slices(k)[1]], self.targets[k])
        b = self.solver.backend
        xp = b.xp
        acc = b.accumulate_dtype
        shape = (self.k_n, self.n_local)
        diff = (bx - z).reshape(shape).astype(acc, copy=False)
        move = (z - z_prev).reshape(shape).astype(acc, copy=False)
        pres = b.to_numpy(xp.linalg.norm(diff, axis=1))
        dres = self.rho * b.to_numpy(xp.linalg.norm(move, axis=1))
        norm_bx = xp.linalg.norm(bx.reshape(shape).astype(acc, copy=False), axis=1)
        norm_z = xp.linalg.norm(z.reshape(shape).astype(acc, copy=False), axis=1)
        eps_prim = self.eps_rel * b.to_numpy(xp.maximum(norm_bx, norm_z))
        eps_dual = self.eps_rel * b.to_numpy(
            xp.linalg.norm(lam.reshape(shape).astype(acc, copy=False), axis=1)
        )
        # Divergence isolation: a non-finite iterate retires its scenario
        # immediately (for retry/degradation by the caller) and its slices
        # are reset so no NaN survives into later iterations.
        bad = ~done & ~(np.isfinite(pres) & np.isfinite(dres))
        if bad.any():
            self.diverged |= bad
            done |= bad
            self.iters[bad] = iteration
            x_cold, z_cold, _ = self.cold
            for k in np.flatnonzero(bad):
                gs, ls = self.slices(k)
                x[gs] = x_cold[gs]
                z[ls] = z_cold[ls]
                lam[ls] = 0.0
        # Deadline sweep: cheap, so only every `check_every` iterations.
        if self.has_deadline and iteration % self.check_every == 0:
            late = ~done & (self.deadline_at < time.perf_counter())
            if late.any():
                self.timed_out |= late
                done |= late
                self.iters[late] = iteration
        converged_now = (pres <= eps_prim) & (dres <= eps_dual)
        newly = ~done & (converged_now | (iteration >= self.max_iter))
        if newly.any():
            self.conv |= newly & converged_now
            self.iters[newly] = iteration
            self.pres_at[newly] = pres[newly]
            self.dres_at[newly] = dres[newly]
            for k in np.flatnonzero(newly):
                gs, ls = self.slices(k)
                self.snap_x[gs], self.snap_z[ls], self.snap_lam[ls] = (
                    x[gs], z[ls], lam[ls],
                )
            done |= newly
        return BatchStatus(
            pres=float(pres.max()),
            dres=float(dres.max()),
            eps_prim=float(eps_prim.min()),
            eps_dual=float(eps_dual.min()),
            converged=bool(done.all()),
        )
