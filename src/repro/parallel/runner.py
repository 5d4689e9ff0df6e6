"""Rank-explicit distributed execution of Algorithm 1 over simulated MPI.

Where :class:`~repro.parallel.cluster.SimulatedCluster` *models* iteration
time from component costs, this runner actually *executes* the distributed
protocol of the paper's Section IV-E, rank by rank:

1. the aggregator (rank 0) scatters each rank's slice of ``B x``;
2. every rank performs its components' closed-form local updates and its
   dual updates, with its *measured* compute seconds charged to its own
   virtual clock;
3. the aggregator gathers the rank-local ``(z, lambda)`` slices and runs
   the global update and the termination test.

The produced iterates are bit-identical to the serial
:class:`~repro.core.solver_free.SolverFreeADMM` (tested), and the run
additionally yields a per-iteration timeline (compute vs communication per
rank) — the raw material of the paper's Fig. 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.backend import get_backend
from repro.core.batch import BatchedLocalSolver
from repro.core.config import ADMMConfig
from repro.core.consensus import ConsensusADMM
from repro.core.residuals import compute_residuals
from repro.core.results import ADMMResult
from repro.decomposition.decomposed import DecomposedOPF
from repro.parallel.assignment import assign_even, rank_partition
from repro.parallel.comm import CommModel
from repro.parallel.mpi_sim import SimComm
from repro.telemetry import TRACK_CLUSTER, NULL_TRACER


@dataclass
class IterationTimeline:
    """Per-iteration simulated timing of a distributed run."""

    total_s: list[float] = field(default_factory=list)
    compute_max_s: list[float] = field(default_factory=list)

    def append(self, total: float, compute_max: float) -> None:
        self.total_s.append(total)
        self.compute_max_s.append(compute_max)

    @property
    def mean_iteration_s(self) -> float:
        return sum(self.total_s) / len(self.total_s) if self.total_s else 0.0

    @property
    def mean_comm_s(self) -> float:
        if not self.total_s:
            return 0.0
        comm = [t - c for t, c in zip(self.total_s, self.compute_max_s)]
        return sum(comm) / len(comm)


def rank_local_dual(runner, comps, bx_r, lam_r, rho):
    """One rank's local (15) and dual (19) updates over its contiguous
    components: the local solves un-batched (the CPU-agent execution
    path), the dual update the runner's shared rule on the rank's slice."""
    offsets, local_solver = runner.dec.offsets, runner.local_solver
    z_r = np.empty(bx_r.size)
    pos = 0
    for s in comps:
        n_s = int(offsets[s + 1] - offsets[s])
        v_s = bx_r[pos : pos + n_s] + lam_r[pos : pos + n_s] / rho
        z_r[pos : pos + n_s] = local_solver.solve_one(s, v_s)
        pos += n_s
    return z_r, runner.dual_update(lam_r, bx_r, z_r, rho)


@dataclass
class DistributedRunResult:
    """Outcome of a simulated-MPI distributed solve."""

    result: ADMMResult
    timeline: IterationTimeline
    n_ranks: int
    simulated_total_s: float


class DistributedADMMRunner(ConsensusADMM):
    """Execute Algorithm 1 through the simulated MPI communicator.

    Parameters
    ----------
    dec:
        The decomposed model.
    n_ranks:
        Worker rank count; rank 0 doubles as the aggregator, matching the
        paper's server/agents architecture.
    comm_model:
        Interconnect model for all messages.
    config:
        ADMM settings (the relaxation/balancing extensions are not
        supported here; plain Algorithm 1 only).
    tracer:
        Optional :class:`repro.telemetry.Tracer`; when enabled, every
        rank's compute and communication intervals become spans on the
        ``cluster-sim`` track (one lane per rank, virtual-clock time) —
        the raw material of the paper's Fig. 1 rendered in Perfetto.

    The iteration skeleton is :class:`repro.core.loop.ADMMLoop` and the
    global update (18) the shared :class:`~repro.core.consensus.
    ConsensusADMM` one; this class supplies the rank-explicit hooks
    (fused local+dual update on per-rank virtual clocks, aggregator-side
    residuals, barrier, timeline).  The
    backend is pinned to ``numpy64``: the per-rank un-batched path must
    reproduce the serial batched iterates bit-for-bit, which fp32 matmul
    batching does not guarantee.
    """

    algorithm_name = "solver-free ADMM (simulated MPI)"
    use_relaxation = False
    supports_balancing = False
    # Virtual clocks replace wall timers; rank spans replace phase spans.
    record_timers = False
    phase_spans = False
    watch_stall = False

    def __init__(
        self,
        dec: DecomposedOPF,
        n_ranks: int,
        comm_model: CommModel,
        config: ADMMConfig | None = None,
        tracer=None,
    ):
        super().__init__(
            dec.lp, dec.global_cols, dec.counts, config,
            tracer=tracer if tracer is not None else NULL_TRACER,
            backend=get_backend("numpy64"),
        )
        if self.config.relaxation != 1.0 or self.config.residual_balancing:
            raise ValueError("the distributed runner executes plain Algorithm 1 only")
        self.dec = dec
        self.local_solver = BatchedLocalSolver.from_decomposition(dec)
        self.owner = assign_even(dec.n_components, n_ranks)
        self.n_ranks = int(self.owner.max()) + 1
        self.comm_model = comm_model
        # Per-rank stacked index ranges (components are contiguous per rank).
        self._rank_components, self._rank_slices = rank_partition(
            dec.offsets, self.owner, self.n_ranks
        )

    # ------------------------------------------------------------------
    # Virtual-clock trace helpers
    # ------------------------------------------------------------------
    def _trace_rank(self, name: str, rank: int, start_s: float, end_s: float) -> None:
        if end_s > start_s:
            self.tracer.add_modeled(
                name,
                start_s,
                end_s - start_s,
                track=TRACK_CLUSTER,
                tid=rank,
                cat="cluster",
            )

    def _trace_collective(self, name: str, clocks_before: np.ndarray) -> None:
        for r in range(self.n_ranks):
            self._trace_rank(
                name, r, float(clocks_before[r]), float(self._comm.clocks[r])
            )

    # ------------------------------------------------------------------
    # Engine hooks (repro.core.loop)
    # ------------------------------------------------------------------
    def on_iteration_start(self, iteration, z, lam, rho):
        self._t_start = self._comm.elapsed()
        return z, lam

    def global_step(self, z, lam, rho):
        """Aggregator: global update (13)/(18), charged to rank 0's clock."""
        comm = self._comm
        clock0 = float(comm.clocks[0])
        t0 = time.perf_counter()
        x = self.global_update(z, lam, rho)
        # The consensus gather happens on the aggregator, inside its
        # timed block; the engine's gather() just reads it back.
        self._bx = x[self.gcols]
        comm.advance(0, time.perf_counter() - t0)
        if self.tracer:
            self._trace_rank("rank.global_update", 0, clock0, float(comm.clocks[0]))
        return x

    def gather(self, x):
        return self._bx

    def local_dual_step(self, bx_eff, z_prev, lam, rho):
        """Scatter, per-rank local + dual updates, gather — on rank clocks."""
        comm, dec, tracer = self._comm, self.dec, self.tracer

        # Scatter each rank's B_s x slice (server -> agents).
        parts = [bx_eff[idx] for idx in self._rank_slices]
        clocks_before = comm.clocks.copy()
        received = comm.scatterv(0, parts)
        if tracer:
            self._trace_collective("comm.scatter", clocks_before)

        # Agents: local + dual updates on their own clocks.
        compute_times = np.zeros(self.n_ranks)
        z_parts: dict[int, np.ndarray] = {}
        lam_parts: dict[int, np.ndarray] = {}
        for r in range(self.n_ranks):
            idx = self._rank_slices[r]
            bx_r = received[r]
            lam_r = lam[idx]
            clock_r = float(comm.clocks[r])
            t0 = time.perf_counter()
            z_r, lam_r = rank_local_dual(
                self, self._rank_components[r], bx_r, lam_r, rho
            )
            dt = time.perf_counter() - t0
            comm.advance(r, dt)
            if tracer:
                self._trace_rank("rank.local_update", r, clock_r, float(comm.clocks[r]))
            compute_times[r] = dt
            z_parts[r] = z_r
            lam_parts[r] = lam_r

        # Gather (z, lambda) back to the aggregator.
        clocks_before = comm.clocks.copy()
        z_back = comm.gatherv(0, z_parts)
        lam_back = comm.gatherv(0, lam_parts)
        if tracer:
            self._trace_collective("comm.gather", clocks_before)
        z = np.empty(dec.n_local)
        lam = np.empty(dec.n_local)
        for r in range(self.n_ranks):
            z[self._rank_slices[r]] = z_back[r]
            lam[self._rank_slices[r]] = lam_back[r]
        self._compute_times = compute_times
        return z, lam

    def residuals(self, iteration, x, bx, z, z_prev, lam, rho):
        """Aggregator: residuals and termination, then the iteration barrier."""
        comm = self._comm
        clock0 = float(comm.clocks[0])
        t0 = time.perf_counter()
        res = compute_residuals(bx, z, z_prev, lam, rho, self.config.eps_rel)
        comm.advance(0, time.perf_counter() - t0)
        if self.tracer:
            self._trace_rank("rank.residuals", 0, clock0, float(comm.clocks[0]))
        comm.barrier()
        return res

    def after_residuals(self, iteration, res):
        self._timeline.append(
            self._comm.elapsed() - self._t_start, float(self._compute_times.max())
        )

    def final_timers(self, timers: dict) -> dict:
        return {"simulated_total": self._comm.elapsed()}

    def final_algorithm_name(self) -> str:
        return f"solver-free ADMM (simulated MPI, {self.n_ranks} ranks)"

    # ------------------------------------------------------------------
    def solve(self, max_iter: int | None = None) -> DistributedRunResult:
        """Run to the (16) criterion; returns result + simulated timeline."""
        self._comm = comm = SimComm(self.n_ranks, self.comm_model)
        self._timeline = IterationTimeline()
        result = super().solve(max_iter=max_iter)
        return DistributedRunResult(
            result=result,
            timeline=self._timeline,
            n_ranks=self.n_ranks,
            simulated_total_s=comm.elapsed(),
        )
