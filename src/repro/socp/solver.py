"""Solver-free conic consensus ADMM for the branch-flow SOCP.

The decomposition generalizes model (9): components are either

* **linear** — equality systems ``A_s x_s = b_s`` (bus balance, line
  voltage-drop rows), solved by the same batched affine projections as
  Algorithm 1, or
* **conic** — a single rotated-SOC membership per line, solved by the
  closed-form cone projection of :mod:`repro.socp.cone`,

while all bound constraints remain in the global clip step, exactly as in
the paper.  Every local update is still a closed-form, batchable map —
the paper's "solver-free on GPUs" property carries over to the relaxation
it names as future work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import resolve_backend
from repro.backend.policy import HOST_DTYPE
from repro.core.batch import BatchedLocalSolver
from repro.core.config import ADMMConfig
from repro.core.consensus import ConsensusADMM, stack_offsets
from repro.decomposition.rowreduce import reduced_row_echelon
from repro.formulation.rows import Row, rows_to_dense_local
from repro.socp.bfm import ConicProblem
from repro.socp.cone import project_rotated_soc_batch
from repro.utils.exceptions import DecompositionError


@dataclass
class LinearComponent:
    """An equality-only component of the conic decomposition."""

    name: str
    local_keys: list
    global_cols: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.local_keys)


@dataclass
class ConicDecomposition:
    """Linear components + cone components + stacked consensus structure.

    The stacked local vector is laid out as all linear components followed
    by all cone components (4 entries each: ``le, w, P, Q``).
    """

    problem: ConicProblem
    linear: list[LinearComponent]
    offsets_linear: np.ndarray
    n_linear: int
    cone_cols: np.ndarray  # (n_cones, 4) global columns per cone
    global_cols: np.ndarray  # full stacked map (linear then cones)
    counts: np.ndarray

    @property
    def n_components(self) -> int:
        return len(self.linear) + self.cone_cols.shape[0]

    @property
    def n_local(self) -> int:
        return int(self.global_cols.size)


def _component_keys_for_rows(rows: list[Row]) -> list:
    keys: list = []
    seen: set = set()
    for row in rows:
        for key in row.coeffs:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


def decompose_conic(problem: ConicProblem, rref_tol: float = 1e-9) -> ConicDecomposition:
    """Group the SOCP's rows by owner and append the cone components."""
    by_owner: dict[tuple, list[Row]] = {}
    for row in problem.rows:
        by_owner.setdefault(row.owner, []).append(row)

    vi = problem.var_index
    linear: list[LinearComponent] = []
    for owner, rows in by_owner.items():
        keys = _component_keys_for_rows(rows)
        if not keys:
            continue
        a_raw, b_raw = rows_to_dense_local(rows, keys)
        a, b, _ = reduced_row_echelon(a_raw, b_raw, tol=rref_tol)
        linear.append(
            LinearComponent(
                name=f"{owner[0]}:{owner[1]}",
                local_keys=keys,
                global_cols=np.array([vi.index(k) for k in keys], dtype=np.int64),
                a=a,
                b=b,
            )
        )

    sizes = np.array([c.n_vars for c in linear], dtype=np.int64)
    offsets_linear = np.concatenate([[0], np.cumsum(sizes)])
    n_linear = int(offsets_linear[-1])

    cone_cols = np.array(
        [
            [
                vi.index(c.u_key),
                vi.index(c.v_key),
                vi.index(c.w_keys[0]),
                vi.index(c.w_keys[1]),
            ]
            for c in problem.cones
        ],
        dtype=np.int64,
    ).reshape(len(problem.cones), 4)

    global_cols = np.concatenate(
        [c.global_cols for c in linear] + [cone_cols.reshape(-1)]
    )
    counts = np.bincount(global_cols, minlength=vi.n).astype(HOST_DTYPE)
    if np.any(counts == 0):
        missing = int(np.argmax(counts == 0))
        raise DecompositionError(
            f"variable {vi.key_of(missing)} has no local copy in the conic model"
        )
    return ConicDecomposition(
        problem=problem,
        linear=linear,
        offsets_linear=offsets_linear,
        n_linear=n_linear,
        cone_cols=cone_cols,
        global_cols=global_cols,
        counts=counts,
    )


class ConicSolverFreeADMM(ConsensusADMM):
    """Consensus ADMM over linear + conic components, all closed form.

    Runs on :class:`repro.core.loop.ADMMLoop` with the shared updates of
    :class:`repro.core.consensus.ConsensusADMM`; the cone projections are
    dtype-preserving, so fp32 backends carry through unchanged.  The
    local operator works over a ``(K, n_local)`` view of the stacked
    vector: a single solve is K = 1, a serving batch K scenarios.
    """

    algorithm_name = "solver-free conic ADMM (branch-flow SOCP)"
    # Plain ADMM only: the conic convergence theory does not cover
    # over-relaxation or rho rescaling.
    use_relaxation = False
    supports_balancing = False
    # The historical conic loop kept no phase timers, spans or stall watch.
    record_timers = False
    phase_spans = False
    watch_stall = False

    def __init__(
        self,
        dec: ConicDecomposition,
        config: ADMMConfig | None = None,
        backend=None,
        precision: str | None = None,
    ):
        super().__init__(
            dec.problem, dec.global_cols, dec.counts, config,
            backend=resolve_backend(backend, precision),
        )
        if self.config.residual_balancing or self.config.relaxation != 1.0:
            raise ValueError("the conic solver runs plain ADMM only")
        self.dec = dec
        self._bind_local(dec, 1, None)

    def _bind_local(self, dec, k_n, projections) -> None:
        self.linear_solver = BatchedLocalSolver.from_parts(
            dec.linear * k_n, stack_offsets(dec.offsets_linear, k_n),
            projections=projections, backend=self.backend,
        )
        self.n_linear = dec.n_linear
        self.block = dec.n_local  # one scenario's stacked local length

    def project(self, v, rho):
        """Batched closed-form projections: affine blocks, then cones."""
        b = self.backend
        xp = b.xp
        n_linear, block = self.n_linear, self.block
        vmat = v.reshape(-1, block)
        k_n = vmat.shape[0]
        z = b.empty(v.size)
        zmat = z.reshape(k_n, block)
        zmat[:, :n_linear] = self.linear_solver.solve(
            xp.ascontiguousarray(vmat[:, :n_linear]).reshape(-1)
        ).reshape(k_n, n_linear)
        cone = vmat[:, n_linear:].reshape(-1, 4)
        u, w, pq = project_rotated_soc_batch(cone[:, 0], cone[:, 1], cone[:, 2:])
        out = xp.concatenate([u[:, None], w[:, None], pq], axis=1)
        zmat[:, n_linear:] = out.reshape(k_n, block - n_linear)
        return z

    def span_args(self) -> dict:
        linear = self.linear_solver
        n_cones = (self.n_local - linear.n_local) // 4
        return {"n_vars": self.n, "n_components": linear.n_components + n_cones}
