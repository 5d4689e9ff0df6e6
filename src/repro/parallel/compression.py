"""Lossy communication compression (the paper's future-work pointer [37]).

The aggregator exchange carries the stacked ``(z, lambda)`` every iteration
(Section IV-E); on bandwidth-limited links that payload dominates.  This
module provides the standard compressed-consensus toolkit:

* :class:`TopKCompressor` — keep the k largest-magnitude entries;
* :class:`UniformQuantizer` — b-bit min/max scalar quantization;
* :class:`ErrorFeedback` — residual memory wrapped around any compressor,
  the fix that keeps compressed first-order methods convergent;
* :class:`CompressedSolverFreeADMM` — Algorithm 1 where the agents' uploads
  pass through a (stateful) compressor, with on-the-wire byte accounting.

The comm-bytes-vs-iterations tradeoff is quantified by
``bench_ablation_compression``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ADMMConfig
from repro.core.results import ADMMResult
from repro.core.solver_free import SolverFreeADMM
from repro.decomposition.decomposed import DecomposedOPF


@dataclass(frozen=True)
class CompressedMessage:
    """A decompressed payload plus its on-the-wire size."""

    values: np.ndarray
    nbytes: int


class TopKCompressor:
    """Keep the ``fraction`` largest-magnitude entries (sparsification).

    Wire cost: 4 bytes index + 8 bytes value per kept entry.
    """

    def __init__(self, fraction: float):
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = fraction

    def compress(self, vec: np.ndarray) -> CompressedMessage:
        n = vec.size
        k = max(1, int(round(self.fraction * n)))
        if k >= n:
            return CompressedMessage(vec.copy(), 8 * n)
        idx = np.argpartition(np.abs(vec), n - k)[n - k :]
        out = np.zeros_like(vec)
        out[idx] = vec[idx]
        return CompressedMessage(out, 12 * k)


class UniformQuantizer:
    """b-bit uniform quantization between the vector's min and max.

    Wire cost: ``ceil(b n / 8)`` bytes plus two 8-byte range scalars.
    """

    def __init__(self, bits: int):
        if not 1 <= bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        self.bits = bits

    def compress(self, vec: np.ndarray) -> CompressedMessage:
        lo = float(vec.min())
        hi = float(vec.max())
        nbytes = (self.bits * vec.size + 7) // 8 + 16
        if hi == lo:
            return CompressedMessage(np.full_like(vec, lo), nbytes)
        levels = (1 << self.bits) - 1
        q = np.round((vec - lo) / (hi - lo) * levels)
        return CompressedMessage(lo + q * (hi - lo) / levels, nbytes)


class ErrorFeedback:
    """Residual-memory wrapper: compress ``vec + memory`` and remember what
    the compressor dropped, so the error is re-injected next round."""

    def __init__(self, compressor):
        self.compressor = compressor
        self._memory: np.ndarray | None = None

    def compress(self, vec: np.ndarray) -> CompressedMessage:
        if self._memory is None:
            self._memory = np.zeros_like(vec)
        target = vec + self._memory
        msg = self.compressor.compress(target)
        self._memory = target - msg.values
        return msg

    def reset(self) -> None:
        self._memory = None


class CompressedSolverFreeADMM(SolverFreeADMM):
    """Algorithm 1 with compressed agent uploads.

    Following the standard compressed-consensus recipe, agents compress the
    *difference* between their new exact local solution and the value the
    operator last reconstructed (differences shrink as the run converges,
    so sparsification/quantization bite harder and harder); the operator
    and the agent both track the reconstructed stream, keeping dual updates
    consistent.  Error feedback (wrap the compressor in
    :class:`ErrorFeedback`) re-injects what compression dropped.  Byte
    savings are recorded in ``bytes_sent`` / ``bytes_dense``.
    """

    algorithm_name = "solver-free ADMM (compressed uploads)"
    #: Compressor state (error-feedback memory, byte counters) cannot be
    #: carried into an fp64 twin, so stalled fp32 runs are returned as-is.
    refinement_supported = False
    supports_balancing = False
    # The historical compressed loop kept no phase timers or spans.
    record_timers = False
    phase_spans = False
    watch_stall = False

    def __init__(
        self,
        dec: DecomposedOPF,
        compressor,
        config: ADMMConfig | None = None,
        backend=None,
        precision: str | None = None,
    ):
        super().__init__(dec, config, backend=backend, precision=precision)
        if self.config.residual_balancing:
            raise ValueError("compression mode supports fixed rho only")
        self.compressor = compressor
        self.bytes_sent = 0
        self.bytes_dense = 0

    def local_step(self, bx_eff, z_prev, lam, rho):
        z_exact = self.local_update(bx_eff, lam, rho)
        # Compress the innovation against the operator's current view.
        msg = self.compressor.compress(z_exact - z_prev)
        self.bytes_sent += msg.nbytes
        self.bytes_dense += z_exact.itemsize * z_exact.size
        return z_prev + msg.values

    def solve(self, x0=None, z0=None, lam0=None, max_iter=None, callback=None) -> ADMMResult:
        self.bytes_sent = 0
        self.bytes_dense = 0
        if isinstance(self.compressor, ErrorFeedback):
            self.compressor.reset()
        return super().solve(x0, z0, lam0, max_iter, callback)

    @property
    def compression_ratio(self) -> float:
        """Dense bytes divided by bytes actually sent (>= 1 is a saving)."""
        return self.bytes_dense / self.bytes_sent if self.bytes_sent else 1.0
