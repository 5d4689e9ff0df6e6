"""Differentially private consensus (the paper's future-work pointer [13]).

The paper notes that the central aggregator sees every agent's local
iterates, "potentially raising privacy concern", and points to
differentially private distributed optimization as the mitigation.  This
module implements the standard recipe — per-agent **output perturbation**:
each component clips its reported local solution update to a bounded L2
norm and adds Gaussian noise *before* it is sent to the operator, so the
aggregator (and anything downstream) only ever sees privatized iterates.

Accounting uses zero-concentrated differential privacy: one Gaussian
release with L2 sensitivity ``clip`` and noise ``sigma`` costs
``rho = clip^2 / (2 sigma^2)`` zCDP; T iterations compose additively, and
``eps(delta) = rho_total + 2 sqrt(rho_total ln(1/delta))``.

The privatized algorithm inherits ADMM's robustness to inexact local
solutions: convergence degrades gracefully to a noise floor governed by
``sigma`` (quantified by ``bench_ablation_privacy`` and the
``privacy_compression`` example).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import ADMMConfig
from repro.core.solver_free import SolverFreeADMM
from repro.decomposition.decomposed import DecomposedOPF


@dataclass(frozen=True)
class PrivacyConfig:
    """Gaussian-mechanism parameters.

    Attributes
    ----------
    clip:
        L2 clipping bound applied per component to the *change* of its
        reported solution (the per-iteration release).
    sigma:
        Gaussian noise standard deviation (absolute, same units as the
        iterates).
    seed:
        Noise stream seed (runs are reproducible).
    """

    clip: float = 1.0
    sigma: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clip <= 0:
            raise ValueError("clip must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def rho_zcdp_per_release(self) -> float:
        """zCDP cost of one noisy release per component."""
        if self.sigma == 0:
            return math.inf
        return self.clip**2 / (2.0 * self.sigma**2)


@dataclass
class PrivacyAccountant:
    """Additive zCDP composition over iterations."""

    rho_per_release: float
    releases: int = 0

    def record(self, n: int = 1) -> None:
        self.releases += n

    @property
    def rho_total(self) -> float:
        return self.rho_per_release * self.releases

    def epsilon(self, delta: float = 1e-6) -> float:
        """Convert accumulated zCDP to (eps, delta)-DP."""
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        rho = self.rho_total
        if math.isinf(rho):
            return math.inf
        return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


class PrivateSolverFreeADMM(SolverFreeADMM):
    """Algorithm 1 with per-component privatized uploads.

    Each iteration, every component's reported solution is
    ``z_s + noise`` where the *update* ``z_s - z_s_prev`` is L2-clipped to
    ``privacy.clip`` and Gaussian noise of scale ``privacy.sigma`` is added.
    The operator's global and dual updates consume only privatized values.

    The termination criterion sees noisy residuals, so a noise floor below
    which it cannot certify convergence is expected; callers should size
    ``eps_rel`` accordingly (see the ablation benchmark).
    """

    algorithm_name = "solver-free ADMM (differentially private)"
    #: The noise stream and zCDP accountant are tied to this run; an fp64
    #: refinement twin would double-spend the privacy budget.
    refinement_supported = False
    supports_balancing = False
    # The historical private loop kept no phase timers, spans or stall
    # watch (the divergence guard still applies).
    record_timers = False
    phase_spans = False
    watch_stall = False

    def __init__(
        self,
        dec: DecomposedOPF,
        privacy: PrivacyConfig,
        config: ADMMConfig | None = None,
        backend=None,
        precision: str | None = None,
    ):
        super().__init__(dec, config, backend=backend, precision=precision)
        if self.config.residual_balancing:
            raise ValueError("privacy mode supports fixed rho only")
        self.privacy = privacy
        self.accountant = PrivacyAccountant(privacy.rho_zcdp_per_release())
        self._rng = np.random.default_rng(privacy.seed)

    def _privatize(self, z: np.ndarray, z_prev: np.ndarray) -> np.ndarray:
        """Clip each component's update and add Gaussian noise."""
        dec = self.dec
        out = np.empty_like(z)
        p = self.privacy
        noise = self._rng.normal(0.0, p.sigma, size=z.shape) if p.sigma else 0.0
        for s in range(dec.n_components):
            sl = dec.component_slice(s)
            delta = z[sl] - z_prev[sl]
            norm = self.backend.norm(delta)
            if norm > p.clip:
                delta = delta * (p.clip / norm)
            out[sl] = z_prev[sl] + delta
        out += noise
        self.accountant.record(dec.n_components)
        return out

    def local_step(self, bx_eff, z_prev, lam, rho):
        z_exact = self.local_update(bx_eff, lam, rho)
        # Only the privatized solution leaves the agent.
        return self._privatize(z_exact, z_prev)

