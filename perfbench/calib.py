"""The frozen calibration kernel and the calibrated clock.

The benchmark's host drifts: the same solver code can run 1.9x slower a
few tens of seconds later, so raw wall-clock medians do not repeat
within a tenth.  Every timed segment is therefore bracketed by a fixed
numpy kernel, timed right before and right after it, and its wall time
is rescaled by the kernel's slowdown:

    calibrated_s = raw_s * C0 / c

``C0`` is the kernel's frozen nominal time and ``c`` the mean of the two
bracketing kernel times.  Time spent in the kernel is never on the clock.
Back-to-back segments share a reading: the one after a segment is the
one before the next when nothing ran in between.  A long segment can be
split from inside (:meth:`CalibratedClock.split`, called from a solver
callback every few thousand iterations): each piece is then rescaled by
its own bracketing readings, which follows speed changes within one
solve.

The kernel has two regimes, matching what the workloads' hot paths do:

* ``small`` -- an ADMM-shaped iteration on 13-bus-sized arrays
  (ufuncs, gathers, bincount scatter, a batched 16x16 matvec, norms):
  numpy dispatch overhead dominates, as in the ieee13/ieee34 solves;
* ``stream`` -- a batched 16x16 matvec plus an axpy over a 16 MB tensor:
  a multi-megabyte streaming pass shaped like the ieee8500 local update.

A clock reads the regimes its segments live in; the workloads choose
them (``workloads.SPECS``).  This module uses numpy only and never
imports the package under test.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Nominal time (s) of each kernel regime; frozen, because changing a
#: value rescales every calibrated time the benchmark reports.
NOMINAL_S = {"small": 0.018, "stream": 0.018}

_SMALL_ITERS = 480
_STREAM_PASSES = 4
#: Untimed kernel runs at construction, so the first reading is warm.
_WARM_RUNS = 3
#: A reading that ended at most this long before a segment starts is
#: reused as the segment's first bracket.
_REUSE_S = 0.005


class CalibrationKernel:
    """Fixed, seeded numpy work whose wall time measures host speed."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.n = 256
        self.n_comp, self.width, self.used = 24, 16, 12
        self.n_local = self.n_comp * self.used
        self.gidx = rng.integers(0, self.n, self.n_local)
        self.counts = np.maximum(np.bincount(self.gidx, minlength=self.n), 1).astype(
            np.float64
        )
        self.cost = rng.standard_normal(self.n)
        self.lb = -np.ones(self.n)
        self.ub = np.ones(self.n)
        self.proj = 0.1 * rng.standard_normal((self.n_comp, self.width, self.width))
        self.pad = (
            np.arange(self.n_comp)[:, None] * self.width + np.arange(self.used)[None, :]
        ).ravel()
        self.big_proj = 0.05 * rng.standard_normal((8192, 16, 16))  # 16 MB
        self.big_v = rng.standard_normal(8192 * 16)
        self.big_w = rng.standard_normal(8192 * 16)
        for _ in range(_WARM_RUNS):
            self.time()

    def small(self) -> float:
        """Run the small-array regime; returns a value derived from it."""
        rho = 100.0
        z = np.zeros(self.n_local)
        lam = np.zeros(self.n_local)
        vp = np.zeros(self.n_comp * self.width)
        acc = 0.0
        for _ in range(_SMALL_ITERS):
            s = np.bincount(self.gidx, weights=z - lam / rho, minlength=self.n)
            x = np.clip((s - self.cost / rho) / self.counts, self.lb, self.ub)
            bx = x[self.gidx]
            vp[self.pad] = bx + lam / rho
            zp = np.matmul(self.proj, vp.reshape(self.n_comp, self.width, 1))
            zn = zp.reshape(-1)[self.pad]
            lam = lam + rho * (bx - zn)
            acc += np.linalg.norm(bx - zn) + np.linalg.norm(zn - z)
            z = zn
        return float(acc)

    def stream(self) -> float:
        """Run the streaming regime; returns a value derived from it."""
        v = self.big_v
        acc = 0.0
        for _ in range(_STREAM_PASSES):
            y = np.matmul(self.big_proj, v.reshape(-1, 16, 1)).reshape(-1)
            v = 0.5 * y + self.big_w
            acc += float(v[::4096].sum())
        return acc

    def time(self, regimes=tuple(NOMINAL_S)) -> dict[str, float]:
        """Wall seconds of each named regime, measured now."""
        out = {}
        for regime in regimes:
            run = getattr(self, regime)
            t0 = time.perf_counter()
            run()
            out[regime] = time.perf_counter() - t0
        return out


@dataclass
class Segment:
    """One timed segment: raw wall seconds and the bracketing kernel."""

    raw_s: float = 0.0
    #: The kernel time the whole segment was rescaled by: the mean of
    #: its two bracketing readings when it has one piece.
    kernel_s: float = 0.0
    cal_s: float = 0.0


class CalibratedClock:
    """Times segments on the calibrated clock of some kernel regimes.

    ``kernel`` needs a ``time(regimes)`` method returning per-regime
    seconds and ``timer`` is the wall clock; both are injectable for
    tests.  ``c`` is the sum of the regimes' readings and ``C0`` the sum
    of their nominal times.
    """

    def __init__(self, kernel, regimes: tuple[str, ...], timer=time.perf_counter):
        self.kernel = kernel
        self.parts = tuple(regimes)
        self.nominal_s = sum(NOMINAL_S[p] for p in self.parts)
        self.timer = timer
        self.readings: list[float] = []
        self._last: tuple[float, float] | None = None  # (reading, ended at)
        #: [reading before the current piece, piece start, Segment] of
        #: the open segment.
        self._open: list | None = None

    def _read(self) -> float:
        times = self.kernel.time(self.parts)
        value = sum(times[p] for p in self.parts)
        self.readings.append(value)
        self._last = (value, self.timer())
        return value

    @contextmanager
    def segment(self):
        """Time the ``with`` body; the yielded :class:`Segment` is filled
        in when the body ends."""
        seg = Segment()
        last = self._last
        if last is not None and self.timer() - last[1] <= _REUSE_S:
            before = last[0]
        else:
            before = self._read()
        self._open = [before, self.timer(), seg]
        try:
            yield seg
            self._close_piece()
        finally:
            self._open = None
        seg.kernel_s = seg.raw_s * self.nominal_s / seg.cal_s

    def split(self) -> None:
        """End the open segment's current piece with a kernel reading
        and start the next piece after it (no-op outside a segment)."""
        if self._open is not None:
            self._close_piece()
            self._open[1] = self.timer()

    def _close_piece(self) -> None:
        before, t0, seg = self._open
        raw = self.timer() - t0
        after = self._read()
        seg.raw_s += raw
        seg.cal_s += raw * self.nominal_s / (0.5 * (before + after))
        self._open[0] = after

    def calib_ms(self) -> float:
        """Median kernel reading so far, in milliseconds."""
        return 1e3 * statistics.median(self.readings)
