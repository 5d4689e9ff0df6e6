"""The three workloads: seeded inputs, set-up, timed ops and the oracle.

Each workload runs in *passes*.  A pass sets the system up (timed, on
the calibrated clock), runs a fixed amount of work sized from the run's
``--seconds`` (same seed and seconds give the same work, so every count
repeats exactly), and returns the answers for the HiGHS oracle, which
runs afterwards, off the clock.

``solve-small``
    Cold to-tolerance solves of the paper's ieee13 and ieee34 instances
    at the linearized rung's defaults.  ~100-140 us per iteration, so
    per-iteration Python overhead dominates; iteration-count changes
    (acceleration, stop rules) show here.  The instances are the paper's
    and do not depend on the seed.
``solve-large``
    The 8531-bus ieee8500-class feeder with seeded load multipliers:
    a heavy set-up, then solves at a fixed iteration budget.  The local
    update is array/bandwidth-bound, and the fixed budget makes this the
    control on which iteration-count changes must not move
    ``iter_per_s``.
``serve-closed``
    A two-worker sim-mode fleet serving a seeded closed-loop stream over
    ieee13 and ieee13-der (routed to different workers): stacked
    batches, plan/build, the warm-start cache, scheduling and routing.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.io as rio
import repro.methods as rmethods
from repro.fleet import FleetConfig, FleetFrontend
from repro.reference import solve_reference
from repro.serve import (
    STATUS_CONVERGED,
    STATUS_ITERATION_LIMIT,
    OPFRequest,
    TopologyPlan,
)

from calib import CalibratedClock, CalibrationKernel

LINEARIZED = rmethods.Method.LINEARIZED
GAP_TOL = rmethods.METHOD_SPECS[LINEARIZED].gap_tol

SMALL_FEEDERS = ("ieee13", "ieee34")
LARGE_FEEDER = "ieee8500"
#: Seeded load multipliers of the large feeder lie in 1 +- this.
LARGE_LOAD_SPREAD = 0.05
#: Fixed iteration budget of one solve-large op.
LARGE_BUDGET = 150
SERVE_FEEDERS = ("ieee13", "ieee13-der")
SERVE_WORKERS = 2
#: One client more per worker than a batch holds: each round serves
#: eight requests per worker and leaves its newest one queued for the
#: next, so one answer in eight waits two rounds and queueing reaches
#: the latency tail.
SERVE_MAX_BATCH = 8
SERVE_CLIENTS = 18
#: Fresh serving draws scale loads by 1 +- this; perturbations of an
#: earlier request move each of its load multipliers by 1 +- PERTURB.
SERVE_SPREAD = 0.15
SERVE_PERTURB = 0.02
#: Rounds served before the timed ones (they fill the warm-start cache;
#: their answers are still checked).
SERVE_WARMUP_ROUNDS = 1


@dataclass(frozen=True)
class Spec:
    """How a workload is clocked and sized.

    ``regimes`` are the calibration-kernel regimes its timed work is
    clocked by (set-ups always use ``SETUP_REGIMES``).  ``unit_s`` is the
    nominal calibrated duration of one unit of work (a solve round, a
    fixed-budget solve, a serving round); a pass runs
    ``max(min_units, round(seconds / unit_s))`` units.  ``split_every``
    (solve workloads) is how many ADMM iterations of a solve run between
    two kernel readings inside its segment in an untraced pass; traced
    passes take none, so no kernel work lands inside a traced span.
    """

    name: str
    regimes: tuple[str, ...]
    setups: int
    unit_s: float
    min_units: int
    min_units_traced: int
    split_every: int | None = None


#: Set-ups of every workload: Python object work, small dense
#: factorizations and, for ieee8500, multi-megabyte arrays.
SETUP_REGIMES = ("small", "stream")

#: Regimes were picked by which kernel regime tracked each workload's
#: own segment times best (ratio flattest, slope nearest 1) over minutes
#: of host drift: both for the small solves and the serving rounds, the
#: streaming pass alone for the bandwidth-bound ieee8500 iterations.
SPECS = {
    # Pieces of ~0.2-0.4 s: 2000 small-feeder or 50 ieee8500 iterations.
    "solve-small": Spec("solve-small", ("small", "stream"), setups=5, unit_s=1.9,
                        min_units=4, min_units_traced=2, split_every=2000),
    "solve-large": Spec("solve-large", ("stream",), setups=3, unit_s=1.2,
                        min_units=4, min_units_traced=2, split_every=50),
    # 20 timed rounds: the two-round waits (one in eight answers) hold
    # the p90, and >= 16 distinct ones lie beyond it.
    "serve-closed": Spec("serve-closed", ("small", "stream"), setups=3,
                         unit_s=1.1, min_units=20, min_units_traced=4),
}


#: Per-layer metrics the solve workloads do not exercise (no serving
#: happens in them).  A ``--trace 1`` run of a solve workload measures
#: them on a short traced serve-closed probe pass, because every
#: declared metric must be printed and a time reading the same on every
#: run (a constant 0) is refused as not measured.
SERVE_LAYERS = ("serve.", "fleet.")


def units_for(spec: Spec, seconds: float, traced: bool) -> int:
    floor = spec.min_units_traced if traced else spec.min_units
    return max(floor, int(round(seconds / spec.unit_s)))


@dataclass
class Answer:
    """One answered operation and what the oracle made of it."""

    op: str
    feeder: str
    iterations: int
    objective: float | None
    status: str = STATUS_CONVERGED
    reference: float | None = None
    gap: float | None = None
    failure: str | None = None  # reason this op counts as failed


@dataclass
class Pass:
    """Everything one pass measured."""

    setup: list = field(default_factory=list)  # Segment per set-up
    units: list = field(default_factory=list)  # (cal_s, raw_s) per solve unit
    latencies: list = field(default_factory=list)  # (cal_s, raw_s) per timed answer
    timed_cal_s: float = 0.0
    timed_raw_s: float = 0.0
    timed_answers: int = 0
    timed_iterations: int = 0
    answers: list = field(default_factory=list)
    structural: list = field(default_factory=list)  # output defects found
    context: dict = field(default_factory=dict)  # what the oracle and layers need


# ----------------------------------------------------------------------
# Inputs


def large_multipliers(net, seed: int) -> dict[str, float]:
    """Seeded per-load multipliers of the large feeder."""
    rng = np.random.default_rng([seed, 8500])
    return {
        name: float(1.0 + rng.uniform(-LARGE_LOAD_SPREAD, LARGE_LOAD_SPREAD))
        for name in sorted(net.loads)
    }


def serve_stream(seed: int, count: int) -> list[OPFRequest]:
    """The seeded closed-loop request stream.

    Requests alternate between the feeders.  Per feeder, every second
    request perturbs an earlier one of that feeder submitted at least
    ``2 * SERVE_CLIENTS`` positions before (two rounds earlier, so
    already answered and cached); the others are fresh draws.
    """
    rng = np.random.default_rng([seed, 13])
    loads = {f: sorted(rio.resolve_feeder(f).loads) for f in SERVE_FEEDERS}
    history: dict[str, list[tuple[int, OPFRequest]]] = {f: [] for f in SERVE_FEEDERS}
    stream = []
    for i in range(count):
        feeder = SERVE_FEEDERS[i % len(SERVE_FEEDERS)]
        seen = history[feeder]
        eligible = [req for j, req in seen if j <= i - 2 * SERVE_CLIENTS]
        rid = f"{feeder}-{i:05d}"
        if len(seen) % 2 == 1 and eligible:
            base = eligible[int(rng.integers(len(eligible)))]
            req = OPFRequest(
                request_id=rid,
                feeder=feeder,
                load_scale=base.load_scale,
                load_multipliers={
                    name: float(m * (1.0 + rng.uniform(-SERVE_PERTURB, SERVE_PERTURB)))
                    for name, m in sorted(base.load_multipliers.items())
                },
            )
        else:
            req = OPFRequest(
                request_id=rid,
                feeder=feeder,
                load_scale=float(1.0 + rng.uniform(-SERVE_SPREAD, SERVE_SPREAD)),
                load_multipliers={
                    name: float(1.0 + rng.uniform(-SERVE_SPREAD, SERVE_SPREAD))
                    for name in loads[feeder]
                },
            )
        seen.append((i, req))
        stream.append(req)
    return stream


# ----------------------------------------------------------------------
# Set-ups: feeder reference -> ready to answer


def setup_small(seed: int):
    solvers = {}
    for feeder in SMALL_FEEDERS:
        problem = rmethods.build_method_problem(rio.resolve_feeder(feeder), LINEARIZED)
        solvers[feeder] = (problem, rmethods.make_method_solver(problem))
    return solvers


def setup_large(seed: int):
    net = rio.resolve_feeder(LARGE_FEEDER)
    for name, mult in large_multipliers(net, seed).items():
        load = net.loads[name]
        load.p_ref = load.p_ref * mult
        load.q_ref = load.q_ref * mult
    problem = rmethods.build_method_problem(net, LINEARIZED)
    return problem, rmethods.make_method_solver(problem)


def setup_serve(seed: int):
    frontend = FleetFrontend(
        FleetConfig(n_workers=SERVE_WORKERS, max_batch=SERVE_MAX_BATCH)
    )
    for feeder in SERVE_FEEDERS:
        probe = OPFRequest(request_id=f"plan-{feeder}", feeder=feeder)
        owner = frontend.ring.route(probe.topology_key())
        frontend.workers[owner].engine.plan_for(probe)
    return frontend


SETUPS = {
    "solve-small": setup_small,
    "solve-large": setup_large,
    "serve-closed": setup_serve,
}


def _release(state) -> None:
    if isinstance(state, FleetFrontend):
        state.close()


def timed_setups(spec: Spec, seed: int, clock: CalibratedClock, count: int,
                 recorder=None):
    """Set the workload up ``count`` times; keep the last state."""
    out = Pass()
    state = None
    for _ in range(count):
        if state is not None:
            _release(state)
            state = None
        with clock.segment() as seg, _op(recorder, "bench.setup", "setup"):
            state = SETUPS[spec.name](seed)
        out.setup.append(seg)
    return state, out


# ----------------------------------------------------------------------
# Timed work


def _op(recorder, name: str, op: str):
    """A root span tagging everything inside it with ``op`` (traced
    passes only)."""
    if recorder is None:
        return nullcontext()
    recorder.op = op
    return recorder.span(name)


def _solve_answer(op: str, feeder: str, result) -> Answer:
    return Answer(
        op=op, feeder=feeder, iterations=int(result.iterations),
        objective=float(result.objective),
        status=STATUS_CONVERGED if result.converged else STATUS_ITERATION_LIMIT,
    )


def _splitter(clock, every: int | None):
    """A solver callback splitting the open segment every ``every``
    iterations (``None`` when ``every`` is)."""
    if every is None:
        return None

    def callback(iteration, *_):
        if (iteration + 1) % every == 0:
            clock.split()

    return callback


def measure_small(state, out: Pass, clock, units: int, split_every=None,
                  recorder=None) -> None:
    callback = _splitter(clock, split_every)
    for r in range(units):
        round_cal = round_raw = 0.0
        for feeder in SMALL_FEEDERS:
            problem, solver = state[feeder]
            op = f"{feeder}#{r}"
            with clock.segment() as seg, _op(recorder, "bench.solve", op):
                result = solver.solve(callback=callback)
            round_cal += seg.cal_s
            round_raw += seg.raw_s
            out.timed_iterations += int(result.iterations)
            out.answers.append(_solve_answer(op, feeder, result))
        out.units.append((round_cal, round_raw))
        # A latency sample is one round: the per-solve times are
        # bimodal (ieee13 vs ieee34), so their median is not a typical
        # latency.
        out.latencies.append((round_cal, round_raw))
    out.context["problems"] = {f: state[f][0] for f in SMALL_FEEDERS}


def measure_large(state, out: Pass, clock, units: int, split_every=None,
                  recorder=None) -> None:
    problem, solver = state
    callback = _splitter(clock, split_every)
    for r in range(units):
        op = f"{LARGE_FEEDER}#{r}"
        with clock.segment() as seg, _op(recorder, "bench.solve", op):
            result = solver.solve(max_iter=LARGE_BUDGET, callback=callback)
        out.units.append((seg.cal_s, seg.raw_s))
        out.latencies.append((seg.cal_s, seg.raw_s))
        out.timed_iterations += int(result.iterations)
        out.answers.append(_solve_answer(op, LARGE_FEEDER, result))
    out.context["problems"] = {LARGE_FEEDER: problem}


def measure_serve(state, out: Pass, clock, units: int, seed: int,
                  recorder=None) -> None:
    """Closed loop: each client submits its next request when its last
    one is answered; a round is one submit burst plus one fleet poll.

    Every round until the stream runs out is full (``SERVE_CLIENTS``
    requests outstanding, a full batch per worker served) and timed
    after the warm-up; the drain rounds after it are served and checked
    but not timed.  A latency sample is submit round start -> answer
    round end on the calibrated clock, for requests submitted in a
    timed round.
    """
    frontend = state
    rounds = SERVE_WARMUP_ROUNDS + units
    per_round = SERVE_WORKERS * SERVE_MAX_BATCH
    stream = serve_stream(seed, SERVE_CLIENTS + per_round * (rounds - 1))
    out.context["requests"] = {r.request_id: r for r in stream}
    pending = list(reversed(stream))
    submitted: dict[str, int] = {}  # request id -> round submitted
    answered: set[str] = set()
    rejected: set[str] = set()
    starts = [0.0]  # calibrated clock at the start of each round
    starts_raw = [0.0]
    r = 0
    while pending or submitted:
        if r >= 4 * rounds:
            out.structural.append(f"stream not drained after {r} rounds")
            break
        with clock.segment() as seg, _op(recorder, "bench.round", f"round#{r}"):
            while pending and len(submitted) < SERVE_CLIENTS:
                req = pending.pop()
                rejection = frontend.submit(req)
                if rejection is not None:
                    rejected.add(req.request_id)
                    out.answers.append(Answer(
                        op=req.request_id, feeder=req.feeder, iterations=0,
                        objective=None, status=rejection.status,
                    ))
                    continue
                submitted[req.request_id] = r
            responses = frontend.poll()
        starts.append(starts[-1] + seg.cal_s)
        starts_raw.append(starts_raw[-1] + seg.raw_s)
        timed = SERVE_WARMUP_ROUNDS <= r < rounds
        if timed:
            out.units.append((seg.cal_s, seg.raw_s))
            out.timed_cal_s += seg.cal_s
            out.timed_raw_s += seg.raw_s
        for resp in responses:
            rid = resp.request_id
            if rid in answered or rid not in submitted:
                out.structural.append(f"duplicate or unknown response {rid}")
                continue
            answered.add(rid)
            r0 = submitted.pop(rid)
            if timed:
                out.timed_answers += 1
                out.timed_iterations += int(resp.iterations)
                if r0 >= SERVE_WARMUP_ROUNDS:
                    out.latencies.append((starts[r + 1] - starts[r0],
                                          starts_raw[r + 1] - starts_raw[r0]))
            req = out.context["requests"][rid]
            out.answers.append(Answer(
                op=rid, feeder=req.feeder, iterations=int(resp.iterations),
                objective=resp.objective, status=resp.status,
            ))
        r += 1
    for rid in sorted(set(out.context["requests"]) - answered - rejected):
        out.answers.append(Answer(
            op=rid, feeder=out.context["requests"][rid].feeder, iterations=0,
            objective=None, status="missing",
        ))
    out.context["frontend"] = frontend


def finish_solve_pass(out: Pass) -> None:
    """Solve workloads time every op; totals come from their segments."""
    out.timed_cal_s = sum(cal for cal, _ in out.units)
    out.timed_raw_s = sum(raw for _, raw in out.units)
    out.timed_answers = len(out.answers)


def run_pass(name: str, seed: int, seconds: float, kernel: CalibrationKernel,
             traced: bool, setups: int, recorder=None):
    """One pass: ``setups`` timed set-ups, then the timed work.

    ``traced`` sizes the pass for a ``--trace 1`` run, whose two passes
    each get half the seconds and a lower floor of work units.
    """
    spec = SPECS[name]
    setup_clock = CalibratedClock(kernel, SETUP_REGIMES)
    state, out = timed_setups(spec, seed, setup_clock, setups, recorder)
    clock = CalibratedClock(kernel, spec.regimes)
    units = units_for(spec, seconds, traced)
    split_every = None if traced else spec.split_every
    if name == "solve-small":
        measure_small(state, out, clock, units, split_every, recorder)
        finish_solve_pass(out)
    elif name == "solve-large":
        measure_large(state, out, clock, units, split_every, recorder)
        finish_solve_pass(out)
    else:
        measure_serve(state, out, clock, units, seed, recorder)
    if recorder is not None:
        recorder.op = None
    out.context["clock"] = clock
    return out


# ----------------------------------------------------------------------
# The oracle (HiGHS, off the clock)


def _gap(objective: float, reference: float) -> float:
    return abs(objective - reference) / max(abs(reference), 1e-12)


class Oracle:
    """HiGHS reference objectives, cached across the passes of a run."""

    def __init__(self):
        self.references: dict[str, float] = {}
        #: Per-feeder plans built apart from the engine's.
        self.plans: dict[str, TopologyPlan] = {}

    def reference(self, name: str, out: Pass, ans: Answer) -> float:
        if name != "serve-closed":
            if ans.feeder not in self.references:
                problem = out.context["problems"][ans.feeder]
                self.references[ans.feeder] = rmethods.reference_objective(problem)
            return self.references[ans.feeder]
        if ans.op not in self.references:
            req = out.context["requests"][ans.op]
            plan = self.plans.get(req.feeder)
            if plan is None:
                plan = self.plans[req.feeder] = TopologyPlan(req.feeder)
            lp = plan.build_scenario(req).lp
            self.references[ans.op] = solve_reference(lp).objective
        return self.references[ans.op]


def check_pass(name: str, out: Pass, oracle: Oracle) -> None:
    """Fill each answer's reference/gap/failure; record output defects.

    An op fails if its status is not ``converged`` (to-tolerance
    workloads), its objective is not finite, it is missing, a
    fixed-budget solve did not run its budget, or its gap is outside the
    linearized rung's ``gap_tol`` tier (to-tolerance workloads).
    """
    to_tolerance = name != "solve-large"
    first_objective: dict[str, float] = {}
    for ans in out.answers:
        finite = ans.objective is not None and math.isfinite(ans.objective)
        if finite:
            ans.reference = oracle.reference(name, out, ans)
            ans.gap = _gap(ans.objective, ans.reference)
        if ans.status == "missing":
            ans.failure = "missing"
        elif ans.status != STATUS_CONVERGED and to_tolerance:
            ans.failure = f"status:{ans.status}"
        elif not finite:
            ans.failure = "objective not finite"
        elif not to_tolerance and ans.iterations != LARGE_BUDGET:
            ans.failure = f"ran {ans.iterations} of {LARGE_BUDGET} iterations"
        elif to_tolerance and ans.gap > GAP_TOL:
            ans.failure = "gap outside tier"
        if name != "serve-closed" and finite:
            # The same instance must give the same answer every time.
            prev = first_objective.setdefault(ans.feeder, ans.objective)
            if prev != ans.objective:
                out.structural.append(f"{ans.op}: objective differs between solves")
