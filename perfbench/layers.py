"""Per-layer metrics computed from a traced pass's spans.

Times are raw wall time (the run also reports ``calib_ms``, the raw
kernel time, so they can be rescaled); per-iteration values split each
``ADMMLoop.run`` into its hooks and the loop's own remainder.  Counts
repeat exactly for the same seed and seconds.  A layer the spans do not
exercise reads 0 (``run.py`` then measures the serving layers of the
solve workloads on a probe pass).
"""

from __future__ import annotations

from tracing import self_times

_PHASES = ("global", "local", "dual", "residual")
#: Span names charged to each ADMM phase (the stacked serving strategy
#: has a ``residuals`` hook; the single solvers call compute_residuals).
_PHASE_SPANS = {
    "core.global": "global",
    "core.local": "local",
    "core.dual": "dual",
    "core.residual": "residual",
    "core.compute_residuals": "residual",
}


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans, frontend=None, feeders=None) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md).

    ``frontend`` and ``feeders`` (request id -> feeder) of a serving pass
    give ``fleet.affinity``.
    """
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def dur(s):
        return s[2] - s[1]

    setup = [s for s in spans if s[4] == "setup"]
    m["formulation.build_s"] = sum(
        dur(s) for s in setup
        if s[0] in ("feeders.resolve_feeder", "formulation.build_centralized_lp")
    )
    m["decomposition.decompose_s"] = sum(
        dur(s) for s in setup if s[0] == "decomposition.decompose"
    )
    # Projection factorizations: all in the set-up of a solve workload;
    # per projection-cache miss, in set-up and batches, when serving.
    m["core.precompute_s"] = sum(
        dur(s) for s in spans if s[0] == "core.projection_data"
    )

    # --- core.loop: every ADMMLoop.run, split into hooks + remainder.
    runs = [i for i, s in enumerate(spans)
            if s[0] == "core.run" and isinstance(s[5], tuple)]
    run_ids = set(runs)
    phase_total = {("all", p): 0.0 for p in _PHASES}
    phase_total.update({("stacked", p): 0.0 for p in _PHASES})
    hooks_in_run = {i: 0.0 for i in runs}
    stacked = {i for i in runs if spans[i][5][1] is not None}
    for s in spans:
        phase = _PHASE_SPANS.get(s[0])
        if phase is None or s[3] not in run_ids:
            continue
        phase_total[("all", phase)] += dur(s)
        hooks_in_run[s[3]] += dur(s)
        if s[3] in stacked:
            phase_total[("stacked", phase)] += dur(s)
    iterations = sum(spans[i][5][0] for i in runs)
    stacked_iterations = sum(spans[i][5][0] for i in stacked)
    m["core.iterations"] = iterations
    for p in _PHASES:
        m[f"core.{p}_us"] = 1e6 * _mean(phase_total[("all", p)], iterations)
    m["core.loop_other_us"] = 1e6 * _mean(
        sum(dur(spans[i]) - hooks_in_run[i] for i in runs), iterations
    )

    # --- core.batch: the batched local kernel.
    kernel = [(s, selfs[i]) for i, s in enumerate(spans) if s[0] == "core.batch_solve"]
    m["core.local.kernel_us"] = 1e6 * _mean(sum(t for _, t in kernel), len(kernel))
    m["core.local.bytes_per_iter"] = _mean(sum(s[5][0] for s, _ in kernel), len(kernel))
    m["core.local.pad_efficiency"] = _mean(sum(s[5][1] for s, _ in kernel), len(kernel))

    # --- serve.engine
    steps = [(i, s) for i, s in enumerate(spans) if s[0] == "serve.step" and s[5]
             and s[5][1]]
    builds = [s for s in spans if s[0] == "serve.build_scenario"]
    m["serve.plan_s"] = sum(dur(s) for s in spans if s[0] == "serve.plan_for")
    m["serve.build_ms"] = 1e3 * _mean(sum(dur(s) for s in builds), len(builds))
    m["serve.solve_ms"] = 1e3 * _mean(
        sum(dur(spans[i]) for i in stacked), len(stacked)
    )
    m["serve.step_other_ms"] = 1e3 * _mean(sum(selfs[i] for i, _ in steps), len(steps))
    for p in _PHASES:
        m[f"serve.stacked.{p}_us"] = 1e6 * _mean(
            phase_total[("stacked", p)], stacked_iterations
        )
    served = [pair for _, s in steps for pair in s[5][1]]
    scenario_iterations = sum(it for _, it in served)
    batch_work = sum(spans[i][5][0] * spans[i][5][1] for i in stacked)
    m["serve.iter_efficiency"] = _mean(scenario_iterations, batch_work)

    # --- serve.warmstart
    lookups = [s for s in spans if s[0] == "serve.lookup"]
    m["serve.warm_hit_rate"] = _mean(sum(1 for s in lookups if s[5]), len(lookups))
    m["serve.warm_lookup_us"] = 1e6 * _mean(sum(dur(s) for s in lookups), len(lookups))
    m["serve.iterations_per_scenario"] = _mean(scenario_iterations, len(served))

    # --- serve.scheduler
    m["serve.batches"] = len(steps)
    m["serve.batch_size"] = _mean(len(served), len(steps))
    submitted_at = {}
    for s in spans:
        if s[0] == "fleet.submit":
            submitted_at.setdefault(s[5], s[1])
    first_dispatch = {}
    for s in spans:
        if s[0] == "serve.next_batch" and s[5]:
            for rid in s[5]:
                first_dispatch.setdefault(rid, s[2])
    waits = [first_dispatch[r] - submitted_at[r] for r in first_dispatch
             if r in submitted_at]
    m["serve.queue_wait_ms"] = 1e3 * _mean(sum(waits), len(waits))

    # --- fleet
    submits = [s for s in spans if s[0] == "fleet.submit"]
    polls = [i for i, s in enumerate(spans) if s[0] == "fleet.poll"]
    m["fleet.submit_us"] = 1e6 * _mean(sum(dur(s) for s in submits), len(submits))
    m["fleet.poll_other_us"] = 1e6 * _mean(sum(selfs[i] for i in polls), len(polls))
    m["fleet.affinity"] = (
        _affinity(steps, frontend, feeders) if frontend is not None else 0.0
    )
    m["trace.spans"] = len(spans)
    return m


def _affinity(steps, frontend, feeders) -> float:
    """Share of served requests answered by their key's ring owner."""
    from repro.serve import OPFRequest

    engine_owner = {id(w.engine): wid for wid, w in frontend.workers.items()}
    owners = {}
    total = hits = 0
    for _, s in steps:
        worker = engine_owner.get(s[5][0])
        for rid, _ in s[5][1]:
            feeder = feeders[rid]
            if feeder not in owners:
                probe = OPFRequest(request_id="probe", feeder=feeder)
                owners[feeder] = frontend.ring.route(probe.topology_key())
            total += 1
            hits += worker == owners[feeder]
    return _mean(hits, total)
