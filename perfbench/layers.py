"""The traced run: per-layer self time and work counts, checked for integrity.

The first schedule of the timed run is replayed four times on fresh
identical worlds: once with tracing off, then three times with every
serving-path layer spanned (see :mod:`tracing`), the last two also counting
predicate-versus-row tests.  All four must agree exactly on the answer
digest and on every work counter the program keeps, and the traced replays
also on the counts only the trace sees.  The first spanned replay gives
each layer's calls and self time.  Like the timed run, these four replays
time a reference chunk after every op (see :mod:`reference`), so the
tracing overhead compares their summed op latencies at the reference speed,
not two wall times the host's drift sets apart.  A fifth replay, the lock
probe, deals the same schedule to two client threads on an untraced server
whose locks are instrumented; it gives the lock waits.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from tracing import BACKEND_METHODS, SERVER_OPS, SWEEPS, Tracer
from workloads import (RunResult, exact_counts, repeat_problems, replay_seeds,
                       run_replays)

Metric = Tuple[float, str, int]

#: A traced run must attribute at least this share of each client's busy
#: time to spans (the rest is the benchmark loop itself).
MIN_ATTRIBUTED = 0.9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced: RunResult, untraced: RunResult,
                  counter: Tracer, probe: RunResult) -> Dict[str, Metric]:
    """Every per-layer metric, ``name -> (value, unit, n)``: spans and
    counters of the ``traced`` replay, row tests of the ``counter`` one,
    lock waits of the two-client ``probe``."""
    spans = tracer.by_name()
    flat = traced.counters
    stages = traced.stages
    out: Dict[str, Metric] = {}

    def span_calls(name: str) -> None:
        out[f"{name}.calls"] = (spans[name]["calls"], "count",
                                spans[name]["calls"])

    def span_self(name: str) -> None:
        out[f"{name}.self_s"] = (spans[name]["self_s"], "s",
                                 spans[name]["calls"])

    def count(name: str, value: float) -> None:
        out[name] = (value, "count", 1)

    def ratio(name: str, hits: float, total: float) -> None:
        out[name] = (_ratio(hits, total), "ratio", int(total))

    for stage in ("generate", "load", "profiles"):
        out[f"workload.{stage}_s"] = (stages[stage], "s", 1)

    span_calls("peps.top_k")
    span_self("peps.top_k")
    span_self("peps.order_combinations")
    count("peps.combinations", tracer.returned["peps.order_combinations"])
    span_calls("runner.ids")
    span_calls("hypre.build_profile")
    span_self("hypre.build_profile")

    span_calls("sessions.get_or_create")
    hits = flat["serving.sessions.hits"]
    ratio("sessions.hit_ratio", hits, hits + flat["serving.sessions.misses"])
    count("sessions.built", flat["serving.sessions.sessions_built"])
    count("sessions.evictions", flat["serving.sessions.evictions"])
    span_self("sessions.invalidate_matching")

    for name in ("pair_index.refresh", "pair_index.invalidate_matching"):
        span_calls(name)
        span_self(name)
    count("pair_index.invalidate_matching.dropped",
          tracer.returned["pair_index.invalidate_matching"])
    hits = flat["index.count_cache.hits"]
    ratio("count_cache.hit_ratio", hits,
          hits + flat["index.count_cache.misses"])
    span_self("count_cache.count_many")
    span_self("count_cache.invalidate_matching")
    span_self("runner.invalidate_matching")
    tests = sum(counter.row_tests.values())
    count("predicate_row_tests", tests)
    ratio("predicate_row_tests_distinct_ratio", counter.distinct_row_tests,
          tests)

    hits = flat["serving.results.hits"]
    ratio("results.hit_ratio", hits, hits + flat["serving.results.misses"])
    span_calls("results.on_data_mutation")
    span_self("results.on_data_mutation")
    repairs = flat["serving.result_cache.repairs"]
    count("results.repairs", repairs)
    ratio("results.repair_ratio", repairs,
          repairs + flat["serving.result_cache.repair_fallbacks"])
    count("results.invalidated", flat["serving.results.data_invalidations"])
    count("results.spared", flat["serving.results.data_spared"])
    count("results.stale_puts_rejected",
          flat["serving.results.stale_puts_rejected"])

    count("backend.statements", traced.statements)
    for method in BACKEND_METHODS:
        span_calls(f"backend.{method}")
        span_self(f"backend.{method}")

    locks = probe.locks
    # ``instrument_locks`` reports the writer gate under the name "server".
    gate = next(lock for lock in locks if lock["name"] == "server")
    out["locks.gate.read_wait_s"] = (gate["read_wait_seconds"], "s",
                                     gate["read_acquisitions"])
    out["locks.gate.write_wait_s"] = (gate["write_wait_seconds"], "s",
                                      gate["write_acquisitions"])
    out["locks.gate.hold_s"] = (gate["hold_seconds"], "s",
                                gate["write_acquisitions"])
    count("locks.gate.contended", gate["contended"])
    stripes = [lock for lock in locks if lock["name"].startswith("stripe")]
    out["locks.stripes.wait_s"] = (
        sum(lock["wait_seconds"] for lock in stripes), "s",
        sum(lock["acquisitions"] for lock in stripes))
    sessions = [lock for lock in locks if lock["name"] == "sessions"]
    out["locks.sessions.wait_s"] = (
        sum(lock["wait_seconds"] for lock in sessions), "s",
        sum(lock["acquisitions"] for lock in sessions))

    for op in SERVER_OPS:
        span_calls(f"server.{op}")
    count("server.stripe_acquisitions",
          flat["serving.server.stripe_acquisitions"])

    sweeps = sum(spans[name]["self_s"] for name in SWEEPS)
    out["sweeps.self_s"] = (sweeps, "s", 1)
    busy = traced.wall_s - sum(traced.chunks)
    out["sweeps.wall_share"] = (_ratio(sweeps, busy), "ratio", 1)
    out["trace_overhead_ratio"] = (_ratio(traced.busy_s, untraced.busy_s),
                                   "ratio", 1)
    return out


def attributed_share(tracer: Tracer, reference_s: float) -> float:
    """Span self time over the client's busy interval.

    The client is busy from its first to its last front-door call, less
    ``reference_s``, the reference chunks it ran in between.  Self times
    partition the root spans exactly, so this is the share of the client's
    time the per-layer table accounts for; the remainder is the benchmark
    loop between front-door calls.
    """
    busy: Dict[str, List[float]] = {}
    total_self = 0.0
    for thread, _, start, end, self_s, root, _ in tracer.spans():
        total_self += self_s
        if root:
            window = busy.setdefault(thread, [start, end])
            window[0] = min(window[0], start)
            window[1] = max(window[1], end)
    total_busy = sum(end - start for start, end in busy.values())
    return _ratio(total_self, total_busy - reference_s)


def traced_run(workload: Any, seed: int, seconds: int, out_dir: str
               ) -> Tuple[Dict[str, Metric], int, int, List[str]]:
    """Five replays of one schedule, integrity checks, per-layer metrics.

    The replays are: untraced; spanned; spanned with the row-test counter;
    spanned with the counter once more; and the two-client lock probe.
    Self times and the tracing overhead come from the spanned replay, which
    the counter's own cost does not inflate; the row-test counts come from
    the third replay, and the fourth must repeat them exactly.  The probe's
    counts follow the thread interleaving, so no repeat is asked of it.
    """
    tracers = [None, Tracer(), Tracer(count_rows=True),
               Tracer(count_rows=True)]
    # The schedule of the timed run's first replay, served four times.
    schedule = replay_seeds(workload, seed)[0]
    results = run_replays(workload, [schedule] * len(tracers), seconds,
                          tracers, lock_probe=True)
    untraced, spanned, tracer = results[0], results[1], tracers[1]
    counter, probe = tracers[2], results[-1]
    results = results[:-1]
    metrics = layer_metrics(tracer, spanned, untraced, counter, probe)
    problems: List[str] = []
    for result in results + [probe]:
        problems += result.errors + result.mismatches

    # Each op is followed by a reference chunk; all but the last one run
    # between two front-door calls.
    share = attributed_share(tracer, sum(spanned.chunks[:-1]))
    print(f"spans {tracer.span_count}; self time covers {share:.4f} of the "
          f"client's busy time")
    if not MIN_ATTRIBUTED <= share <= 1.0 + 1e-9:
        problems.append(f"span self times cover {share:.4f} of the busy "
                        f"time, outside [{MIN_ATTRIBUTED}, 1]")
    print(f"row-test counter: the counted replay took "
          f"{_ratio(results[2].busy_s, spanned.busy_s):.4f} x the spanned "
          f"one (not in any self time)")
    for span_name, tests in sorted(counter.row_tests.items()):
        print(f"predicate_row_tests under {span_name}: {tests}")
    counts = [exact_counts(result) for result in results]
    for counted, trace in zip(counts[1:], tracers[1:]):
        counted["peps.combinations"] = trace.returned[
            "peps.order_combinations"]
    for counted, trace in zip(counts[2:], tracers[2:]):
        counted["predicate_row_tests"] = sum(trace.row_tests.values())
        counted["distinct_predicate_row_tests"] = trace.distinct_row_tests
    problems += repeat_problems(counts[2:])
    problems += repeat_problems([
        {key: value for key, value in counted.items() if key in counts[1]}
        for counted in counts[1:]])
    problems += repeat_problems([
        {key: value for key, value in counted.items() if key in counts[0]}
        for counted in counts])
    tracer.write(os.path.join(
        out_dir, f"spans-{workload.name}-seed{seed}.jsonl.gz"))
    attempted = sum(result.ops for result in results + [probe])
    failed = sum(len(result.errors) for result in results + [probe])
    return metrics, attempted, failed, problems
