"""The benchmark's workloads: world set-up, schedules and the timed replay.

Every workload drives a :class:`repro.serving.TopKServer` through its public
front door only (``top_k`` / ``update_profile`` / ``insert_tuples`` /
``delete_tuples`` / ``update_tuples``).  The world is the named scale's
dataset; the ``--seed`` drives the request schedules (which users ask,
which profiles change, which tuples are written), so one seed always
produces the same inputs.  A schedule is a fixed list of operations; a run
serves ``replays`` of them, each on a fresh world, and each is
``ops_per_second * seconds / replays`` long.  The work is the same for
every commit that runs the same seed, so two commits are compared on
identical work.  Every latency is reported at the reference speed (see
``reference.py``), which takes the host's own drifting speed out of it.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend import create_backend
from repro.experiments.context import SCALES
from repro.serving import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    READ,
    UPDATE,
    ReplayConfig,
    ReplayDriver,
    TopKServer,
    fresh_top_k,
)
from repro.telemetry.locks import instrument_locks
from repro.workload.loader import load_dataset
from repro.workload.synthetic import (
    SYNTHETIC_SCALES,
    generate_workload,
    synthetic_profile_factory,
)

import reference

K = 5


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload: sizes, op mix and why it exists."""

    name: str
    why: str
    family: str             # "dblp" or "synthetic"
    scale: str              # key of SCALES / SYNTHETIC_SCALES
    backend: str            # "memory" or "sqlite"
    users: int
    capacity: int
    #: (read, profile update, insert, delete, data update) weights, or None
    #: when ``mix`` names an adversarial mix instead.
    weights: Optional[Tuple[float, float, float, float, float]]
    mix: Optional[str]
    #: Zipf exponent of the per-user request skew (1.1 is the replay
    #: driver's and the load harness's default).
    zipf: float
    #: Ops per second of ``--seconds``, sized so that every reported
    #: percentile has at least 200 samples and a whole run (set-up, replays
    #: and answer checks) stays under a minute on a 2-vCPU machine at the
    #: benchmark's first commit.
    ops_per_second: float
    #: Replays per timed run, each serving its own schedule on a fresh world.
    replays: int
    #: The first ``setups`` worlds of a run are set up in full and timed
    #: (``setup_s`` is their median); later ones load the dataset the last
    #: of them generated.  Generation is deterministic, so the worlds are
    #: identical.  A world that takes seconds to generate is generated only
    #: a few times; a cheap one every time, because the median of a
    #: sub-second set-up needs many of them to hold still.
    setups: int

    def world_config(self) -> Any:
        if self.family == "synthetic":
            return SYNTHETIC_SCALES[self.scale]
        return SCALES[self.scale]

    def ops_for(self, seconds: int) -> int:
        """Ops in one replay: the run's replays share ``seconds``."""
        return int(round(self.ops_per_second * seconds / self.replays))

    def driver(self, seed: int, requests: int = 1) -> ReplayDriver:
        """The replay driver holding this workload's population and mix."""
        weights = self.weights or (8.0, 1.0, 1.0, 0.5, 0.5)
        config = ReplayConfig(
            users=self.users, requests=max(1, requests), k=K, seed=seed,
            read_weight=weights[0], update_weight=weights[1],
            insert_weight=weights[2], delete_weight=weights[3],
            data_update_weight=weights[4], mix=self.mix,
            zipf_exponent=self.zipf)
        factory = (synthetic_profile_factory(self.world_config())
                   if self.family == "synthetic" else None)
        return ReplayDriver(config, profile_factory=factory)

    def describe(self) -> Dict[str, Any]:
        """The workload's sizes, for the printed report and README."""
        world = self.world_config()
        return {"family": self.family, "scale": self.scale,
                "papers": world.n_papers, "backend": self.backend,
                "users": self.users, "session_capacity": self.capacity,
                "clients": 1, "loop": "closed",
                "replays": self.replays,
                "zipf_exponent": self.zipf,
                "mix": self.mix or "weights read:update:insert:delete:"
                                   "data_update = " + ":".join(
                                       f"{w:g}" for w in self.weights)}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="cold-read-large",
            why="working set above session capacity and profile updates "
                "dirtying cached users: time goes to cold Top-K compute in "
                "PEPS; no data mutations, so no sweep runs",
            family="dblp", scale="large", backend="memory",
            users=400, capacity=64,
            weights=(4.0, 1.0, 0.0, 0.0, 0.0), mix=None,
            # Flatter than the default: at 1.1 the hottest user draws a
            # fifth of all ops, every update makes its next cold compute
            # dearer, and a schedule's cost hinges on how far that one
            # profile grows.  At 0.6 the cold computes spread over many
            # users, and with a read hit ratio near 0.3 the read median
            # lies among cold computes, not on the hit/miss boundary.
            zipf=0.6,
            # Many short replays: a schedule's cost hinges on how far its
            # hottest users' profiles grow, which varies more by seed the
            # longer the schedule.  Not more of them, because checking a
            # replay's answers recomputes ~130 cold Top-Ks on the large
            # world, which takes about as long as the replay itself.
            ops_per_second=67.7, replays=8, setups=3),
        Workload(
            name="mutation-storm",
            why="every session and answer stays resident while ~46% of ops "
                "mutate cached pids: time goes to the invalidation sweeps "
                "and the sqlite write path, PEPS is a few percent",
            family="synthetic", scale="small", backend="sqlite",
            users=120, capacity=128,
            weights=None, mix="hot-keys", zipf=1.1,
            ops_per_second=175.0, replays=10, setups=10),
    )
}


# -- set-up -------------------------------------------------------------------------


@dataclass
class World:
    """One set-up world: the backend, its driver and the stage timings."""

    db: Any
    driver: ReplayDriver
    stages: Dict[str, float]
    #: The generated dataset the backend was loaded from.
    dataset: Any


def build_world(workload: Workload, seed: int, requests: int,
                dataset: Any = None) -> World:
    """Generate (unless ``dataset`` is given), load and profile one world,
    timing each stage."""
    stages: Dict[str, float] = {}
    driver = workload.driver(seed, requests)

    def timed(name: str, step: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        value = step()
        stages[name] = time.perf_counter() - start
        return value

    if dataset is None:
        dataset = timed("generate", lambda: generate_workload(
            workload.world_config()))
    db = create_backend(workload.backend)
    timed("load", lambda: load_dataset(db, dataset))
    timed("profiles", lambda: driver.prepare(db))
    return World(db=db, driver=driver, stages=stages, dataset=dataset)


def build_server(workload: Workload, db: Any) -> TopKServer:
    return TopKServer(db, capacity=workload.capacity)


# -- schedules ----------------------------------------------------------------------


def dealt(plan: List[Any]) -> List[List[Any]]:
    """``plan`` dealt to two clients for the lock probe of a traced run.

    Every data mutation goes to the first client, in schedule order, so no
    mutation can meet a tuple that a reordered one already deleted; each
    read and profile update goes to whichever client has had fewer ops so
    far, so both of them take the per-user stripe locks.  Reads of the
    second client then queue behind the sweeps the first one runs under the
    writer gate.
    """
    clients: List[List[Any]] = [[], []]
    for op in plan:
        if op.kind in (INSERT, DELETE, DATA_UPDATE):
            clients[0].append(op)
        else:
            clients[len(clients[1]) <= len(clients[0])].append(op)
    return clients


# -- the timed replay ---------------------------------------------------------------


@dataclass
class ClientLog:
    """One client's private accounting (merged after the replay)."""

    #: ``(is_read, latency_s)`` of every op that succeeded, in order.
    latencies: List[Tuple[bool, float]] = field(default_factory=list)
    #: The reference chunk timed after each op, when the replay runs them.
    chunks: List[float] = field(default_factory=list)
    answers: List[Tuple[int, int, Tuple[Tuple[int, float], ...]]] = field(
        default_factory=list)
    errors: List[str] = field(default_factory=list)


def execute(server: TopKServer, op: Any) -> Optional[Tuple]:
    """Run one op through the front door; returns a read's ranking."""
    if op.kind == READ:
        return server.top_k(op.uid, op.k).ranking
    if op.kind == UPDATE:
        server.update_profile(op.uid, op.profile)
    elif op.kind == INSERT:
        server.insert_tuples(op.papers, op.paper_authors)
    elif op.kind == DELETE:
        server.delete_tuples(op.pids)
    else:
        server.update_tuples(op.papers)
    return None


def _client(server: TopKServer, ops: Sequence[Any], log: ClientLog,
            start_gate: Optional[threading.Barrier],
            begin_op: Optional[Callable[[int], None]],
            first_id: int, measure_speed: bool) -> None:
    if start_gate is not None:
        start_gate.wait()
    clock = time.perf_counter
    for op_id, op in enumerate(ops, start=first_id):
        if begin_op is not None:
            begin_op(op_id)
        start = clock()
        try:
            ranking = execute(server, op)
        except Exception as error:  # an op error fails the run, not the loop
            log.errors.append(f"op {op_id} {op.kind} uid={op.uid}: "
                              f"{type(error).__name__}: {error}")
            continue
        elapsed = clock() - start
        log.latencies.append((op.kind == READ, elapsed))
        if op.kind == READ:
            log.answers.append((op_id, op.uid, ranking))
        if measure_speed:
            log.chunks.append(reference.chunk())


def verify_answers(server: TopKServer) -> Tuple[int, List[str]]:
    """Compare every materialised answer with a from-scratch recomputation."""
    checked = 0
    mismatches: List[str] = []
    for uid in server.results.cached_users():
        entry = server.results.peek(uid, K)
        if entry is None:
            continue
        fresh = [tuple(item) for item in fresh_top_k(server.db, uid, K)]
        if list(entry.ranking) != fresh:
            mismatches.append(f"uid={uid}: served {list(entry.ranking)!r} "
                              f"!= fresh {fresh!r}")
        checked += 1
    return checked, mismatches


#: Op ids: client ``c``'s ``i``-th op is ``c * CLIENT_ID_STRIDE + i``.
CLIENT_ID_STRIDE = 10 ** 7


def replay(server: TopKServer, plans: List[List[Any]],
           begin_op: Optional[Callable[[int], None]] = None,
           measure_speed: bool = False) -> Tuple[float, List[ClientLog]]:
    """Replay the per-client plans closed-loop; returns the wall time.

    One client runs on the calling thread; two (the lock probe) run on
    threads released together by a barrier.  ``begin_op(op_id)`` is called
    on the client's thread before each op (the traced run tags spans with
    it).  With ``measure_speed`` a reference chunk is timed after each op.
    """
    logs = [ClientLog() for _ in plans]
    if len(plans) == 1:
        start = time.perf_counter()
        _client(server, plans[0], logs[0], None, begin_op, 0, measure_speed)
        return time.perf_counter() - start, logs
    gate = threading.Barrier(len(plans) + 1)
    threads = [threading.Thread(
        target=_client, name=f"bench-client-{index}",
        args=(server, plan, log, gate, begin_op, index * CLIENT_ID_STRIDE,
              measure_speed))
        for index, (plan, log) in enumerate(zip(plans, logs))]
    for thread in threads:
        thread.start()
    gate.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, logs


@dataclass
class RunResult:
    """Everything one replay of the schedule produced."""

    #: ``None`` when the world reused a generated dataset.
    setup_s: Optional[float]
    wall_s: float
    ops: int
    statements: int
    #: Op latencies, at the reference speed when the replay measured it.
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    #: The host's slowdown against the reference speed (1.0 when the
    #: replay did not measure it), and the reference chunks' times.
    slowdown: float = 1.0
    chunks: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    answers: int = 0
    checked: int = 0
    digest: str = ""
    #: The numeric ``server.metrics()`` counters.
    counters: Dict[str, Any] = field(default_factory=dict)
    #: Per-lock reports of an instrumented server (traced replays only).
    locks: List[Dict[str, Any]] = field(default_factory=list)
    #: Set-up stage timings of the world that served the schedule.
    stages: Dict[str, float] = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        """Summed op latency (at the reference speed, when measured)."""
        return sum(self.reads) + sum(self.writes)


def serve(workload: Workload, world: World, world_s: float,
          plans: List[List[Any]], tracer: Any = None,
          measure_speed: bool = False, locks: bool = False,
          slowdown: float = 1.0) -> RunResult:
    """Build a server on ``world``, replay ``plans``, check every answer.

    ``world_s`` is the time the world took to set up; the server's
    construction, divided by the host's ``slowdown`` during that set-up,
    is added to it.  With a ``tracer`` (see ``tracing.py``) the layer spans
    are installed for the server's whole life.  With a tracer or ``locks``
    the server's locks are instrumented.  The server and the world are
    closed on return.
    """
    try:
        if tracer is not None:
            # Installed before the server subscribes its data listener, so
            # the listener it binds is the spanned one.
            tracer.install(type(world.db))
        try:
            start = time.perf_counter()
            server = build_server(workload, world.db)
            setup_s = world_s + (time.perf_counter() - start) / slowdown
            instrumented = (instrument_locks(server)
                            if tracer is not None or locks else None)
            statements = world.db.statements_executed
            wall, logs = replay(server, plans, begin_op=(
                tracer.begin_op if tracer is not None else None),
                measure_speed=measure_speed)
            statements = world.db.statements_executed - statements
        finally:
            if tracer is not None:
                tracer.uninstall()
        with server:
            result = RunResult(setup_s=setup_s, wall_s=wall,
                               ops=sum(len(plan) for plan in plans),
                               statements=statements, stages=world.stages)
            result.checked, result.mismatches = verify_answers(server)
            result.counters = {
                key: value for key, value in server.metrics().items()
                if isinstance(value, (int, float))}
            if instrumented is not None:
                result.locks = instrumented.report()
    finally:
        world.db.close()
    digest = hashlib.sha256()
    for log in logs:
        latencies = [latency for _, latency in log.latencies]
        if measure_speed:
            latencies = reference.at_reference_speed(latencies, log.chunks)
            result.slowdown = reference.slowdown(log.chunks)
            result.chunks += log.chunks
        for (is_read, _), latency in zip(log.latencies, latencies):
            (result.reads if is_read else result.writes).append(latency)
        result.errors += log.errors
        for answer in log.answers:
            digest.update(repr(answer).encode())
        result.answers += len(log.answers)
    result.digest = digest.hexdigest()
    return result


def replay_seeds(workload: Workload, seed: int) -> List[int]:
    """The schedule seeds of a timed run's replays, derived from ``seed``.

    Each replay of a timed run serves its own short schedule, so one run
    samples ``workload.replays`` independent schedules.  On
    ``cold-read-large`` a schedule's cost hinges on how far the hottest
    user's profile grows, so several short schedules vary far less than one
    long one.
    """
    return [seed * workload.replays + index
            for index in range(workload.replays)]


def run_replays(workload: Workload, seeds: Sequence[int], seconds: int,
                tracers: Sequence[Any], lock_probe: bool = False
                ) -> List[RunResult]:
    """One replay per ``(schedule seed, tracer)`` pair, in order.

    ``None`` tracers replay untraced.  Every replay gets its own world;
    replays with the same seed serve the identical schedule.  Every latency
    and set-up time is put at the reference speed.  With ``lock_probe`` one
    more replay follows: the first schedule
    :func:`dealt` to two clients, with the server's locks instrumented and
    no reference chunks, which would only add to the time locks are held.
    """
    ops = workload.ops_for(seconds)
    results: List[RunResult] = []
    plans: Dict[int, List[Any]] = {}
    dataset = None
    jobs = [(seed, tracer, False) for seed, tracer in zip(seeds, tracers)]
    if lock_probe:
        jobs.append((seeds[0], None, True))
    for index, (seed, tracer, probe) in enumerate(jobs):
        full = index < workload.setups
        slowdown = 1.0
        start = time.perf_counter()
        if full and not probe:
            with reference.SetupClock() as clock:
                world = build_world(workload, seed, ops)
            world_s, slowdown = clock.seconds, clock.slowdown
        else:
            world = build_world(workload, seed, ops,
                                None if full else dataset)
            world_s = time.perf_counter() - start
        dataset = world.dataset
        if seed not in plans:
            plans[seed] = world.driver.schedule(world.db)
        result = serve(workload, world, world_s,
                       dealt(plans[seed]) if probe else [plans[seed]],
                       tracer, measure_speed=not probe, locks=probe,
                       slowdown=slowdown)
        if not full:
            result.setup_s = None
        results.append(result)
    return results


#: Work counters the program keeps that a serial replay must repeat exactly.
EXACT_COUNTERS = (
    "serving.sessions.sessions_built", "serving.sessions.hits",
    "serving.sessions.misses", "serving.sessions.evictions",
    "serving.results.hits", "serving.results.misses",
    "serving.result_cache.repairs", "serving.results.data_invalidations",
    "serving.results.data_spared", "index.count_cache.hits",
    "index.count_cache.misses", "index.count_cache.statements")


def exact_counts(result: RunResult) -> Dict[str, Any]:
    """The answer digest and the program's own work counters of a replay."""
    counts: Dict[str, Any] = {key: result.counters[key]
                              for key in EXACT_COUNTERS}
    counts["backend.statements"] = result.statements
    counts["answer_digest"] = result.digest
    return counts


def repeat_problems(counts: Sequence[Dict[str, Any]]) -> List[str]:
    """Exact-repeat gate: every replay of one schedule must produce
    identical counts."""
    first = counts[0]
    return [f"replays differ on {key}: {other.get(key)!r} != {value!r}"
            for other in counts[1:]
            for key, value in sorted(first.items())
            if other.get(key) != value]


# -- end-to-end numbers -------------------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, int(math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results: Sequence[RunResult]
               ) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for every end-to-end metric.

    Set-up time is the median over the full set-ups.  Throughput is every
    replay's ops over their summed op latencies (the time the single client
    waited on the server), and latency percentiles are taken over the
    replays' pooled samples.  All of them are at the reference speed.
    """
    setups = [r.setup_s for r in results if r.setup_s is not None]
    reads = [sample for result in results for sample in result.reads]
    writes = [sample for result in results for sample in result.writes]
    ops = sum(result.ops for result in results)
    errors = sum(len(result.errors) for result in results)
    statements = sum(result.statements for result in results)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "throughput_ops_s": ((len(reads) + len(writes))
                             / sum(r.busy_s for r in results), "ops/s",
                             len(reads) + len(writes)),
        "read_p50_ms": (percentile(reads, 0.50) * 1e3, "ms", len(reads)),
        "read_p95_ms": (percentile(reads, 0.95) * 1e3, "ms", len(reads)),
        "mutation_p50_ms": (percentile(writes, 0.50) * 1e3, "ms",
                            len(writes)),
        "mutation_p95_ms": (percentile(writes, 0.95) * 1e3, "ms",
                            len(writes)),
        "sql_per_op": (statements / ops, "statements/op", ops),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "failed_op_ratio": (errors / ops, "ratio", ops),
    }
