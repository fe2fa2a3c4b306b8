"""Span recording for the traced run, installed from the benchmark's side.

The program itself is left untouched: :class:`Tracer` wraps the public
functions of each serving-path layer (class attributes, patched for the
duration of the traced run and restored afterwards) in spans kept in
memory.  A span has a name, start, end, parent and the id of the request
(benchmark op) that caused it.  A span's *self time* is its duration minus
the time its child spans cover, so summing self time by name splits the
traced wall time into layers.

``exact_match_row`` (the predicate-versus-row test) is counted rather than
spanned — it runs far too often for a span each.  Modules bind it by name
(``from .selectivity import exact_match_row``), so the counter replaces the
name in every ``repro`` module that holds it, and each call is attributed
to the enclosing span.  The counter costs more than the test it counts, and
that cost would land in the enclosing span's self time, so it is installed
only on a tracer made with ``count_rows=True``; self times come from a
tracer without it.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.algorithms.base import PreferenceQueryRunner
from repro.algorithms.peps import PEPSAlgorithm
from repro.core.hypre.builder import HypreGraphBuilder
from repro.core.predicate import ensure_predicate
from repro.index import selectivity
from repro.index.count_cache import CountCache
from repro.index.pair_index import IncrementalPairIndex
from repro.serving.results import ResultCache
from repro.serving.server import TopKServer
from repro.serving.sessions import SessionRegistry

#: Backend methods spanned as ``backend.<method>`` on the engine in use.
BACKEND_METHODS = ("count_many", "matching_paper_ids", "joined_rows",
                   "append_papers", "delete_papers", "update_papers",
                   "read_profiles", "load_profiles", "notify")

#: Front-door operations spanned as ``server.<op>`` (the root spans).
SERVER_OPS = ("top_k", "update_profile", "insert_tuples", "delete_tuples",
              "update_tuples")

#: ``(class, method, span name)`` of every spanned layer function.
LAYER_FUNCTIONS: Tuple[Tuple[type, str, str], ...] = (
    (PEPSAlgorithm, "top_k", "peps.top_k"),
    (PEPSAlgorithm, "order_combinations", "peps.order_combinations"),
    (PreferenceQueryRunner, "ids", "runner.ids"),
    (PreferenceQueryRunner, "invalidate_matching",
     "runner.invalidate_matching"),
    (HypreGraphBuilder, "build_profile", "hypre.build_profile"),
    (SessionRegistry, "get_or_create", "sessions.get_or_create"),
    (SessionRegistry, "invalidate_matching", "sessions.invalidate_matching"),
    (IncrementalPairIndex, "refresh", "pair_index.refresh"),
    (IncrementalPairIndex, "invalidate_matching",
     "pair_index.invalidate_matching"),
    (CountCache, "count_many", "count_cache.count_many"),
    (CountCache, "invalidate_matching", "count_cache.invalidate_matching"),
    (ResultCache, "on_data_mutation", "results.on_data_mutation"),
    # The database listener: spanned so that ``backend.notify`` self time
    # excludes the server's fan-out to the caches.
    (TopKServer, "_on_data_mutation", "server.on_data_mutation"),
) + tuple((TopKServer, op, f"server.{op}") for op in SERVER_OPS)

#: The four per-cache invalidation sweeps a data mutation runs.
SWEEPS = ("results.on_data_mutation", "runner.invalidate_matching",
          "count_cache.invalidate_matching", "pair_index.invalidate_matching")

#: Spans whose integer return value is summed as ``<name>.returned``.
SUMMED_RETURNS = frozenset({"pair_index.invalidate_matching"})
#: Spans whose returned list length is summed as ``<name>.returned``.
COUNTED_RETURNS = frozenset({"peps.order_combinations"})


#: Marks a patched attribute the owner only inherited (restored by deletion).
_INHERITED = object()


class _Frame:
    __slots__ = ("name", "index", "start", "child")

    def __init__(self, name: str, index: int, start: float) -> None:
        self.name = name
        self.index = index
        self.start = start
        self.child = 0.0


class _ThreadState:
    """One thread's spans, open-span stack and row-test counters.

    Every recording path touches only the calling thread's state, so the
    hot path takes no lock and concurrent counts stay exact.
    """

    def __init__(self) -> None:
        self.thread = threading.current_thread().name
        #: ``(name, start, end, self_s, parent index, request id)``; parent
        #: indexes point into this same list.
        self.spans: List[Tuple[str, float, float, float, int, int]] = []
        self.stack: List[_Frame] = []
        self.request = -1
        self.row_tests: Dict[str, int] = defaultdict(int)
        self.distinct_tests: set = set()
        self.returned: Dict[str, int] = defaultdict(int)


class Tracer:
    """In-memory span recorder plus the layer patches that feed it."""

    def __init__(self, count_rows: bool = False) -> None:
        #: Whether :meth:`install` also counts ``exact_match_row`` calls.
        self.count_rows = count_rows
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def begin_op(self, op_id: int) -> None:
        """Tag the calling thread's next spans with request ``op_id``."""
        self._state().request = op_id

    def _enter(self, name: str) -> _Frame:
        state = self._state()
        stack = state.stack
        frame = _Frame(name, len(state.spans), 0.0)
        state.spans.append((name, 0.0, 0.0, 0.0,
                            stack[-1].index if stack else -1, state.request))
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        duration = end - frame.start
        if state.stack:
            state.stack[-1].child += duration
        _, _, _, _, parent, request = state.spans[frame.index]
        state.spans[frame.index] = (frame.name, frame.start, end,
                                    duration - frame.child, parent, request)

    # -- patching -----------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute,
                              vars(owner).get(attribute, _INHERITED)))
        setattr(owner, attribute, replacement)

    def _wrap(self, function: Callable, name: str) -> Callable:
        tracer = self
        summed = name in SUMMED_RETURNS
        counted = name in COUNTED_RETURNS

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._enter(name)
            try:
                value = function(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if summed or counted:
                tracer._state().returned[name] += (
                    int(value) if summed else len(value))
            return value
        return traced

    def install(self, backend_class: type) -> None:
        """Patch every layer function; call :meth:`uninstall` to restore."""
        for owner, method, name in LAYER_FUNCTIONS:
            self._patch(owner, method, self._wrap(owner.__dict__[method],
                                                  name))
        for method in BACKEND_METHODS:
            function = _find_method(backend_class, method)
            self._patch(backend_class, method,
                        self._wrap(function, f"backend.{method}"))
        if not self.count_rows:
            return
        original = selectivity.exact_match_row
        counted = self._count_row_tests(original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "exact_match_row", None) is original):
                self._patch(module, "exact_match_row", counted)

    def _count_row_tests(self, function: Callable) -> Callable:
        """``function`` counting each call under the enclosing span and
        recording its (predicate, row content) pair for the distinct ratio.

        Predicates and rows are long-lived objects tested many times, so
        their content keys are memoised by identity; the memo holds a
        reference to each object, so an identity is never reused.
        """
        tracer = self
        memo: Dict[int, Tuple[Any, int]] = {}
        interned: Dict[Any, int] = {}
        lock = threading.Lock()

        def content_key(value: Any, make_key: Callable[[Any], Any]) -> int:
            entry = memo.get(id(value))
            if entry is None:
                with lock:
                    key = make_key(value)
                    entry = (value, interned.setdefault(key, len(interned)))
                    memo[id(value)] = entry
            return entry[1]

        @functools.wraps(function)
        def counted(predicate: Any, row: Any) -> Any:
            state = tracer._state()
            state.row_tests[state.stack[-1].name if state.stack
                            else "(none)"] += 1
            state.distinct_tests.add(
                (content_key(predicate, ensure_predicate),
                 content_key(row, lambda r: tuple(r.items()))))
            return function(predicate, row)
        return counted

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------------

    def spans(self) -> Iterator[Tuple[str, str, float, float, float, bool,
                                      int]]:
        """``(thread, name, start, end, self_s, is_root, request)`` of every
        recorded span."""
        for state in self._threads:
            for name, start, end, self_s, parent, request in state.spans:
                yield (state.thread, name, start, end, self_s, parent < 0,
                       request)

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """``name -> {"calls", "self_s", "total_s"}`` over every span."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for _, name, start, end, self_s, _, _ in self.spans():
            row = table[name]
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
        return table

    def _merged(self, attribute: str) -> Dict[str, int]:
        merged: Dict[str, int] = defaultdict(int)
        for state in self._threads:
            for name, value in getattr(state, attribute).items():
                merged[name] += value
        return merged

    @property
    def row_tests(self) -> Dict[str, int]:
        """Predicate-versus-row tests by enclosing span name."""
        return self._merged("row_tests")

    @property
    def returned(self) -> Dict[str, int]:
        """Summed return values of the spans in ``SUMMED_RETURNS`` /
        ``COUNTED_RETURNS``."""
        return self._merged("returned")

    @property
    def distinct_row_tests(self) -> int:
        """Distinct (predicate, row content) pairs tested."""
        pairs: set = set()
        for state in self._threads:
            pairs |= state.distinct_tests
        return len(pairs)

    @property
    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._threads)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip) for offline analysis."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("thread", "name", "start", "end", "self_s", "root",
                  "request")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for record in self.spans():
                handle.write(json.dumps(dict(zip(fields, record))) + "\n")


def _find_method(cls: type, name: str) -> Callable:
    """``name`` as defined on ``cls`` or its nearest base (unbound)."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass.__dict__[name]
    raise AttributeError(f"{cls.__name__} has no method {name!r}")
