"""Outside-in layer tracing for the wall-clock benchmark.

Each layer named in ``design.json`` is a list of public functions of the
``repro`` package, given as ``module:attribute`` or
``module:Class.method``.  :class:`LayerTracer` replaces each of them, in
the module or class that the caller looks it up in, with a wrapper that
records one span per call, and puts the originals back afterwards.  No
program file changes, and a run without a tracer executes the program
untouched.

Spans are kept per thread in memory: layer, start, end, parent span and
operation id (the index of the root span the call happened under).  A
layer's self time is its span's duration minus the durations of its
child spans, so the self times of one thread never overlap and, with the
time no span covers, sum to that thread's traced time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

#: Thread roles the reconciliation is reported for.
ROLES = ("ingest", "query")


class MissingLayerError(LookupError):
    """A wrapped name no longer exists where the design says it is."""


@dataclass
class _ThreadSpans:
    name: str
    spans: list[list[Any]] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)


@dataclass
class Ledger:
    """Per-layer totals of one traced pass."""

    calls: dict[str, int]
    self_s: dict[str, float]
    #: inclusive time of root ``query.engine.query`` spans: engine work
    #: done on threads that did not enter through another layer
    root_engine_s: float
    traced_s: dict[str, float]
    unattributed_s: dict[str, float]


class LayerTracer:
    """Records spans around the public functions of each layer."""

    def __init__(self, layers: dict[str, dict[str, Any]]) -> None:
        self.layers = layers
        self.active = False
        #: callbacks fed the return value of a traced call, by layer
        self.observers: dict[str, Callable[[Any], None]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._active_s = 0.0
        self._resumed_at = 0.0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every layer target; raises if a target is missing."""
        try:
            for layer, spec in self.layers.items():
                for target in spec["wraps"]:
                    self._patch(layer, target, spec.get("only_under"))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def _patch(self, layer: str, target: str, only_under: str | None) -> None:
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *scopes, name = path.split(".")
        for scope in scopes:
            owner = getattr(owner, scope)
        # the name must be bound on this very module or class: a layer
        # whose function moved or was re-imported under another name
        # fails loudly instead of recording nothing
        raw = vars(owner).get(name)
        if raw is None:
            raise MissingLayerError(f"layer {layer}: {target} not found")
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(layer, raw.__func__, only_under))
        else:
            wrapped = self._wrap(layer, raw, only_under)
        self._patches.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def _wrap(
        self, layer: str, fn: Callable[..., Any], only_under: str | None
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            spans = state.spans
            if only_under is not None and (
                not stack or spans[stack[-1]][0] != only_under
            ):
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            op = spans[stack[0]][4] if stack else index
            record = [layer, 0.0, 0.0, parent, op]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            observer = tracer.observers.get(layer)
            if observer is not None:
                observer(result)
            return result

        return traced

    def _state(self) -> _ThreadSpans:
        state: _ThreadSpans | None = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # ------------------------------------------------------------ windows

    def resume(self) -> None:
        """Open a traced window: calls from now on record spans."""
        self._resumed_at = perf_counter()
        self.active = True

    def pause(self) -> None:
        """Close the traced window opened by :meth:`resume`."""
        self.active = False
        self._active_s += perf_counter() - self._resumed_at

    # ------------------------------------------------------------- ledger

    def ledger(self) -> Ledger:
        """Fold the recorded spans into per-layer and per-role totals.

        A thread's role is ``ingest`` when one of its root spans is a
        write-path layer and ``query`` otherwise; each thread that
        recorded spans contributes the whole traced window to its role's
        ``traced_s``, so waiting and idle time show as unattributed.
        """
        calls = {layer: 0 for layer in self.layers}
        self_s = {layer: 0.0 for layer in self.layers}
        traced = {role: 0.0 for role in ROLES}
        covered = {role: 0.0 for role in ROLES}
        root_engine_s = 0.0
        for state in self._threads:
            spans = state.spans
            child_s = [0.0] * len(spans)
            for layer, start, end, parent, _op in spans:
                if parent >= 0:
                    child_s[parent] += end - start
            role = "query"
            thread_self = 0.0
            for index, (layer, start, end, parent, _op) in enumerate(spans):
                own = (end - start) - child_s[index]
                calls[layer] += 1
                self_s[layer] += own
                thread_self += own
                if parent < 0:
                    if self.layers[layer]["path"] == "write":
                        role = "ingest"
                    if layer == "query.engine.query":
                        root_engine_s += end - start
            if spans:
                traced[role] += self._active_s
                covered[role] += thread_self
        return Ledger(
            calls=calls,
            self_s=self_s,
            root_engine_s=root_engine_s,
            traced_s=traced,
            unattributed_s={r: traced[r] - covered[r] for r in ROLES},
        )

    def write_spans(self, path: Path) -> None:
        """Write every span as one tab-separated line per call, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("thread\tlayer\tstart\tend\tparent\top\n")
            for state in self._threads:
                for layer, start, end, parent, op in state.spans:
                    out.write(
                        f"{state.name}\t{layer}\t{start:.9f}\t{end:.9f}"
                        f"\t{parent}\t{op}\n"
                    )


class NullTracer:
    """Stands in for :class:`LayerTracer` in an untraced pass."""

    def resume(self) -> None:
        pass

    def pause(self) -> None:
        pass


def coverage_problems(
    design: dict[str, Any], workload: str, calls: dict[str, int]
) -> list[str]:
    """Layers silent where exercised, or recording where bypassed."""
    exercised = set(design["coverage"]["exercised"][workload])
    bypassed = set(design["coverage"]["bypassed"][workload])
    problems = []
    for layer, spec in design["layers"].items():
        path = spec["path"]
        if path in exercised and calls[layer] == 0:
            problems.append(f"{layer} recorded no calls on {workload}")
        if path in bypassed and calls[layer] > 0:
            problems.append(
                f"{layer} ({path} path) recorded {calls[layer]} calls "
                f"on {workload}, which bypasses it"
            )
    return problems
