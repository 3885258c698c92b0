"""Span recording from outside the compiler.

:func:`install` replaces each layer's public function with a wrapper
that records a span (name, start, end, parent) around the original
call, and :func:`uninstall` puts the originals back.  Nothing under
``src/`` changes: the wrapped pipeline runs exactly the code users run.

Parents follow a context variable, so nesting is per thread and per
asyncio task.  A service call runs on a gateway executor thread, where
the submitting task's context is not visible; it is re-parented onto
the ``gateway.submit`` span that carried the same spec and options.
Spans are recorded only in the process that installed the wrappers --
a forked compile worker inherits them but records nothing; its layer
times come back on the ``CompileResult`` instead.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; spans are kept until the run reports."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        #: (id(spec), id(options)) -> open gateway.submit spans, oldest first.
        self._submits: Dict[Tuple[int, int], List[Span]] = defaultdict(list)

    @property
    def active(self) -> bool:
        return os.getpid() == self.pid

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[Span]:
        if parent is None:
            parent = self._current.get()
        record = Span(next(self._ids), parent, name, time.perf_counter())
        token = self._current.set(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(record)

    def open_submit(self, spec, options, record: Span) -> None:
        with self._lock:
            self._submits[(id(spec), id(options))].append(record)

    def close_submit(self, spec, options, record: Span) -> None:
        with self._lock:
            waiting = self._submits.get((id(spec), id(options)), [])
            if record in waiting:
                waiting.remove(record)

    def submit_parent(self, spec, options) -> Optional[int]:
        """The open submit span a service call on an executor thread
        belongs to (same spec and options objects; spec alone when the
        gateway replaced the options)."""
        with self._lock:
            exact = self._submits.get((id(spec), id(options)))
            if exact:
                return exact[0].id
            for (spec_id, _), waiting in self._submits.items():
                if spec_id == id(spec) and waiting:
                    return waiting[0].id
        return None


#: Pipeline stages a forked worker reports on its ``CompileResult``.
WORKER_STAGES = ("saturation", "extraction", "lowering", "validation")


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_service_call(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def compile_spec(self, spec, options=None, *args, **kwargs):
        if not recorder.active:
            return fn(self, spec, options, *args, **kwargs)
        parent = recorder._current.get() or recorder.submit_parent(spec, options)
        with recorder.span("service.compile_spec", parent=parent) as record:
            result = fn(self, spec, options, *args, **kwargs)
            record.attrs["hit"] = result.diagnostics.cache_hit
            if not result.diagnostics.cache_hit:
                record.attrs["compile_time"] = result.compile_time
                record.attrs["stages"] = {
                    stage: result.diagnostics.stage_time(stage) for stage in WORKER_STAGES
                }
            return result

    return compile_spec


def _wrap_submit(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    async def submit(self, spec, options=None, *args, **kwargs):
        with recorder.span("gateway.submit") as record:
            recorder.open_submit(spec, options, record)
            try:
                return await fn(self, spec, options, *args, **kwargs)
            finally:
                recorder.close_submit(spec, options, record)

    return submit


#: (module, attribute, span name) of every wrapped layer function.  The
#: compiler binds its stage functions by name at import time, so they
#: are replaced in ``repro.compiler``'s namespace; methods are replaced
#: on their class.
_PLAIN = (
    ("repro.compiler", "lift", "frontend.lift"),
    ("repro.egraph.runner:Runner", "run", "egraph.run"),
    ("repro.compiler", "execute_plan", "phases.execute_plan"),
    ("repro.egraph.extract:Extractor", "extract", "extract.extract"),
    ("repro.compiler", "lower_spec_program", "backend.lower"),
    ("repro.compiler", "lvn_optimize", "backend.lvn"),
    ("repro.compiler", "emit_c", "backend.codegen"),
    ("repro.compiler", "validate", "validation.validate"),
    ("repro.service.cache:ArtifactCache", "get", "cache.get"),
    ("repro.service.cache:ArtifactCache", "put", "cache.put"),
)


def _owner(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer function; returns the function that restores
    the originals."""
    from repro.service.gateway import CompileGateway
    from repro.service.supervisor import CompileService

    saved = []
    targets = [(_owner(path), attr, lambda fn, n=name: _wrap(recorder, n, fn))
               for path, attr, name in _PLAIN]
    targets.append((CompileService, "compile_spec", lambda fn: _wrap_service_call(recorder, fn)))
    targets.append((CompileGateway, "submit", lambda fn: _wrap_submit(recorder, fn)))
    for owner, attr, make in targets:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Layer table
# ----------------------------------------------------------------------


def with_worker_stages(spans: List[Span]) -> List[Span]:
    """Add a ``worker.<stage>`` child under each cold service call for
    every stage its forked worker reported (laid end to end from the
    call's start; only their durations enter the table)."""
    ids = itertools.count(max((s.id for s in spans), default=0) + 1)
    extra = []
    for s in spans:
        at = s.start
        for stage, seconds in s.attrs.get("stages", {}).items():
            extra.append(Span(next(ids), s.id, "worker." + stage, at, at + seconds))
            at += seconds
    return spans + extra


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    children: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return {s.id: max(0.0, s.duration - children[s.id]) for s in spans}


def layer_rows(spans: List[Span]) -> List[Tuple[Tuple[str, ...], int, float, float]]:
    """Aggregate spans by their name path from the root: rows of
    (path, calls, total seconds, self seconds), depth-first."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(s: Span) -> Tuple[str, ...]:
        if s.id not in paths:
            parent = by_id.get(s.parent) if s.parent is not None else None
            paths[s.id] = (path_of(parent) if parent else ()) + (s.name,)
        return paths[s.id]

    agg: Dict[Tuple[str, ...], List[float]] = {}
    for s in spans:
        row = agg.setdefault(path_of(s), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[s.id]
    return [(p, int(r[0]), r[1], r[2]) for p, r in sorted(agg.items())]


def render_table(title: str, spans: List[Span], wall: float) -> str:
    rows = layer_rows(spans)
    lines = [
        f"layer table: {title} (traced wall {wall:.3f} s; unscaled seconds)",
        f"  {'layer':44s} {'calls':>7s} {'total s':>10s} {'self s':>10s} {'self/wall':>9s}",
    ]
    for path, calls, total, own in rows:
        label = "  " * (len(path) - 1) + path[-1]
        share = 100.0 * own / wall if wall > 0 else 0.0
        lines.append(f"  {label:44s} {calls:7d} {total:10.4f} {own:10.4f} {share:8.1f}%")
    covered, reach = 0.0, float("-inf")
    for s in sorted((s for s in spans if s.parent is None), key=lambda s: s.start):
        covered += max(0.0, s.end - max(s.start, reach))
        reach = max(reach, s.end)
    lines.append(f"  {'(outside every span)':44s} {'':7s} {max(0.0, wall - covered):10.4f}")
    return "\n".join(lines)
