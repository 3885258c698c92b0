"""A compile creates no reference cycles, and pauses the cyclic
collector while it runs (DESIGN.md §15).

* Cycle-free: with the collector off, a compile followed by a
  ``gc.collect()`` under ``DEBUG_SAVEALL`` leaves ``gc.garbage`` empty --
  reference counting alone freed every e-graph, hashcons and term cache
  the compile discarded.
* The guard: ``compile_spec`` disables automatic collection while any
  in-process compile runs, re-enables it when the last one returns or
  raises, leaves a collector the caller disabled alone, and a forked
  child starts with the guard reset.
"""

import gc
import os
import sys
import threading
import time

import pytest

from repro import compiler
from repro.compiler import CompileOptions, compile_spec
from repro.errors import DeadlineExceededError
from repro.kernels import get_kernel, make_qr
from repro.observability import Observability

MATMUL = get_kernel("matmul-2x2-2x2").spec()
QR = make_qr(2).spec()


@pytest.fixture
def collector_on():
    """Run the test with the collector enabled, restoring the caller's
    state afterwards."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def _cyclic_garbage(compile_once):
    """Objects only the cyclic collector could free after one compile
    (after a warm-up compile, so one-time imports and caches are not
    counted)."""
    compile_once()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        compile_once()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        if was:
            gc.enable()
    return garbage


def _summary(garbage):
    kinds = {}
    for obj in garbage:
        kinds[type(obj).__name__] = kinds.get(type(obj).__name__, 0) + 1
    return sorted(kinds.items(), key=lambda kv: -kv[1])[:8]


@pytest.mark.parametrize(
    "spec, extra",
    [
        pytest.param(MATMUL, {}, id="monolithic"),
        pytest.param(MATMUL, {"phases": "on"}, id="phased"),
        pytest.param(QR, {}, id="qr-random-lanes"),
        pytest.param(
            MATMUL, {"observability": Observability(enabled=True)},
            id="observability",
        ),
        pytest.param(MATMUL, {"checkpoint_egraph": True}, id="checkpoint-egraph"),
        pytest.param(MATMUL, {"select_best_candidate": True}, id="best-candidate"),
    ],
)
def test_compile_leaves_no_cyclic_garbage(spec, extra):
    options = CompileOptions(time_limit=None, **extra)
    garbage = _cyclic_garbage(lambda: compile_spec(spec, options))
    assert not garbage, _summary(garbage)


def test_checkpointed_compile_leaves_no_cyclic_garbage(tmp_path):
    dirs = iter(range(2))

    def compile_once():
        directory = tmp_path / str(next(dirs))
        options = CompileOptions(time_limit=None, checkpoint_dir=str(directory))
        compile_spec(MATMUL, options)

    garbage = _cyclic_garbage(compile_once)
    assert not garbage, _summary(garbage)


def test_collector_paused_during_compile_and_restored(collector_on, monkeypatch):
    seen = []
    pipeline = compiler._compile_pipeline

    def spy(spec, options):
        seen.append(gc.isenabled())
        return pipeline(spec, options)

    monkeypatch.setattr(compiler, "_compile_pipeline", spy)
    compile_spec(MATMUL, CompileOptions(time_limit=None, validate=False))
    assert seen == [False]
    assert gc.isenabled()


def test_collector_restored_after_a_compile_that_raises(collector_on):
    with pytest.raises(DeadlineExceededError):
        compile_spec(MATMUL, CompileOptions(deadline=time.time() - 1.0))
    assert gc.isenabled()
    assert compiler._collector_pause._depth == 0


def test_collector_the_caller_disabled_stays_disabled(collector_on):
    gc.disable()
    compile_spec(MATMUL, CompileOptions(time_limit=None, validate=False))
    assert not gc.isenabled()
    with pytest.raises(DeadlineExceededError):
        compile_spec(MATMUL, CompileOptions(deadline=time.time() - 1.0))
    assert not gc.isenabled()


def test_overlapping_compiles_reenable_only_after_the_last(collector_on, monkeypatch):
    """Two threads compile at overlapping times: the collector stays
    paused until both have returned."""
    first_inside = threading.Event()
    release_first = threading.Event()
    pipeline = compiler._compile_pipeline

    def gated(spec, options):
        if threading.current_thread().name == "first":
            first_inside.set()
            assert release_first.wait(30)
        return pipeline(spec, options)

    monkeypatch.setattr(compiler, "_compile_pipeline", gated)
    options = CompileOptions(time_limit=None, validate=False)
    errors = []

    def work():
        try:
            compile_spec(MATMUL, options)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    first = threading.Thread(target=work, name="first")
    first.start()
    assert first_inside.wait(30)
    second = threading.Thread(target=work, name="second")
    second.start()
    second.join(60)
    assert not second.is_alive()
    # The second compile returned while the first is still running.
    assert not gc.isenabled()
    release_first.set()
    first.join(60)
    assert not first.is_alive()
    assert not errors
    assert gc.isenabled()
    assert compiler._collector_pause._depth == 0


def test_guard_counts_exactly_under_thread_contention(collector_on):
    """More threads than cores enter and leave the guard with a tiny
    switch interval: a lost update of the depth would leave the
    collector paused, or enable it under a thread still inside."""
    guard = compiler._collector_pause
    failures = []

    def hammer():
        for _ in range(2000):
            with guard:
                if gc.isenabled():
                    failures.append("collector enabled inside the guard")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert guard._depth == 0
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_with_the_guard_reset(collector_on):
    guard = compiler._collector_pause
    with guard:
        assert not gc.isenabled()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 0
            try:
                if not gc.isenabled() or guard._depth != 0:
                    code = 1
                else:
                    compile_spec(MATMUL, CompileOptions(time_limit=None, validate=False))
                    if not gc.isenabled() or guard._depth != 0:
                        code = 2
            except BaseException:  # noqa: BLE001 - reported by exit code
                code = 3
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        # The parent's guard is untouched by the fork.
        assert guard._depth == 1 and not gc.isenabled()
    assert os.waitstatus_to_exitcode(status) == 0
    assert gc.isenabled()
