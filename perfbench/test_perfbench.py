"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They check that the oracle rejects a wrong program and counts it as
failed, that every metric ``BENCHMARK.json`` names is printed once with
its unit, that programs do not depend on the seed or on tracing, and
that the benchmark refuses to run without the compiler's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.backend.vir import Program, SLoad, SStore  # noqa: E402
from repro.compiler import compile_kernel  # noqa: E402

import report  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import Ledger, fresh_kernels, options  # noqa: E402


def _compile(name: str, **overrides):
    (kernel,) = fresh_kernels([name])
    opts = dataclasses.replace(options(), **overrides)
    return kernel, compile_kernel(kernel.name, kernel.reference, kernel.inputs, kernel.outputs, opts)


def _swap_output_lanes(program: Program, a: int, b: int) -> Program:
    """The same program with output lanes ``a`` and ``b`` exchanged."""
    swap = [
        SLoad("swap.a", "out", a), SLoad("swap.b", "out", b),
        SStore("out", a, "swap.b"), SStore("out", b, "swap.a"),
    ]
    return Program(program.name, dict(program.inputs), dict(program.outputs),
                   list(program.instructions) + swap, program.vector_width)


def test_oracle_counts_a_program_with_swapped_output_lanes_as_failed():
    kernel, good = _compile("matmul-2x2-2x2")
    _, bad = _compile("matmul-2x2-2x2")
    bad.program = _swap_output_lanes(bad.program, 0, 1)
    ledger = Ledger(wall=1.0)
    ledger.add_result(kernel.name, 0.01, good)
    ledger.add_result(kernel.name, 0.01, bad)
    ledger.finish(Oracle([kernel], seed=3))

    ok, wrong = ledger.outcomes
    assert ok.failure is None and not ok.wrong
    assert wrong.wrong and wrong.failure.startswith("wrong outputs")
    assert report.end_to_end(ledger, setup_s=1.0, served=False)["ok_frac"] == 0.5


def test_unvalidated_compile_counts_as_failed():
    kernel, result = _compile("matmul-2x2-2x2", validate=False)
    ledger = Ledger(wall=1.0)
    ledger.add_result(kernel.name, 0.01, result)
    ledger.finish(Oracle([kernel], seed=3))
    assert ledger.outcomes[0].failure == "not validated"
    assert not ledger.outcomes[0].wrong


def _declared(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT, seconds: float = 1):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]

    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        assert len(keys) == len(set(keys)), f"duplicate keys {keys}"
        return dict(pairs)

    result = json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicates)
    digest = [line.split()[-1] for line in proc.stderr.splitlines()
              if line.startswith("programs digest")]
    return result, digest[0]


@pytest.mark.parametrize("workload", ["compile-paper", "serve-mix"])
def test_every_metric_printed_once_with_its_unit_and_programs_repeat(workload):
    digests = set()
    for seed, trace, section in ((1, 0, "end_to_end"), (2, 1, "per_layer")):
        result, digest = _result(_run(workload, seed, trace))
        digests.add(digest)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == _declared(section)
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in metrics.values())
    # Seed 1 untraced and seed 2 traced emit the same programs.
    assert len(digests) == 1


def test_refuses_to_run_without_the_compiler_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("compile-paper", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
