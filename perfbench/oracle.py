"""Correctness oracle and per-compile facts.

The oracle is the evaluation harness's differential check,
``repro.evaluation.common.measure``: it runs an emitted program on the
``fusion_g3`` simulator with seeded inputs and compares the ``out``
buffer with the kernel's own Python reference
(``Kernel.reference_outputs``) -- never with the compiler's translation
validator.  Programs are memoized by fingerprint: two programs with one
fingerprint have the same canonical text, so one check answers for both.

:func:`failure_of` says which finished compiles count as failed in
``ok_frac`` by their own report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.evaluation.common import measure

#: Input sets simulated per distinct program.
TRIALS = 2


def derive_seed(seed: int, *parts: object) -> int:
    """A 32-bit seed from the workload seed and a label, stable across
    processes (``hash`` is salted per interpreter)."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    cycles: float
    why: str = ""


class Oracle:
    """Seeded inputs for each kernel, and a fingerprint-memoized check
    of emitted programs against the kernel's reference on them."""

    def __init__(self, kernels: Sequence, seed: int) -> None:
        self._kernels = {k.name: k for k in kernels}
        self._seed = seed
        self._verdicts: Dict[Tuple[str, str], Verdict] = {}

    def check(self, kernel_name: str, program, fingerprint: str) -> Verdict:
        key = (kernel_name, fingerprint)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._simulate(kernel_name, program)
            self._verdicts[key] = verdict
        return verdict

    def _simulate(self, kernel_name: str, program) -> Verdict:
        kernel = self._kernels[kernel_name]
        cycles = 0.0
        for trial in range(TRIALS):
            input_seed = derive_seed(self._seed, kernel_name, trial)
            try:
                cycles, ok = measure(program, kernel, input_seed)
            except Exception as exc:  # noqa: BLE001 - a crash is a wrong answer
                return Verdict(False, 0.0, f"simulation raised {type(exc).__name__}: {exc}")
            if not ok:
                return Verdict(False, cycles, f"outputs differ from the reference on input seed {input_seed}")
        return Verdict(True, cycles)


def stop_reasons(result) -> List[str]:
    """Every saturation stop reason of a compile: the run's, plus each
    phase round's when the compile was phased."""
    reasons = [result.report.stop_reason]
    if result.phases is not None:
        reasons += [r.stop_reason for p in result.phases.phases for r in p.rounds]
    return reasons


def failure_of(result) -> Optional[str]:
    """Why a finished compile counts as failed by its own report, or
    ``None``.  A compile that raised or was refused, or whose outputs
    the oracle rejects, is failed too (see ``workloads.Ledger``)."""
    if result.degraded:
        return "degraded"
    if not result.validated:
        return "not validated"
    if "time_limit" in stop_reasons(result):
        return "stopped on time"
    return None


def compile_facts(result) -> Dict[str, float]:
    """Deterministic work counters of one compile, read from its public
    reports (``RunReport``, ``PlanReport``, ``ValidationResult``)."""
    report = result.report
    its = report.iterations
    methods = result.validation.methods_used if result.validation else {}
    plan = result.phases
    return {
        "iterations": len(its),
        "matches": sum(i.matches for i in its),
        "applied": sum(i.applied for i in its),
        "unions": sum(i.unions for i in its),
        "deduped": sum(i.deduped for i in its),
        "classes_visited": sum(i.visited for i in its),
        "nodes_peak": max([result.egraph_nodes] + [i.nodes for i in its]),
        "phase_rounds": sum(len(p.rounds) for p in plan.phases) if plan else 0,
        "phase_peak_nodes": plan.peak_version if plan else 0,
        "instrs": len(result.program),
        "instrs_unoptimized": len(result.program_unoptimized),
        "lanes_canonical": methods.get("canonical", 0),
        "lanes_random": methods.get("random", 0),
    }


def compile_timings(result) -> Dict[str, float]:
    """Seconds a compile reports for itself: whole compile, saturation
    (and the searchers inside it), and each pipeline stage."""
    diag = result.diagnostics
    return {
        "compile": result.compile_time,
        "saturate": result.report.total_time,
        "search": sum(s.search_time for s in result.report.rule_stats.values()),
        "stage.saturation": diag.stage_time("saturation"),
        "stage.extraction": diag.stage_time("extraction"),
        "stage.lowering": diag.stage_time("lowering"),
        "stage.validation": diag.stage_time("validation"),
    }
