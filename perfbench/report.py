"""Turn measured windows into the benchmark's metrics.

End-to-end metrics come from an untraced window; per-layer metrics from
a traced one (spans recorded by :mod:`tracing`) plus the counters the
compiler returns on every ``CompileResult``.  Every metric is printed
on every workload; a layer a workload never enters reads 0.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from typing import Dict, Iterable, List, Sequence

from repro.evaluation.common import geomean

from tracing import Span, self_times
from workloads import Ledger, Outcome


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0..100): a measured sample,
    never a blend of two kernels' latencies."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def by_kernel(outcomes: Iterable[Outcome]) -> Dict[str, List[Outcome]]:
    groups: Dict[str, List[Outcome]] = {}
    for o in outcomes:
        groups.setdefault(o.kernel, []).append(o)
    return groups


def compile_seconds(ledger: Ledger, served: bool) -> Dict[str, float]:
    """Per-kernel median compile seconds: the wall time of each
    ``compile_kernel`` call in-process, or the worker-reported
    ``CompileResult.compile_time`` of each cold request when served."""
    medians = {}
    for kernel, outs in by_kernel(ledger.completed).items():
        if served:
            times = [o.timings["compile"] for o in outs if not o.hit]
        else:
            times = [o.latency for o in outs]
        if times:
            medians[kernel] = statistics.median(times)
    return medians


def kernel_facts(ledger: Ledger) -> Dict[str, Outcome]:
    """One completed outcome per kernel (its counters are deterministic)."""
    return {k: outs[0] for k, outs in sorted(by_kernel(ledger.completed).items())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ledger: Ledger, setup_s: float, served: bool) -> Dict[str, float]:
    per_kernel = compile_seconds(ledger, served)
    facts = kernel_facts(ledger)
    if served:
        latencies = [o.latency for o in ledger.completed]
    else:
        # Each kernel's compiles form a cluster of their own; a
        # percentile over every sample sits on a cluster's edge and
        # jumps with noise, so it is taken over the kernels' medians.
        latencies = list(per_kernel.values())
    attempted = len(ledger.outcomes)
    failed = sum(1 for o in ledger.outcomes if o.failure)
    return {
        "setup_s": setup_s,
        "compile_s_geomean": geomean(per_kernel.values()),
        "compile_s_total": sum(per_kernel.values()),
        "cycles_geomean": geomean(o.cycles for o in facts.values()),
        "code_instrs_total": sum(o.facts["instrs"] for o in facts.values()),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
        "request_p50_ms": 1e3 * percentile(latencies, 50),
        "request_p95_ms": 1e3 * percentile(latencies, 95),
        "requests_per_s": len(ledger.completed) / ledger.wall,
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Span name of each in-process layer time, and the worker stage that
#: stands in for it when the layer ran in a forked worker.
_LAYER_TIMES = (
    ("frontend.lift_s", "frontend.lift", None),
    ("egraph.saturate_s", "egraph.run", "saturate"),
    ("phases.saturate_s", "phases.execute_plan", None),
    ("extract.extract_s", "extract.extract", "stage.extraction"),
    ("backend.lower_s", "backend.lower", "stage.lowering"),
    ("backend.lvn_s", "backend.lvn", None),
    ("backend.codegen_s", "backend.codegen", None),
    ("validation.validate_s", "validation.validate", "stage.validation"),
)


def per_layer(
    ledger: Ledger,
    spans: List[Span],
    counters: Dict[str, float],
    untraced: Ledger,
) -> Dict[str, float]:
    """Layer metrics of one traced window.  Times are seconds per
    request (in-process spans, or the stage times a forked worker
    returned); counts are summed over the workload's kernels."""
    n = max(1, len(ledger.outcomes))
    totals: Dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
    cold = [o for o in ledger.completed if not o.hit]
    forked = any(s.name == "service.compile_spec" for s in spans)

    metrics: Dict[str, float] = {}
    for name, span_name, worker_stage in _LAYER_TIMES:
        if forked:
            value = sum(o.timings[worker_stage] for o in cold) if worker_stage else 0.0
        else:
            value = totals.get(span_name, 0.0)
        metrics[name] = value / n
    metrics["egraph.search_s"] = sum(o.timings["search"] for o in ledger.completed if not o.hit) / n

    facts = [o.facts for o in kernel_facts(ledger).values()]

    def total(key: str) -> int:
        return sum(f[key] for f in facts)

    for key in ("iterations", "matches", "applied", "unions", "deduped", "classes_visited"):
        metrics[f"egraph.{key}"] = total(key)
    metrics["egraph.dup_ratio"] = total("deduped") / max(1, total("matches"))
    metrics["egraph.useful_ratio"] = total("unions") / max(1, total("applied"))
    metrics["egraph.nodes_peak"] = max(f["nodes_peak"] for f in facts)
    metrics["phases.rounds"] = total("phase_rounds")
    metrics["phases.peak_nodes"] = max(f["phase_peak_nodes"] for f in facts)
    metrics["backend.lvn_removed_ratio"] = 1.0 - total("instrs") / max(1, total("instrs_unoptimized"))
    metrics["validation.lanes_canonical"] = total("lanes_canonical")
    metrics["validation.lanes_random"] = total("lanes_random")

    metrics.update(_serve_layers(ledger, spans, counters))

    selfs = self_times(spans)
    requests = [s for s in spans if s.name == "request"]
    metrics["trace.unaccounted_ms"] = 1e3 * sum(selfs[s.id] for s in requests) / n
    traced_mean = statistics.mean(o.latency for o in ledger.outcomes)
    untraced_mean = statistics.mean(o.latency for o in untraced.outcomes)
    metrics["trace.overhead_pct"] = 100.0 * (traced_mean / untraced_mean - 1.0)
    return metrics


def _serve_layers(ledger: Ledger, spans: List[Span], counters: Dict[str, float]) -> Dict[str, float]:
    calls = [s for s in spans if s.name == "service.compile_spec"]
    hit_calls = [s.duration for s in calls if s.attrs.get("hit")]
    cold_calls = [s for s in calls if not s.attrs.get("hit")]
    service_time: Dict[int, float] = {}
    for s in calls:
        if s.parent is not None:
            service_time[s.parent] = service_time.get(s.parent, 0.0) + s.duration
    submits = [s for s in spans if s.name == "gateway.submit"]
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    return {
        "service.call_hit_ms": 1e3 * _median_or_zero(hit_calls),
        "service.call_cold_ms": 1e3 * _median_or_zero([s.duration for s in cold_calls]),
        "service.overhead_ms": 1e3 * _median_or_zero(
            [s.duration - s.attrs["compile_time"] for s in cold_calls if "compile_time" in s.attrs]
        ),
        "service.retries": counters.get("retries", 0),
        "cache.get_ms": 1e3 * _median_or_zero([s.duration for s in spans if s.name == "cache.get"]),
        "cache.put_ms": 1e3 * _median_or_zero([s.duration for s in spans if s.name == "cache.put"]),
        "cache.hit_ratio": counters.get("cache_hits", 0) / lookups if lookups else 0.0,
        "gateway.wait_ms": 1e3 * (
            statistics.mean(s.duration - service_time.get(s.id, 0.0) for s in submits)
            if submits else 0.0
        ),
        "gateway.hit_p50_ms": 1e3 * _median_or_zero([o.latency for o in ledger.completed if o.hit]) if submits else 0.0,
        "gateway.cold_p50_ms": 1e3 * _median_or_zero([o.latency for o in ledger.completed if not o.hit]) if submits else 0.0,
        "gateway.coalesced": counters.get("coalesced", 0),
        "gateway.shed": counters.get("shed", 0),
    }


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


# ----------------------------------------------------------------------
# Human-readable tables (standard error)
# ----------------------------------------------------------------------


def kernel_table(ledger: Ledger, served: bool) -> str:
    per_kernel = compile_seconds(ledger, served)
    lines = [
        f"  {'kernel':22s} {'n':>4s} {'median s':>9s} {'instrs':>6s} {'cycles':>8s} "
        f"{'stop':12s} {'lanes c/r':>9s} fingerprint"
    ]
    for kernel, outs in sorted(by_kernel(ledger.outcomes).items()):
        done = [o for o in outs if o.fingerprint]
        if not done:
            lines.append(f"  {kernel:22s} {len(outs):4d} all failed: {outs[0].failure}")
            continue
        o = done[0]
        prints = ",".join(sorted({d.fingerprint for d in done}))
        lines.append(
            f"  {kernel:22s} {len(outs):4d} {per_kernel.get(kernel, 0.0):9.4f} "
            f"{o.facts['instrs']:6d} {o.cycles:8.0f} {o.stops[0]:12s} "
            f"{o.facts['lanes_canonical']:4d}/{o.facts['lanes_random']:<4d} {prints}"
        )
    return "\n".join(lines)


def programs_digest(ledger: Ledger) -> str:
    """One digest over every kernel's program fingerprints, to compare
    runs and seeds at a glance."""
    text = ";".join(f"{k}={','.join(sorted(v))}" for k, v in sorted(ledger.fingerprints().items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
