"""Translation validation (paper Section 3.4).

After extraction, Diospyros checks that the optimized vector-DSL
program is equivalent to the lifted specification for *all* inputs,
removing the rewrite rules and the saturation engine from the trusted
computing base.  Our validator:

1. **Flattens** the vectorized program back to one scalar expression
   per output lane (pure symbolic evaluation of the vector structure --
   ``VecMAC``/``VecAdd``/``Concat`` etc. are unfolded lane-wise).
   Padding lanes beyond the spec's output count are ignored, mirroring
   the zero-padding rules.
2. Proves each lane equal to the corresponding spec expression over
   the reals via rational-function canonicalization
   (:mod:`repro.validation.canon`) -- a decision procedure for this
   fragment, standing in for the paper's SMT query.
3. Falls back to **randomized differential testing** for lanes whose
   polynomial form explodes (deep QR-style kernels) or that contain
   uninterpreted calls with user-supplied concrete semantics, mirroring
   the paper's optional user-provided function semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..chaos.inject import chaos_point
from ..dsl.ast import Term
from ..dsl.interp import evaluate_output
from ..frontend.lift import Spec, random_inputs
from .canon import CanonLimits, CanonOverflow, Work, equivalent

#: Lanes with more unique nodes than this skip the canonical decision
#: procedure (polynomial expansion would overflow anyway).
_CANON_SIZE_GATE = 200

__all__ = ["flatten_to_scalars", "ValidationResult", "LaneResult", "validate"]


def flatten_to_scalars(term: Term) -> List[Term]:
    """Unfold a vector-DSL program into per-lane scalar expressions.

    This is symbolic evaluation of the *vector structure only*: vector
    operators distribute over lanes, ``Concat`` concatenates, ``List``
    flattens.  Scalar subterms pass through untouched.
    """
    op = term.op
    if op == "List":
        lanes: List[Term] = []
        for item in term.args:
            lanes.extend(flatten_to_scalars(item))
        return lanes
    if op == "Concat":
        return flatten_to_scalars(term.args[0]) + flatten_to_scalars(term.args[1])
    if op == "Vec":
        return list(term.args)
    if op in ("VecAdd", "VecMinus", "VecMul", "VecDiv"):
        scalar_op = {"VecAdd": "+", "VecMinus": "-", "VecMul": "*", "VecDiv": "/"}[op]
        left = flatten_to_scalars(term.args[0])
        right = flatten_to_scalars(term.args[1])
        if len(left) != len(right):
            raise ValueError(f"lane mismatch in {op}: {len(left)} vs {len(right)}")
        return [Term(scalar_op, (a, b)) for a, b in zip(left, right)]
    if op == "VecMAC":
        acc = flatten_to_scalars(term.args[0])
        a = flatten_to_scalars(term.args[1])
        b = flatten_to_scalars(term.args[2])
        if not len(acc) == len(a) == len(b):
            raise ValueError("lane mismatch in VecMAC")
        return [Term("+", (c, Term("*", (x, y)))) for c, x, y in zip(acc, a, b)]
    if op in ("VecNeg", "VecSqrt", "VecSgn"):
        scalar_op = {"VecNeg": "neg", "VecSqrt": "sqrt", "VecSgn": "sgn"}[op]
        return [Term(scalar_op, (a,)) for a in flatten_to_scalars(term.args[0])]
    # A scalar expression is a single lane.
    return [term]


@dataclass
class LaneResult:
    """Validation outcome for one output lane."""

    index: int
    ok: bool
    method: str  # "structural" | "canonical" | "random"
    detail: str = ""
    #: Canonicalization work charged for this lane (0 when the
    #: procedure did not run); past ``CanonLimits.max_work`` when it
    #: overflowed.
    work: int = 0


@dataclass
class ValidationResult:
    """Outcome of validating one compilation."""

    ok: bool
    lanes: List[LaneResult] = field(default_factory=list)

    @property
    def methods_used(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for lane in self.lanes:
            counts[lane.method] = counts.get(lane.method, 0) + 1
        return counts

    def failing_lanes(self) -> List[LaneResult]:
        return [l for l in self.lanes if not l.ok]


def validate(
    spec: Spec,
    optimized: Term,
    limits: Optional[CanonLimits] = None,
    random_trials: int = 8,
    tolerance: float = 1e-6,
    rng: Optional[random.Random] = None,
    funcs: Optional[Mapping[str, Callable[..., float]]] = None,
    seed: Optional[int] = None,
) -> ValidationResult:
    """Validate ``optimized`` against ``spec``.

    Each output lane is checked structurally, then canonically
    (decision procedure over the reals), then -- only if the canonical
    form overflows or involves uninterpreted calls -- by randomized
    differential evaluation with the given number of trials.

    The randomized lanes draw from ``rng`` if given, else from a fresh
    ``random.Random(seed)``; ``seed`` defaults to the historical 1234
    so existing callers keep their exact sampling.  Callers that retry
    (``compile_spec``'s validation rung) shift the seed between
    attempts so reruns are reproducible but varied.
    """
    from ..observability import current_session, span

    limits = limits or CanonLimits()
    rng = rng or random.Random(1234 if seed is None else seed)
    funcs = dict(funcs or {})

    with span("validation.validate", kernel=spec.name) as vspan:
        spec_lanes = flatten_to_scalars(spec.term)
        opt_lanes = flatten_to_scalars(optimized)
        n = spec.n_outputs
        if len(opt_lanes) < n:
            if vspan is not None:
                vspan.set(ok=False, reason="lane_count_mismatch")
            return ValidationResult(
                ok=False,
                lanes=[
                    LaneResult(0, False, "structural",
                               f"optimized program has {len(opt_lanes)} lanes, "
                               f"spec needs {n}")
                ],
            )

        # Pre-generate shared random environments so the fallback lanes
        # are all checked against the same samples.
        envs = [random_inputs(spec, rng) for _ in range(random_trials)]

        lanes: List[LaneResult] = []
        all_ok = True
        for i in range(n):
            lane = _validate_lane(
                i, spec_lanes[i], opt_lanes[i], limits, envs, tolerance, funcs
            )
            lanes.append(lane)
            all_ok = all_ok and lane.ok
        result = ValidationResult(ok=all_ok, lanes=lanes)
        if vspan is not None:
            vspan.set(ok=all_ok, lanes=n, methods=result.methods_used)
        session = current_session()
        if session is not None and session.metrics is not None:
            counter = session.metrics.counter(
                "repro_validation_lanes_total",
                "Validated output lanes, by proof method and verdict",
                labels=("method", "verdict"),
            )
            for lane in lanes:
                counter.labels(
                    method=lane.method, verdict="ok" if lane.ok else "fail"
                ).inc()
        return result


def _validate_lane(
    index: int,
    spec_lane: Term,
    opt_lane: Term,
    limits: CanonLimits,
    envs: Sequence[Mapping[str, Sequence[float]]],
    tolerance: float,
    funcs: Mapping[str, Callable[..., float]],
) -> LaneResult:
    chaos_point("validate.lane")
    if spec_lane == opt_lane:
        return LaneResult(index, True, "structural")
    spec_size, spec_calls, spec_irrational = _scan(spec_lane)
    opt_size, opt_calls, opt_irrational = _scan(opt_lane)
    # Deep DAGs (QR-style kernels) explode under polynomial expansion;
    # skip straight to randomized testing rather than burn the canon
    # work budget lane after lane.
    too_deep = spec_size > _CANON_SIZE_GATE or opt_size > _CANON_SIZE_GATE
    work = 0
    if not (spec_calls or opt_calls) and not too_deep:
        budget = Work(limits)
        try:
            proved = equivalent(spec_lane, opt_lane, limits, budget)
        except CanonOverflow:
            proved = None  # fall through to randomized testing
        except ZeroDivisionError as exc:
            work = limits.max_work - budget.remaining
            return LaneResult(index, False, "canonical", str(exc), work)
        work = limits.max_work - budget.remaining
        if proved:
            return LaneResult(index, True, "canonical", work=work)
        # A positive answer is always sound.  A NEGATIVE answer is
        # only decisive for pure rational expressions: sqrt/sgn
        # subterms are keyed by non-reduced rational forms, so two
        # equal-but-differently-written arguments yield distinct
        # atoms (incompleteness, not unsoundness).  Fall back to
        # randomized testing in that case.
        if proved is False and not (spec_irrational or opt_irrational):
            return LaneResult(
                index, False, "canonical", "canonical forms differ", work
            )
    lane = _random_lane(index, spec_lane, opt_lane, spec_calls, envs, tolerance, funcs)
    lane.work = work
    return lane


def _random_lane(
    index: int,
    spec_lane: Term,
    opt_lane: Term,
    spec_calls: bool,
    envs: Sequence[Mapping[str, Sequence[float]]],
    tolerance: float,
    funcs: Mapping[str, Callable[..., float]],
) -> LaneResult:
    if spec_calls and not funcs:
        # Mirrors the paper: uninterpreted calls with no user-provided
        # semantics can cause spurious failures, so we refuse to claim
        # success and report the situation instead.
        return LaneResult(
            index,
            False,
            "random",
            "lane uses uninterpreted functions and no concrete semantics "
            "were provided (see paper Section 3.4)",
        )
    valid = 0
    for env in envs:
        try:
            expected = evaluate_output(spec_lane, env, funcs)[0]
            actual = evaluate_output(opt_lane, env, funcs)[0]
        except (ValueError, ZeroDivisionError):
            # A randomly-invalid input (negative sqrt, zero divisor):
            # skip the sample rather than mis-reporting.
            continue
        valid += 1
        scale = max(1.0, abs(expected))
        if abs(expected - actual) > tolerance * scale:
            return LaneResult(
                index,
                False,
                "random",
                f"mismatch: expected {expected!r}, got {actual!r}",
            )
    if not valid:
        # Every sample was invalid: no evidence either way, so no pass.
        return LaneResult(index, False, "random", "no valid random sample")
    return LaneResult(index, True, "random")


def _scan(term: Term) -> Tuple[int, bool, bool]:
    """One walk over a lane's DAG: its unique size, whether it has an
    uninterpreted ``Call``, and whether it has operators outside the
    rational fragment (``sqrt``/``sgn``), for which the canonicalizer
    is sound but incomplete."""
    seen = set()
    stack = [term]
    calls = irrational = False
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        op = t.op
        if op == "Call":
            calls = True
        elif op == "sqrt" or op == "sgn":
            irrational = True
        stack.extend(t.args)
    return len(seen), calls, irrational
