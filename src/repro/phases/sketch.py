"""Goal sketches: shape predicates over DSL terms.

*Sketch-Guided Equality Saturation* (PAPERS.md) steers each phase of a
phased saturation run toward a *sketch* -- a partial description of
what the program should look like after the phase ("contains a
``VecMAC``", "no scalar ``*`` under a ``Concat``").  This module is
the sketch language: small, picklable combinator objects with

* :meth:`Sketch.satisfied` -- does an extracted term meet the goal?
* :meth:`Sketch.score`     -- how close is it, in ``[0, 1]``?  The
  executor records the score per phase and uses it to decide whether
  an ``extend`` on-miss policy made progress.
* :meth:`Sketch.evaluate`  -- both at once: every part of the sketch
  reads one shared operator histogram of the term, so the executor
  walks each extracted term once per round.  Subclasses implement
  ``_score`` (and, for junctions, ``_satisfied``) over that
  :class:`_TermFacts` view.
* :meth:`Sketch.required_ops` / :meth:`Sketch.forbidden_ops` -- the
  operator hints the phase executor turns into an extraction bias
  (reward the ops the sketch wants present, penalize the ops it wants
  gone), so the *extractor* pulls the e-graph toward the sketch even
  when the cost model alone would prefer a pre-phase shape.

Sketches are deliberately plain classes (no lambdas, no closures):
they ride inside ``PhasePlan`` through pickle across the worker
boundary and into checkpoint keys, so they need structural ``repr``/
equality and nothing process-local.

Everything is also JSON round-trippable (:func:`sketch_from_json` /
:meth:`Sketch.to_json`) for the ``--phase-plan`` CLI knob.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from ..dsl.ast import Term

__all__ = [
    "Sketch",
    "Contains",
    "CountAtLeast",
    "NoneOf",
    "NoneUnder",
    "Not",
    "All",
    "AnyOf",
    "op_counts",
    "sketch_from_json",
]


def _unique_nodes(term: Term) -> Iterator[Term]:
    """Every unique subterm (DAG nodes, not tree occurrences)."""
    seen = set()
    stack = [term]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        stack.extend(current.args)


def op_counts(term: Term) -> Dict[str, int]:
    """Operator histogram over the term's unique subterms."""
    counts: Dict[str, int] = {}
    for node in _unique_nodes(term):
        counts[node.op] = counts.get(node.op, 0) + 1
    return counts


class _TermFacts:
    """A term and its operator histogram, computed on first use and
    then shared by every sketch part that asks."""

    __slots__ = ("term", "_counts")

    def __init__(self, term: Term) -> None:
        self.term = term
        self._counts: Optional[Dict[str, int]] = None

    @property
    def counts(self) -> Dict[str, int]:
        if self._counts is None:
            self._counts = op_counts(self.term)
        return self._counts


class Sketch:
    """Base sketch.  Subclasses are immutable and compare by repr."""

    def satisfied(self, term: Term) -> bool:
        return self._satisfied(_TermFacts(term))

    def score(self, term: Term) -> float:
        return self._score(_TermFacts(term))

    def evaluate(self, term: Term) -> Tuple[float, bool]:
        """``(score(term), satisfied(term))`` from one walk of the term."""
        facts = _TermFacts(term)
        return self._score(facts), self._satisfied(facts)

    def _satisfied(self, facts: _TermFacts) -> bool:
        return self._score(facts) >= 1.0

    def _score(self, facts: _TermFacts) -> float:
        raise NotImplementedError

    def required_ops(self) -> FrozenSet[str]:
        """Ops whose *presence* this sketch asks for (bias: reward)."""
        return frozenset()

    def forbidden_ops(self) -> FrozenSet[str]:
        """Ops whose *absence* this sketch asks for (bias: penalize)."""
        return frozenset()

    def to_json(self) -> Dict[str, Any]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))


class Contains(Sketch):
    """The term contains at least one node with operator ``op``."""

    def __init__(self, op: str) -> None:
        self.op = op

    def _score(self, facts: _TermFacts) -> float:
        return 1.0 if facts.counts.get(self.op, 0) > 0 else 0.0

    def required_ops(self) -> FrozenSet[str]:
        return frozenset((self.op,))

    def to_json(self) -> Dict[str, Any]:
        return {"kind": "contains", "op": self.op}

    def __repr__(self) -> str:
        return f"Contains({self.op!r})"


class CountAtLeast(Sketch):
    """At least ``count`` unique nodes with operator ``op``.

    The score is the fraction attained, which gives the extend policy a
    progress signal long before the goal is met.
    """

    def __init__(self, op: str, count: int) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.op = op
        self.count = count

    def _score(self, facts: _TermFacts) -> float:
        return min(1.0, facts.counts.get(self.op, 0) / self.count)

    def required_ops(self) -> FrozenSet[str]:
        return frozenset((self.op,))

    def to_json(self) -> Dict[str, Any]:
        return {"kind": "count", "op": self.op, "count": self.count}

    def __repr__(self) -> str:
        return f"CountAtLeast({self.op!r}, {self.count})"


class NoneOf(Sketch):
    """No node anywhere in the term uses any of ``ops``.

    This is the workhorse goal of cleanup-style phases ("no scalar
    arithmetic left").  The score decays with the number of offending
    nodes so shrinking the violation set counts as progress.
    """

    def __init__(self, ops: Iterable[str]) -> None:
        self.ops: Tuple[str, ...] = tuple(sorted(set(ops)))
        if not self.ops:
            raise ValueError("NoneOf needs at least one operator")

    def _score(self, facts: _TermFacts) -> float:
        counts = facts.counts
        bad = sum(counts.get(op, 0) for op in self.ops)
        return 1.0 if bad == 0 else 1.0 / (1.0 + bad)

    def forbidden_ops(self) -> FrozenSet[str]:
        return frozenset(self.ops)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": "none", "ops": list(self.ops)}

    def __repr__(self) -> str:
        return f"NoneOf({list(self.ops)!r})"


class NoneUnder(Sketch):
    """No node with an op in ``ops`` in any subtree rooted at ``under``.

    The scoped variant of :class:`NoneOf` -- e.g. "no scalar ``*``
    under a ``Concat``" tolerates scalar multiplies in a pre-amble but
    not inside the vectorized region.
    """

    def __init__(self, under: str, ops: Iterable[str]) -> None:
        self.under = under
        self.ops: Tuple[str, ...] = tuple(sorted(set(ops)))
        if not self.ops:
            raise ValueError("NoneUnder needs at least one operator")

    def _violations(self, term: Term) -> int:
        banned = set(self.ops)
        bad = set()
        for node in _unique_nodes(term):
            if node.op != self.under:
                continue
            for sub in _unique_nodes(node):
                if sub.op in banned:
                    bad.add(sub)
        return len(bad)

    def _score(self, facts: _TermFacts) -> float:
        bad = self._violations(facts.term)
        return 1.0 if bad == 0 else 1.0 / (1.0 + bad)

    def forbidden_ops(self) -> FrozenSet[str]:
        return frozenset(self.ops)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": "none-under", "under": self.under, "ops": list(self.ops)}

    def __repr__(self) -> str:
        return f"NoneUnder({self.under!r}, {list(self.ops)!r})"


class Not(Sketch):
    """Negation.  Required/forbidden hints swap sides."""

    def __init__(self, inner: Sketch) -> None:
        self.inner = inner

    def _score(self, facts: _TermFacts) -> float:
        return 1.0 - self.inner._score(facts)

    def required_ops(self) -> FrozenSet[str]:
        return self.inner.forbidden_ops()

    def forbidden_ops(self) -> FrozenSet[str]:
        return self.inner.required_ops()

    def to_json(self) -> Dict[str, Any]:
        return {"kind": "not", "of": self.inner.to_json()}

    def __repr__(self) -> str:
        return f"Not({self.inner!r})"


class _Junction(Sketch):
    def __init__(self, *parts: Sketch) -> None:
        if not parts:
            raise ValueError(f"{type(self).__name__} needs at least one part")
        self.parts: Tuple[Sketch, ...] = tuple(parts)

    def required_ops(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out = out | part.required_ops()
        return out

    def forbidden_ops(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out = out | part.forbidden_ops()
        return out

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.parts)
        return f"{type(self).__name__}({inner})"


class All(_Junction):
    """Conjunction: satisfied when every part is; score is the mean."""

    def _satisfied(self, facts: _TermFacts) -> bool:
        return all(part._satisfied(facts) for part in self.parts)

    def _score(self, facts: _TermFacts) -> float:
        return sum(part._score(facts) for part in self.parts) / len(self.parts)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": "all", "parts": [p.to_json() for p in self.parts]}


class AnyOf(_Junction):
    """Disjunction: satisfied when any part is; score is the max."""

    def _satisfied(self, facts: _TermFacts) -> bool:
        return any(part._satisfied(facts) for part in self.parts)

    def _score(self, facts: _TermFacts) -> float:
        return max(part._score(facts) for part in self.parts)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": "any", "parts": [p.to_json() for p in self.parts]}


def sketch_from_json(obj: Dict[str, Any]) -> Sketch:
    """Inverse of :meth:`Sketch.to_json` (the ``--phase-plan`` format)."""
    kind = obj.get("kind")
    if kind == "contains":
        return Contains(obj["op"])
    if kind == "count":
        return CountAtLeast(obj["op"], int(obj["count"]))
    if kind == "none":
        return NoneOf(obj["ops"])
    if kind == "none-under":
        return NoneUnder(obj["under"], obj["ops"])
    if kind == "not":
        return Not(sketch_from_json(obj["of"]))
    if kind == "all":
        return All(*(sketch_from_json(p) for p in obj["parts"]))
    if kind == "any":
        return AnyOf(*(sketch_from_json(p) for p in obj["parts"]))
    raise ValueError(f"unknown sketch kind: {kind!r}")
