"""Pattern language and e-matching.

egg exposes a pattern DSL for simple syntactic rewrites (paper
Section 3.3); this module is our equivalent.  Patterns are terms whose
leaves may be *pattern variables*, written ``?x`` in the s-expression
syntax::

    (+ ?a (* ?b ?c))

E-matching searches the e-graph for every (e-class, substitution) pair
such that instantiating the pattern under the substitution yields a
term represented by that class.  The results, and their order, are
those of the classic recursive backtracking procedure over e-nodes;
each pattern is compiled once into specialised nested loops
(:class:`CompiledPattern`) that produce the same sequence with far
less Python work per match.  The order matters: the saturation runner
applies matches in the order they are found, so it shapes the e-graph
(class ids, ``EGraph.version``) and, through both, the emitted code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..dsl.ast import Term
from ..dsl.parser import parse
from .egraph import EGraph, ENode

__all__ = [
    "Pattern",
    "PVar",
    "PNode",
    "pattern",
    "pattern_vars",
    "ematch",
    "match_in_class",
    "instantiate",
    "Subst",
    "MatchCounters",
    "CompiledPattern",
    "compile_pattern",
]


@dataclass
class MatchCounters:
    """Instrumentation for one search: how many candidate classes were
    actually examined vs pruned by the dirty-set filter, and whether
    the search ran to completion (a deadline may truncate it).

    ``completed`` gates the scheduler's per-rule high-water mark: a
    truncated search must not advance its cursor, or the unexamined
    classes' matches would be lost forever.
    """

    visited: int = 0
    skipped: int = 0
    completed: bool = True


class _DeadlineGate:
    """Amortized deadline poll shared across a recursive e-match.

    ``Deadline.expired`` costs a ``perf_counter`` call, far too much
    per e-node; the gate polls every 64th check and latches once
    tripped so deep recursions unwind quickly.
    """

    __slots__ = ("deadline", "count", "tripped")

    _STRIDE = 64

    def __init__(self, deadline) -> None:
        self.deadline = deadline
        self.count = 0
        self.tripped = False

    def check(self) -> bool:
        if self.deadline is None:
            return False
        if self.tripped:
            return True
        self.count += 1
        # Poll on the very first check (so an already-expired deadline
        # stops even a tiny search immediately), then every 64th.
        if self.count % self._STRIDE != 1:
            return False
        if self.deadline.expired():
            self.tripped = True
        return self.tripped

#: A substitution binds pattern-variable names to e-class ids.
Subst = Dict[str, int]


@dataclass(frozen=True)
class PVar:
    """A pattern variable, e.g. ``?x``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class PNode:
    """A concrete operator node in a pattern."""

    op: str
    args: Tuple["Pattern", ...] = ()
    value: Union[int, float, str, None] = None

    def __str__(self) -> str:
        if self.op == "Num":
            return str(self.value)
        if self.op == "Symbol":
            return str(self.value)
        head = self.value if self.op == "Call" else self.op
        if not self.args:
            return f"({head})"
        return f"({head} {' '.join(str(a) for a in self.args)})"


Pattern = Union[PVar, PNode]


def _from_term(term: Term) -> Pattern:
    """Convert a parsed term into a pattern, turning ``?x`` symbols
    into pattern variables."""
    if term.op == "Symbol" and str(term.value).startswith("?"):
        return PVar(str(term.value)[1:])
    return PNode(term.op, tuple(_from_term(a) for a in term.args), term.value)


def pattern(source: Union[str, Term, Pattern]) -> Pattern:
    """Build a pattern from s-expression text, a term, or pass a
    pattern through unchanged."""
    if isinstance(source, (PVar, PNode)):
        return source
    if isinstance(source, Term):
        return _from_term(source)
    return _from_term(parse(source))


def pattern_vars(pat: Pattern) -> List[str]:
    """All variable names occurring in the pattern, in first-seen order."""
    seen: List[str] = []
    stack = [pat]
    while stack:
        p = stack.pop()
        if isinstance(p, PVar):
            if p.name not in seen:
                seen.append(p.name)
        else:
            stack.extend(reversed(p.args))
    return seen


def _is_ground(pat: Pattern) -> bool:
    return isinstance(pat, PNode) and all(_is_ground(a) for a in pat.args)


class _Codegen:
    """Emits the body of one specialised matcher: nested ``for`` loops
    over e-nodes in the recursive matcher's exact depth-first order.

    * A variable's first occurrence binds the (canonical) child id; a
      repeat occurrence compares ids -- whether a name is bound is
      known statically, because the walk order is fixed.
    * A ground subterm compares the child's id with the subterm's
      class (looked up once per search) and repeats the continuation
      once per e-node of that class spelling the subterm out, exactly
      as often as the recursive matcher would have yielded it.
    * ``gated`` matchers poll the deadline gate before every e-node and
      after every candidate, like the recursive matcher did.
    """

    def __init__(self, gated: bool) -> None:
        self.lines: List[str] = []
        self.names = 0
        self.gated = gated
        #: Variable name -> the local holding its id, in binding order.
        self.bound: Dict[str, str] = {}
        self.ground: List[PNode] = []
        self.consts: Dict[str, object] = {}

    def fresh(self, stem: str) -> str:
        self.names += 1
        return f"{stem}{self.names}"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def match(self, pat: Pattern, reg: str, depth: int, cont) -> None:
        if isinstance(pat, PVar):
            bound = self.bound.get(pat.name)
            if bound is None:
                self.bound[pat.name] = reg
                cont(depth)
            else:
                self.emit(depth, f"if {reg} == {bound}:")
                cont(depth + 1)
            return
        if _is_ground(pat):
            if pat not in self.ground:
                self.ground.append(pat)
            k = self.ground.index(pat)
            self.emit(depth, f"if {reg} == G{k}:")
            self.emit(depth + 1, f"for _ in R{k}:")
            cont(depth + 2)
            return
        node = self.fresh("n")
        value = "None" if pat.value is None else self.const(pat.value)
        self.emit(depth, f"for {node} in classes[{reg}].nodes:")
        if self.gated:
            self.emit(depth + 1, "if gate.check(): return False")
        self.emit(
            depth + 1,
            f"if {node}.op != {pat.op!r} or {node}.value != {value} "
            f"or len({node}.children) != {len(pat.args)}: continue",
        )
        kids = [self.fresh("c") for _ in pat.args]
        self.emit(depth + 1, f"{', '.join(kids)}, = {node}.children")
        for kid in kids:
            self.emit(depth + 1, f"while parent[{kid}] != {kid}: {kid} = parent[{kid}]")

        def chain(i: int, d: int) -> None:
            if i == len(kids):
                cont(d)
            else:
                self.match(pat.args[i], kids[i], d, lambda d2: chain(i + 1, d2))

        try:
            chain(0, depth + 1)
        finally:
            # ``chain`` reaches itself through its closure: drop it so
            # the generator is freed without a cyclic collection.
            chain = None

    def const(self, value) -> str:
        name = f"V{len(self.consts)}"
        self.consts[name] = value
        return name

    def result(self, depth: int) -> None:
        items = ", ".join(f"{name!r}: {reg}" for name, reg in self.bound.items())
        self.emit(depth, f"out.append((r0, {{{items}}}))")


class CompiledPattern:
    """A pattern turned into specialised matcher functions.

    Matching walks each class's e-node list in place (no copies, one
    inlined union-find walk per child), so it finds exactly the
    ``(class, subst)`` sequence of the classic recursive backtracking
    matcher, in the same order, with far less Python work per match.

    Searches expect a rebuilt graph (no pending unions), the state the
    saturation runner always searches: ground subterms are then
    resolved through the hashcons, once per search, and a pattern with
    a ground subterm absent from the graph cannot match anywhere.
    """

    def __init__(self, pat: Pattern) -> None:
        self.pattern = pat
        # Both variants are generated up front, so a process that built
        # its rules before forking workers hands them ready matchers.
        self._plain = self._generate(gated=False)
        self._gated = self._generate(gated=True)

    def _generate(self, gated: bool) -> Tuple[Callable, Tuple[PNode, ...]]:
        """The matcher function and the ground subterms it compares."""
        gen = _Codegen(gated)
        gen.emit(1, "for r0 in cands:")
        gen.emit(2, "while parent[r0] != r0: r0 = parent[r0]")
        if gated and _is_ground(self.pattern):
            # No e-node loop at the root to poll in: poll here instead.
            gen.emit(2, "if gate.check(): return False")
        gen.match(self.pattern, "r0", 2, gen.result)
        if gated:
            gen.emit(2, "if gate.check(): return False")
        gen.emit(1, "return True")
        unpack = "".join(f"G{k}, R{k}, " for k in range(len(gen.ground)))
        source = "\n".join([
            "def run(cands, out, classes, parent, gate, ground):",
            f"    ({unpack}) = ground",
        ] + gen.lines)
        namespace = dict(gen.consts)
        exec(compile(source, f"<matcher {self.pattern}>", "exec"), namespace)
        return namespace["run"], tuple(gen.ground)

    def run(
        self, egraph: EGraph, candidates, deadline=None
    ) -> Tuple[List[Tuple[int, Subst]], bool]:
        """Match the pattern at each candidate class, in order.  Returns
        the ``(class, subst)`` pairs and whether the search completed
        (``False`` when the deadline cut it short)."""
        gate = None
        if deadline is not None and getattr(deadline, "at", 0) is not None:
            gate = _DeadlineGate(deadline)
        run, grounds = self._plain if gate is None else self._gated
        ground = _resolve_ground(egraph, grounds)
        if ground is None:
            # A ground subterm is absent: nothing can match.  Still poll
            # the deadline once, as the first e-node visit would have.
            return [], not (candidates and gate is not None and gate.check())
        out: List[Tuple[int, Subst]] = []
        completed = run(
            candidates, out, egraph._classes, egraph._uf._parent, gate, ground
        )
        return out, completed


def _resolve_ground(egraph: EGraph, grounds: Sequence[PNode]) -> Optional[Tuple]:
    """``(class, range(multiplicity))`` per ground subterm, flattened;
    ``None`` when one is absent from the graph.  The multiplicity is
    how many ways the recursive matcher matches the subterm at its
    class: one per e-node spelling it out, times the children's."""
    classes: Dict[PNode, Optional[int]] = {}
    counts: Dict[PNode, int] = {}
    flat: List = []
    for g in grounds:
        cid = _ground_class(egraph, classes, g)
        if cid is None:
            return None
        flat += [cid, range(_ground_ways(egraph, classes, counts, g))]
    return tuple(flat)


# The two walks of ``_resolve_ground`` are plain functions, not nested
# closures: a self-recursive closure holding the e-graph is a reference
# cycle, and would keep every searched graph alive until the next
# cyclic collection (DESIGN.md §15).


def _ground_class(
    egraph: EGraph, classes: Dict[PNode, Optional[int]], g: PNode
) -> Optional[int]:
    if g not in classes:
        kids = [_ground_class(egraph, classes, a) for a in g.args]
        classes[g] = (
            None if None in kids
            else egraph.lookup(ENode(g.op, tuple(kids), g.value))
        )
    return classes[g]


def _ground_ways(
    egraph: EGraph,
    classes: Dict[PNode, Optional[int]],
    counts: Dict[PNode, int],
    g: PNode,
) -> int:
    if g not in counts:
        total = 0
        for node in egraph._classes[classes[g]].nodes:
            if node.op != g.op or node.value != g.value:
                continue
            if len(node.children) != len(g.args):
                continue
            ways = 1
            for a, child in zip(g.args, node.children):
                if egraph.find(child) != classes[a]:
                    ways = 0
                    break
                ways *= _ground_ways(egraph, classes, counts, a)
            total += ways
        counts[g] = total
    return counts[g]


@lru_cache(maxsize=4096)
def compile_pattern(pat: Pattern) -> CompiledPattern:
    """The (cached) compiled matcher for ``pat``."""
    return CompiledPattern(pat)


def match_in_class(
    egraph: EGraph, pat: Pattern, eclass_id: int, deadline=None
) -> Iterator[Subst]:
    """Yield every substitution under which ``pat`` matches the given
    e-class.

    ``deadline`` (a :class:`repro.egraph.scheduler.Deadline`) is polled
    cooperatively *inside* the match -- one huge class can no longer
    blow far past the runner's wall-clock budget.  On expiry the
    generator simply stops yielding.
    """
    found, _ = compile_pattern(pat).run(egraph, [eclass_id], deadline)
    return iter([s for _, s in found])


def ematch(
    egraph: EGraph,
    pat: Pattern,
    deadline=None,
    since: Optional[int] = None,
    counters: Optional[MatchCounters] = None,
) -> List[Tuple[int, Subst]]:
    """Match ``pat`` against every e-class; return (class id,
    substitution) pairs.  Multiple substitutions per class are all
    reported -- a rewrite may fire several ways on one class.

    ``deadline`` (a :class:`repro.egraph.scheduler.Deadline`) is polled
    cooperatively inside the matcher; when it expires the matches found
    so far are returned (and ``counters.completed`` is cleared),
    letting the saturation runner's wall-clock budget interrupt a long
    e-match mid-rule -- even mid-class.

    ``since`` restricts the scan to classes whose subtree changed
    after that e-graph tick (see :attr:`repro.egraph.egraph.EGraph.tick`);
    ``None`` scans everything.  With upward dirty propagation this is
    exact: a match rooted at a clean class cannot have changed.

    The candidate order -- the op index's set iteration order, or the
    class table's order for a bare variable -- is part of the output
    contract: the runner applies matches in the order found.
    """
    if isinstance(pat, PNode):
        # Only classes containing the root operator can match; the
        # e-graph's operator index prunes the scan, and the dirty-set
        # filter prunes it further for incremental searches.
        candidates = egraph.classes_with_op(pat.op, since=since, counters=counters)
    else:
        candidates = egraph.dirty_class_ids(since=since, counters=counters)
    if not candidates:
        return []
    found, completed = compile_pattern(pat).run(egraph, candidates, deadline)
    if not completed and counters is not None:
        counters.completed = False
    return found


def instantiate(egraph: EGraph, pat: Pattern, subst: Subst) -> int:
    """Add the instantiation of ``pat`` under ``subst`` to the e-graph
    and return its class id.  Every variable in the pattern must be
    bound."""
    if isinstance(pat, PVar):
        try:
            return egraph.find(subst[pat.name])
        except KeyError as exc:
            raise KeyError(f"unbound pattern variable ?{pat.name}") from exc
    children = tuple(instantiate(egraph, a, subst) for a in pat.args)
    return egraph.add(ENode(pat.op, children, pat.value))
