"""The e-matching engine is pinned: same matches, same order, same output.

Speeding up saturation must not move a single emitted byte.  Two
layers of evidence:

* **Pinned streams.**  For five kernels, the SHA-256 of the ordered
  ``(iteration, rule, canonical dedup key)`` stream of *applied*
  matches, the program fingerprint and ``RunReport.final_version`` are
  pinned to values computed with the plain recursive matcher the
  compiled one replaced.  ``qrdecomp-2x2`` is the sensitive case: a
  candidate order that differs only in set iteration order keeps its
  fingerprint but changes its stream and ``final_version``.
* **Reference matcher.**  A property test checks that the compiled
  matcher yields the same ``(class, subst)`` sequence as the classic
  recursive backtracking matcher written out below, on random e-graphs
  and random ground, non-linear and nested patterns, with and without
  an already-expired deadline.
"""

import hashlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.compiler import CompileOptions, compile_kernel
from repro.egraph import EGraph, MatchCounters, ematch, pattern
from repro.egraph.egraph import ENode
from repro.egraph.pattern import PNode, PVar, match_in_class
from repro.egraph.scheduler import BackoffScheduler, Deadline
from repro.kernels import extra_kernels, get_kernel, make_qr

#: kernel -> (applied-stream SHA-256, program fingerprint, final_version)
PINNED = {
    "matmul-2x2-2x2": (
        "27247da546a45ff7892ce1a0bf6f510e837804d982b7a2b072b098cc908e9ff9",
        "fd8bc14e4c15908a",
        45,
    ),
    "2dconv-3x3-2x2": (
        "5ea4193afa0d95c26298b98395134be086e8b7155a958cad53e523e64e8bf313",
        "c9cf2e44f07ed7a4",
        277,
    ),
    "quat2rot": (
        "69467c4b5910faa077790036efca1abdef24ee67991527f62f788c40593c47a3",
        "257b042758f7d91a",
        426,
    ),
    "normalize-8": (
        "ef76769dd5bca16b99cd1b7fc2979f95150e1235e865a1b68d77ae5ab3e3032d",
        "276cb1cc30a65c4a",
        123,
    ),
    "qrdecomp-2x2": (
        "0f7da0fd47780ca92059de0acb54c99b23ebabb93f3f8ad81a5070f9b6470317",
        "70ce7d963bf435a3",
        2657,
    ),
}


def _kernel(name):
    known = {k.name: k for k in extra_kernels() + [make_qr(2)]}
    return known[name] if name in known else get_kernel(name)


def _canon(egraph, key):
    out = []
    for x in key:
        if type(x) is tuple:
            out.append(_canon(egraph, x))
        elif type(x) is int and x >= 0:
            out.append(egraph.find(x))
        else:
            out.append(x)
    return tuple(out)


def _applied_stream(monkeypatch):
    """Record every applied match as ``(iteration, rule, canonical
    key)``: the runner calls ``Match.build`` exactly for the matches
    that survive its dedup, with the graph in the state it canonicalized
    the key against."""
    stream = []
    search = BackoffScheduler.search_rewrite

    def recording(self, iteration, egraph, rule, deadline=None):
        matches = search(self, iteration, egraph, rule, deadline)
        for m in matches:
            def build(eg, _build=m.build, _m=m, _it=iteration):
                key = None if _m.dedup_key is None else _canon(eg, _m.dedup_key)
                stream.append(repr((_it, _m.rule_name, key)))
                return _build(eg)

            m.build = build
        return matches

    monkeypatch.setattr(BackoffScheduler, "search_rewrite", recording)
    return stream


@pytest.mark.parametrize("name", sorted(PINNED))
def test_applied_match_stream_is_pinned(name, monkeypatch):
    stream = _applied_stream(monkeypatch)
    k = _kernel(name)
    result = compile_kernel(
        k.name, k.reference, k.inputs, k.outputs, CompileOptions(time_limit=None)
    )
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    got = (digest, result.program.fingerprint(), result.report.final_version)
    assert got == PINNED[name]


# ---------------------------------------------------------------------------
# Compiled matcher == plain recursive matcher
# ---------------------------------------------------------------------------


def _reference_match(egraph, pat, cid, subst, gate):
    """The classic recursive backtracking e-matcher.  ``gate`` is a
    one-element list holding "deadline tripped"; an expired deadline
    trips at the first e-node the matcher looks at."""
    cid = egraph.find(cid)
    if isinstance(pat, PVar):
        bound = subst.get(pat.name)
        if bound is None:
            yield {**subst, pat.name: cid}
        elif egraph.find(bound) == cid:
            yield subst
        return
    for node in egraph.nodes_of(cid):
        if gate[0] is not None:
            gate[0] = True
            return
        if (node.op, node.value, len(node.children)) != (
            pat.op, pat.value, len(pat.args)
        ):
            continue
        yield from _reference_children(egraph, pat.args, node.children, subst, gate)


def _reference_children(egraph, pats, children, subst, gate):
    if not pats:
        yield subst
        return
    for extended in _reference_match(egraph, pats[0], children[0], subst, gate):
        yield from _reference_children(egraph, pats[1:], children[1:], extended, gate)


def _reference_ematch(egraph, pat, expired):
    if isinstance(pat, PNode):
        candidates = egraph.classes_with_op(pat.op)
    else:
        candidates = egraph.dirty_class_ids()
    gate = [False if expired else None]
    out = []
    for cid in candidates:
        for subst in _reference_match(egraph, pat, cid, {}, gate):
            out.append((egraph.find(cid), subst))
        if gate[0] is not None:
            # The deadline is also polled after every candidate class.
            gate[0] = True
            break
    return out, gate[0] is not True


_OPS = (("+", 2), ("*", 2), ("neg", 1), ("Vec", 3))
_LEAVES = (("Num", 0), ("Num", 1), ("Symbol", "a"), ("Symbol", "b"))


@st.composite
def _recipes(draw):
    """How to build a random rebuilt e-graph: leaves, random operator
    nodes over the existing classes, then a few random unions.  The
    recipe (not the graph) is drawn, so a test can build two identical
    graphs -- the op index's set iteration order is part of the match
    order, and every candidate scan re-inserts it."""
    nodes = []
    for _ in range(draw(st.integers(0, 25))):
        op, arity = draw(st.sampled_from(_OPS))
        span = len(_LEAVES) + len(nodes)
        nodes.append((op, tuple(draw(st.integers(0, span - 1)) for _ in range(arity))))
    total = len(_LEAVES) + len(nodes)
    unions = draw(st.lists(st.tuples(st.integers(0, total - 1), st.integers(0, total - 1)), max_size=6))
    return nodes, unions


def _build(recipe):
    nodes, unions = recipe
    eg = EGraph()
    ids = [eg.add(ENode(op, (), value)) for op, value in _LEAVES]
    for op, children in nodes:
        ids.append(eg.add(ENode(op, tuple(ids[c] for c in children))))
    for a, b in unions:
        eg.union(ids[a], ids[b])
        eg.rebuild()
    return eg


def _patterns(max_leaves=6):
    leaves = st.one_of(
        st.sampled_from("xyz").map(PVar),
        st.sampled_from(_LEAVES).map(lambda lv: PNode(lv[0], (), lv[1])),
    )

    def extend(children):
        return st.sampled_from(_OPS).flatmap(
            lambda oa: st.tuples(*[children] * oa[1]).map(
                lambda args, op=oa[0]: PNode(op, args)
            )
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@settings(max_examples=150, deadline=None)
@given(_recipes(), _patterns(), st.booleans())
def test_compiled_matcher_equals_reference(recipe, pat, expired):
    expected, completed = _reference_ematch(_build(recipe), pat, expired)
    counters = MatchCounters()
    deadline = Deadline(at=0.0) if expired else Deadline(None)
    got = ematch(_build(recipe), pat, deadline=deadline, counters=counters)
    assert got == expected
    assert counters.completed == completed


@settings(max_examples=60, deadline=None)
@given(_recipes(), _patterns())
def test_match_in_class_equals_reference(recipe, pat):
    egraph = _build(recipe)
    for cid in egraph.class_ids():
        expected = list(_reference_match(egraph, pat, cid, {}, [None]))
        assert list(match_in_class(egraph, pat, cid)) == expected


def test_ground_patterns_match_by_class_id():
    """A ground subterm matches exactly the class that represents it,
    once per e-node of that class that spells it out."""
    eg = EGraph()
    zero = eg.add(ENode("Num", (), 0))
    vec = eg.add(ENode("Vec", (zero, zero, zero)))
    add = eg.add(ENode("+", (vec, zero)))
    assert ematch(eg, pattern("(+ (Vec 0 0 0) ?x)")) == [(add, {"x": zero})]
    assert ematch(eg, pattern("(+ (Vec 1 0 0) ?x)")) == []
    assert ematch(eg, pattern("(Vec 0 0 0)")) == [(vec, {})]


def test_ground_subterm_counts_stale_duplicate_nodes():
    """A class can keep two e-nodes that became equal when their
    children merged (the class itself was not re-canonicalized).  The
    recursive matcher yields once per such node, so the compiled one
    must too, nested or not."""
    eg = EGraph()
    zero = eg.add(ENode("Num", (), 0))
    q = eg.add(ENode("Symbol", (), "q"))
    vec = eg.add(ENode("Vec", (zero, zero, zero)))
    eg.union(vec, eg.add(ENode("Vec", (q, zero, zero))))
    eg.rebuild()
    add = eg.add(ENode("+", (vec, q)))
    eg.union(q, zero)
    eg.rebuild()
    vec, zero = eg.find(vec), eg.find(zero)
    assert len(eg.nodes_of(vec)) == 2
    assert ematch(eg, pattern("(+ (Vec 0 0 0) ?x)")) == [(add, {"x": zero})] * 2
    assert ematch(eg, pattern("(Vec 0 0 0)")) == [(vec, {})] * 2
    assert ematch(eg, pattern("(Vec ?a 0 ?a)")) == [(vec, {"a": zero})] * 2
