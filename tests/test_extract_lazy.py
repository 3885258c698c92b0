"""The extractor's cost fixpoint runs on the first query, not in the
constructor, so the time of ``Extractor.extract`` is the extraction's
(DESIGN.md §15)."""

import pytest

from repro.costs import DiospyrosCostModel
from repro.dsl import parse
from repro.egraph import EGraph, Extractor, Runner, rewrite
from repro.egraph.extract import CostFunction


class CountingCost(CostFunction):
    def __init__(self, base=None):
        self.base = base or CostFunction()
        self.calls = 0

    def node_cost(self, extractor, node, child_costs):
        self.calls += 1
        return self.base.node_cost(extractor, node, child_costs)


class Shrinking(CostFunction):
    """Not strictly monotonic: on a cyclic class every pass "improves"."""

    def node_cost(self, extractor, node, child_costs):
        return sum(child_costs) - 2.0 if node.op == "+" else 1.0


def _cyclic_graph():
    eg = EGraph()
    root = eg.add_term(parse("(+ x 0)"))
    Runner([rewrite("add-0", "(+ ?a 0)", "?a")]).run(eg)
    return eg, root


def test_constructor_does_no_work_and_first_query_relaxes_once():
    eg = EGraph()
    root = eg.add_term(parse("(* (Get a 1) (Get b 2))"))
    cost = CountingCost()
    ex = Extractor(eg, cost)
    assert cost.calls == 0
    result = ex.extract(root)
    calls = cost.calls
    assert calls > 0
    assert ex.best_cost(root) == result.cost
    assert ex.best_node(root).op == "*"
    assert ex.extract(root).term == result.term
    assert cost.calls == calls


@pytest.mark.parametrize("query", ["extract", "best_cost", "best_node"])
def test_any_query_runs_the_fixpoint(query):
    eg = EGraph()
    root = eg.add_term(parse("(Vec (* (Get a 1) (Get b 2)) (Get a 0))"))
    lazy = Extractor(eg, DiospyrosCostModel())
    # The data-movement model reads ``best_node`` of child classes while
    # the fixpoint runs; those reads must not re-enter it.
    getattr(lazy, query)(root)
    reference = Extractor(eg, DiospyrosCostModel())
    assert lazy.extract(root) == reference.extract(root)
    for eclass in eg.classes():
        assert lazy.best_node(eclass.id) == reference.best_node(eclass.id)
        assert lazy.best_cost(eclass.id) == reference.best_cost(eclass.id)


def test_non_convergence_raises_on_every_query():
    eg, root = _cyclic_graph()
    ex = Extractor(eg, Shrinking())
    with pytest.raises(RuntimeError, match="did not converge"):
        ex.extract(root)
    with pytest.raises(RuntimeError, match="did not converge"):
        ex.best_cost(root)
