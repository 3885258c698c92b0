"""Term representation for the Diospyros vector DSL (paper Figure 3).

A *term* is an immutable tree.  Every node carries an operator name
(``op``), a tuple of child terms (``args``), and -- for the two leaf
operators only -- a ``value`` payload:

* ``Num``    -- a numeric literal; ``value`` is an ``int`` or ``float``.
* ``Symbol`` -- a named input array or scalar variable; ``value`` is a
  ``str``.

The full operator vocabulary mirrors the grammar in Figure 3 of the
paper and is catalogued in :mod:`repro.dsl.ops`.  Terms are hashable and
compare structurally, which is what both the e-graph hashcons layer and
the translation validator rely on.

The module also provides convenience constructors (:func:`add`,
:func:`vec`, :func:`get`, ...) so the rest of the code base can build
terms without spelling operator strings, and small structural helpers
(:func:`subterms`, :func:`term_size`, :func:`term_depth`,
:func:`substitute`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

Number = Union[int, float]

__all__ = [
    "Term",
    "Number",
    "num",
    "sym",
    "get",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "sqrt",
    "sgn",
    "call",
    "vec",
    "concat",
    "vec_add",
    "vec_minus",
    "vec_mul",
    "vec_div",
    "vec_mac",
    "vec_neg",
    "vec_sqrt",
    "vec_sgn",
    "lst",
    "subterms",
    "term_size",
    "term_depth",
    "substitute",
    "map_terms",
]


class Term:
    """An immutable, hash-consed-friendly DSL term.

    Instances are created once and never mutated; equality and hashing
    are structural and cached, so terms can be used freely as dictionary
    keys (the e-graph, LVN, and the canonicalizer all do).
    """

    __slots__ = ("op", "args", "value", "_hash")

    def __init__(
        self,
        op: str,
        args: Sequence["Term"] = (),
        value: Union[Number, str, None] = None,
    ) -> None:
        self.op = op
        self.args: Tuple[Term, ...] = tuple(args)
        self.value = value
        self._hash = hash((op, self.args, value))
        if op in ("Num", "Symbol"):
            if self.args:
                raise ValueError(f"leaf operator {op!r} takes no children")
            if value is None:
                raise ValueError(f"leaf operator {op!r} requires a value")
        elif value is not None and op != "Call":
            raise ValueError(f"operator {op!r} does not take a value payload")

    # -- identity ----------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.op == other.op
            and self.value == other.value
            and self.args == other.args
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- queries -----------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """True for ``Num`` and ``Symbol`` terms."""
        return not self.args and self.op in ("Num", "Symbol")

    @property
    def is_num(self) -> bool:
        return self.op == "Num"

    @property
    def is_symbol(self) -> bool:
        return self.op == "Symbol"

    def is_zero(self) -> bool:
        """True when the term is the literal 0 (int or float)."""
        return self.op == "Num" and self.value == 0

    def is_one(self) -> bool:
        return self.op == "Num" and self.value == 1

    # -- display -----------------------------------------------------

    def __repr__(self) -> str:
        return f"Term({self.to_sexpr()})"

    def __str__(self) -> str:
        return self.to_sexpr()

    def to_sexpr(self) -> str:
        """Render as an s-expression, the paper's surface syntax."""
        if self.op == "Num":
            if isinstance(self.value, float) and self.value.is_integer():
                return str(int(self.value))
            return str(self.value)
        if self.op == "Symbol":
            return str(self.value)
        if self.op == "Call":
            head = f"{self.value}"
        else:
            head = self.op
        if not self.args:
            return f"({head})"
        inner = " ".join(a.to_sexpr() for a in self.args)
        return f"({head} {inner})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def num(value: Number) -> Term:
    """A numeric literal leaf."""
    return Term("Num", (), value)


def sym(name: str) -> Term:
    """A named symbol leaf (an input array or scalar variable)."""
    return Term("Symbol", (), name)


def get(array: Union[str, Term], index: Union[int, Term]) -> Term:
    """``(Get a i)`` -- element ``i`` of the flattened input array ``a``."""
    array_term = sym(array) if isinstance(array, str) else array
    index_term = num(index) if isinstance(index, int) else index
    return Term("Get", (array_term, index_term))


def add(a: Term, b: Term) -> Term:
    return Term("+", (a, b))


def sub(a: Term, b: Term) -> Term:
    return Term("-", (a, b))


def mul(a: Term, b: Term) -> Term:
    return Term("*", (a, b))


def div(a: Term, b: Term) -> Term:
    return Term("/", (a, b))


def neg(a: Term) -> Term:
    return Term("neg", (a,))


def sqrt(a: Term) -> Term:
    return Term("sqrt", (a,))


def sgn(a: Term) -> Term:
    return Term("sgn", (a,))


def call(name: str, *args: Term) -> Term:
    """An application of a user-defined (uninterpreted) scalar function."""
    return Term("Call", tuple(args), name)


def vec(*lanes: Term) -> Term:
    """``(Vec s0 s1 ...)`` -- build a vector from scalar lanes."""
    if not lanes:
        raise ValueError("Vec requires at least one lane")
    return Term("Vec", tuple(lanes))


def concat(a: Term, b: Term) -> Term:
    return Term("Concat", (a, b))


def vec_add(a: Term, b: Term) -> Term:
    return Term("VecAdd", (a, b))


def vec_minus(a: Term, b: Term) -> Term:
    return Term("VecMinus", (a, b))


def vec_mul(a: Term, b: Term) -> Term:
    return Term("VecMul", (a, b))


def vec_div(a: Term, b: Term) -> Term:
    return Term("VecDiv", (a, b))


def vec_mac(acc: Term, a: Term, b: Term) -> Term:
    """``(VecMAC acc a b)`` -- lanewise ``acc + a * b``."""
    return Term("VecMAC", (acc, a, b))


def vec_neg(a: Term) -> Term:
    return Term("VecNeg", (a,))


def vec_sqrt(a: Term) -> Term:
    return Term("VecSqrt", (a,))


def vec_sgn(a: Term) -> Term:
    return Term("VecSgn", (a,))


def lst(*items: Term) -> Term:
    """``(List e0 e1 ...)`` -- the top-level program: one entry per output
    element of the kernel (2-D outputs are flattened row-major)."""
    if not items:
        raise ValueError("List requires at least one element")
    return Term("List", tuple(items))


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def subterms(term: Term) -> Iterator[Term]:
    """Yield every subterm (including ``term`` itself), pre-order,
    visiting shared subtrees once per occurrence."""
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.args))


def term_size(term: Term) -> int:
    """Number of nodes in the term tree (occurrences, not unique nodes)."""
    return sum(1 for _ in subterms(term))


def unique_size(term: Term) -> int:
    """Number of *unique* subterms -- the size of the term's DAG, which
    is what the e-graph initially stores."""
    seen = set()
    stack = [term]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(current.args)
    return len(seen)


def term_depth(term: Term) -> int:
    """Height of the term tree; a leaf has depth 1."""
    if not term.args:
        return 1
    return 1 + max(term_depth(a) for a in term.args)


def substitute(term: Term, mapping: Dict[Term, Term]) -> Term:
    """Replace every occurrence of the keys of ``mapping`` (matched
    structurally) by the corresponding values, bottom-up."""
    return _substitute(term, mapping, {})


def _substitute(t: Term, mapping: Dict[Term, Term], cache: Dict[Term, Term]) -> Term:
    # A plain function, not a nested closure: a self-recursive closure
    # is a reference cycle that only the cyclic collector could free.
    hit = cache.get(t)
    if hit is not None:
        return hit
    if t in mapping:
        result = mapping[t]
    elif t.args:
        new_args = tuple(_substitute(a, mapping, cache) for a in t.args)
        result = t if new_args == t.args else Term(t.op, new_args, t.value)
    else:
        result = t
    cache[t] = result
    return result


def map_terms(term: Term, fn: Callable[[Term], Optional[Term]]) -> Term:
    """Rebuild ``term`` bottom-up, replacing each node ``t`` (whose
    children have already been rewritten) by ``fn(t)`` when that returns
    a term, keeping ``t`` when it returns ``None``."""
    return _map_terms(term, fn, {})


def _map_terms(
    t: Term, fn: Callable[[Term], Optional[Term]], cache: Dict[Term, Term]
) -> Term:
    hit = cache.get(t)
    if hit is not None:
        return hit
    rebuilt = t
    if t.args:
        new_args = tuple(_map_terms(a, fn, cache) for a in t.args)
        if new_args != t.args:
            rebuilt = Term(t.op, new_args, t.value)
    replaced = fn(rebuilt)
    result = rebuilt if replaced is None else replaced
    cache[t] = result
    return result
