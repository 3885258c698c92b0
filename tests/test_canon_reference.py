"""Differential test of the real-arithmetic canonicalizer against a
reference implementation.

The reference below is the plain algorithm the canonicalizer in
:mod:`repro.validation.canon` must reproduce exactly: every coefficient
a :class:`fractions.Fraction`, every sum and product computed by
cross-multiplication (multiplications by the constant one included).
The work budget and the monomial limit decide which validation lanes
fall back to random sampling, so the two must agree not just on the
verdict but on the work charged, on where an overflow happens, on the
polynomials' term order and on the atom keys (DESIGN.md §14).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.dsl.ast import Term
from repro.validation import canon as fast

# ---------------------------------------------------------------------------
# Reference canonicalizer (kept verbatim; do not optimise)
# ---------------------------------------------------------------------------


class CanonOverflow(RuntimeError):
    """The polynomial form exceeded the configured size limit."""


@dataclass(frozen=True)
class CanonLimits:
    """Resource bounds for canonicalization."""

    #: Maximum number of monomials a single polynomial may hold.
    max_terms: int = 20_000
    #: Total monomial-operation budget for one canonicalization or
    #: equivalence query; deep rational nests (QR-style kernels)
    #: explode multiplicatively and must bail out to randomized
    #: validation *before* burning minutes, not after.
    max_work: int = 400_000
    #: Maximum size (monomial count, numerator + denominator) of a
    #: rational form used as a sqrt/sgn/call atom key.  Beyond this the
    #: keys themselves dominate runtime.
    max_atom_key: int = 120


class _Work:
    """Mutable work counter shared across one canonicalization."""

    __slots__ = ("remaining",)

    def __init__(self, limits: "CanonLimits") -> None:
        self.remaining = limits.max_work

    def charge(self, amount: int) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise CanonOverflow(
                "canonicalization work budget exhausted; "
                "fall back to randomized validation"
            )


#: An atom is a hashable key: ("get", array, index), ("sym", name),
#: ("sqrt", arg_key), ("sgn", arg_key) or ("call", name, arg_keys).
Atom = Tuple

#: A monomial maps each atom to its (positive integer) power; stored as
#: a sorted tuple of (atom, power) pairs so it hashes.
Monomial = Tuple[Tuple[Atom, int], ...]

_EMPTY_MONOMIAL: Monomial = ()


class Poly:
    """A multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] = None) -> None:
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[mono] = coeff

    # Constructors -----------------------------------------------------

    @staticmethod
    def constant(value: Union[int, float, Fraction]) -> "Poly":
        coeff = Fraction(value) if not isinstance(value, Fraction) else value
        return Poly({_EMPTY_MONOMIAL: coeff}) if coeff != 0 else Poly()

    @staticmethod
    def atom(a: Atom) -> "Poly":
        return Poly({((a, 1),): Fraction(1)})

    # Queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_constant(self) -> Union[Fraction, None]:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and _EMPTY_MONOMIAL in self.terms:
            return self.terms[_EMPTY_MONOMIAL]
        return None

    def key(self) -> Tuple:
        """A canonical hashable form (sorted term list)."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Poly({len(self.terms)} terms)"

    # Arithmetic -------------------------------------------------------

    def add(self, other: "Poly", limits: CanonLimits, work: "_Work" = None) -> "Poly":
        if work is not None:
            work.charge(len(other.terms))
        result = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = result.get(mono, Fraction(0)) + coeff
            if new == 0:
                result.pop(mono, None)
            else:
                result[mono] = new
        _check(result, limits)
        out = Poly()
        out.terms = result
        return out

    def neg(self) -> "Poly":
        out = Poly()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def mul(self, other: "Poly", limits: CanonLimits, work: "_Work" = None) -> "Poly":
        result: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if work is not None:
                    # Charge by actual monomial width: giant nested
                    # atom keys make each product expensive.
                    work.charge(1 + len(m1) + len(m2))
                mono = _mul_monomials(m1, m2)
                new = result.get(mono, Fraction(0)) + c1 * c2
                if new == 0:
                    result.pop(mono, None)
                else:
                    result[mono] = new
            _check(result, limits)
        out = Poly()
        out.terms = result
        return out

    def scale(self, factor: Fraction) -> "Poly":
        if factor == 0:
            return Poly()
        out = Poly()
        out.terms = {m: c * factor for m, c in self.terms.items()}
        return out


def _check(terms: Dict[Monomial, Fraction], limits: CanonLimits) -> None:
    if len(terms) > limits.max_terms:
        raise CanonOverflow(
            f"polynomial exceeded {limits.max_terms} monomials; "
            "fall back to randomized validation"
        )


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    powers: Dict[Atom, int] = dict(a)
    for atom, power in b:
        powers[atom] = powers.get(atom, 0) + power
    return tuple(sorted(powers.items()))


@dataclass
class Rational:
    """A rational function num/den with a non-zero denominator."""

    num: Poly
    den: Poly

    def key(self) -> Tuple:
        """A *normalized* hashable form: both polynomials scaled so the
        denominator's first (sorted) coefficient is 1.  Not fully
        reduced (no polynomial GCD), but stable enough to key atoms."""
        den_key = self.den.key()
        if not den_key:
            raise ZeroDivisionError("rational function with zero denominator")
        lead = den_key[0][1]
        return (self.num.scale(1 / lead).key(), self.den.scale(1 / lead).key())


def canonicalize(term: Term, limits: CanonLimits = None) -> Rational:
    """Canonical rational form of a scalar term.

    Raises :class:`CanonOverflow` when the polynomial form explodes and
    ``ZeroDivisionError`` on division by a polynomial that is
    *identically* zero (division by a possibly-zero denominator is the
    spec author's obligation, as in the paper).
    """
    limits = limits or CanonLimits()
    return _canonicalize_with(term, limits, _Work(limits))


def _canonicalize_with(term: Term, limits: CanonLimits, work: "_Work") -> Rational:
    cache: Dict[Term, Rational] = {}

    def go(t: Term) -> Rational:
        hit = cache.get(t)
        if hit is not None:
            return hit
        result = _canon_node(t, go, limits, work)
        cache[t] = result
        return result

    return go(term)


def _canon_node(t: Term, go, limits: CanonLimits, work: "_Work") -> Rational:
    one = Poly.constant(1)
    op = t.op
    if op == "Num":
        return Rational(Poly.constant(t.value), one)  # type: ignore[arg-type]
    if op == "Symbol":
        return Rational(Poly.atom(("sym", str(t.value))), one)
    if op == "Get":
        array, index = t.args
        if array.op != "Symbol" or index.op != "Num":
            raise ValueError(f"non-canonical Get: {t}")
        return Rational(
            Poly.atom(("get", str(array.value), int(index.value))), one  # type: ignore[arg-type]
        )
    if op in ("sqrt", "sgn"):
        arg = go(t.args[0])
        return Rational(Poly.atom((op, _atom_key(arg, limits))), one)
    if op == "Call":
        args = tuple(_atom_key(go(a), limits) for a in t.args)
        return Rational(Poly.atom(("call", str(t.value), args)), one)
    if op == "neg":
        a = go(t.args[0])
        return Rational(a.num.neg(), a.den)
    if op == "+":
        a, b = go(t.args[0]), go(t.args[1])
        num = a.num.mul(b.den, limits, work).add(
            b.num.mul(a.den, limits, work), limits, work
        )
        return Rational(num, a.den.mul(b.den, limits, work))
    if op == "-":
        a, b = go(t.args[0]), go(t.args[1])
        num = a.num.mul(b.den, limits, work).add(
            b.num.mul(a.den, limits, work).neg(), limits, work
        )
        return Rational(num, a.den.mul(b.den, limits, work))
    if op == "*":
        a, b = go(t.args[0]), go(t.args[1])
        return Rational(a.num.mul(b.num, limits, work), a.den.mul(b.den, limits, work))
    if op == "/":
        a, b = go(t.args[0]), go(t.args[1])
        if b.num.is_zero():
            raise ZeroDivisionError(f"division by identically-zero term in {t}")
        return Rational(a.num.mul(b.den, limits, work), a.den.mul(b.num, limits, work))
    raise ValueError(f"operator {op!r} is not a scalar expression")


def _atom_key(rational: Rational, limits: CanonLimits) -> Tuple:
    """Key a non-rational operator's argument; refuses oversized keys
    (their hashing/sorting would dominate the whole procedure)."""
    size = len(rational.num.terms) + len(rational.den.terms)
    if size > limits.max_atom_key:
        raise CanonOverflow(
            f"atom key would have {size} monomials "
            f"(limit {limits.max_atom_key}); fall back to randomized validation"
        )
    return rational.key()


def equivalent(t1: Term, t2: Term, limits: CanonLimits = None) -> bool:
    """Decide equality of two scalar terms over the reals.

    Cross-multiplies the rational forms, so no polynomial division is
    needed: a/b == c/d  iff  a*d == c*b.
    """
    limits = limits or CanonLimits()
    work = _Work(limits)
    r1 = _canonicalize_with(t1, limits, work)
    r2 = _canonicalize_with(t2, limits, work)
    left = r1.num.mul(r2.den, limits, work)
    right = r2.num.mul(r1.den, limits, work)
    return left == right


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_leaves = st.one_of(
    st.integers(-3, 3).map(lambda v: Term("Num", value=v)),
    st.sampled_from([2.0, -1.0, 0.0, 0.5, -0.25, 1.5, 0.1]).map(
        lambda v: Term("Num", value=v)
    ),
    st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 2)).map(
        lambda p: Term("Get", (Term("Symbol", value=p[0]), Term("Num", value=p[1])))
    ),
    st.just(Term("Symbol", value="s")),
)


def _compound(children):
    return st.one_of(
        st.builds(
            lambda op, l, r: Term(op, (l, r)),
            st.sampled_from(["+", "-", "*", "/"]),
            children,
            children,
        ),
        st.builds(
            lambda op, a: Term(op, (a,)),
            st.sampled_from(["neg", "sqrt", "sgn"]),
            children,
        ),
        st.builds(
            lambda args: Term("Call", tuple(args), "f"),
            st.lists(children, min_size=1, max_size=2),
        ),
    )


_exprs = st.recursive(_leaves, _compound, max_leaves=10)


def _commuted(t: Term) -> Term:
    """An equal-by-commutativity rewrite, so equal pairs are common."""
    args = tuple(_commuted(a) for a in t.args)
    if t.op in ("+", "*"):
        args = args[::-1]
    return Term(t.op, args, t.value) if args else t


_pairs = st.one_of(
    st.tuples(_exprs, _exprs),
    _exprs.map(lambda t: (t, _commuted(t))),
)

_limits = st.one_of(
    st.just((20_000, 400_000, 120)),
    st.tuples(st.integers(0, 40), st.integers(0, 600), st.integers(0, 12)),
)


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def _reference(t1, t2, limits):
    """Outcome, work charged and both rational forms of the reference
    ``equivalent`` (its body, with the work counter kept visible)."""
    work = _Work(limits)
    forms = []
    try:
        for t in (t1, t2):
            forms.append(_canonicalize_with(t, limits, work))
        r1, r2 = forms
        left = r1.num.mul(r2.den, limits, work)
        right = r2.num.mul(r1.den, limits, work)
        outcome = "equal" if left == right else "differ"
    except CanonOverflow:
        outcome = "overflow"
    except ZeroDivisionError:
        outcome = "zero-division"
    return outcome, limits.max_work - work.remaining, forms


def _fast(t1, t2, limits):
    work = fast.Work(limits)
    try:
        outcome = "equal" if fast.equivalent(t1, t2, limits, work) else "differ"
    except fast.CanonOverflow:
        outcome = "overflow"
    except ZeroDivisionError:
        outcome = "zero-division"
    return outcome, limits.max_work - work.remaining


def _sqrt_args(t, out):
    for a in t.args:
        _sqrt_args(a, out)
    if t.op == "sqrt":
        out.append(t.args[0])
    return out


def _same_form(fast_form, ref_form):
    for fast_poly, ref_poly in ((fast_form.num, ref_form.num), (fast_form.den, ref_form.den)):
        # Same monomials in the same order: the order decides where a
        # later product crosses the monomial limit.
        assert list(fast_poly.terms.items()) == list(ref_poly.terms.items())
    assert fast_form.key() == ref_form.key()


def _agrees(pair, bounds):
    t1, t2 = pair
    ref_limits = CanonLimits(*bounds)
    fast_limits = fast.CanonLimits(*bounds)
    outcome, work, forms = _reference(t1, t2, ref_limits)
    assert _fast(t1, t2, fast_limits) == (outcome, work)
    for t, ref_form in zip((t1, t2), forms):
        fast_form = fast.canonicalize(t, fast_limits)
        _same_form(fast_form, ref_form)
        for arg in _sqrt_args(t, []):
            # Atom keys are exact (never float) and identical.
            key = fast.canonicalize(arg, fast_limits).key()
            assert key == canonicalize(arg, ref_limits).key()
            assert not any(
                isinstance(c, float) for poly in key for _, c in poly
            )


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(_pairs, _limits)
@settings(max_examples=300, **_SETTINGS)
def test_matches_reference(pair, bounds):
    _agrees(pair, bounds)


@pytest.mark.slow
@given(_pairs, _limits)
@settings(max_examples=2_000, **_SETTINGS)
def test_matches_reference_deep(pair, bounds):
    _agrees(pair, bounds)


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        # Integral float literals become int coefficients.
        (Term("Num", value=2.0), Term("Num", value=2)),
        # Key normalisation divides by an int lead coefficient.
        (Term("sqrt", (Term("/", (Term("Symbol", value="s"), Term("Num", value=3))),)),
         Term("sqrt", (Term("/", (Term("Symbol", value="s"), Term("Num", value=3.0))),))),
    ],
)
def test_examples(lhs, rhs):
    _agrees((lhs, rhs), (20_000, 400_000, 120))
    _agrees((lhs, rhs), (0, 0, 0))
