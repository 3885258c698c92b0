"""Unit tests for translation validation (repro.validation)."""

import pytest

from repro.dsl import parse
from repro.frontend import lift
from repro.validation import (
    CanonLimits,
    CanonOverflow,
    canonicalize,
    equivalent,
    flatten_to_scalars,
    validate,
)


class TestCanonEquivalence:
    EQUIVALENT = [
        ("(+ a b)", "(+ b a)"),
        ("(* a (+ b c))", "(+ (* a b) (* a c))"),
        ("(- a a)", "0"),
        ("(+ (+ a b) c)", "(+ a (+ b c))"),
        ("(* (Get x 0) 2)", "(+ (Get x 0) (Get x 0))"),
        ("(neg a)", "(- 0 a)"),
        ("(/ (* a b) b)", "a"),  # equal as rational functions
        ("(/ a 2)", "(* a 0.5)"),
        ("(- (* a a) (* b b))", "(* (+ a b) (- a b))"),
        ("(+ (/ a b) (/ c d))", "(/ (+ (* a d) (* c b)) (* b d))"),
        ("(sqrt (+ a b))", "(sqrt (+ b a))"),  # atom congruence
        ("(* (sgn a) (sgn a))", "(* (sgn a) (sgn a))"),
    ]

    @pytest.mark.parametrize("lhs,rhs", EQUIVALENT)
    def test_equivalent(self, lhs, rhs):
        assert equivalent(parse(lhs), parse(rhs))

    DIFFERENT = [
        ("(+ a b)", "(- a b)"),
        ("(* a a)", "a"),
        ("(/ a b)", "(/ b a)"),
        ("(Get x 0)", "(Get x 1)"),
        ("(Get x 0)", "(Get y 0)"),
        ("(sqrt a)", "(sqrt b)"),
        ("1", "2"),
    ]

    @pytest.mark.parametrize("lhs,rhs", DIFFERENT)
    def test_not_equivalent(self, lhs, rhs):
        assert not equivalent(parse(lhs), parse(rhs))

    def test_sqrt_is_uninterpreted_beyond_congruence(self):
        # sqrt(a)^2 == a holds for reals >= 0 but is NOT assumed.
        assert not equivalent(parse("(* (sqrt a) (sqrt a))"), parse("a"))

    def test_division_by_zero_polynomial(self):
        with pytest.raises(ZeroDivisionError):
            canonicalize(parse("(/ a (- b b))"))

    def test_overflow_raises(self):
        # (a+b+c+d)^16 has far more monomials than the limit allows.
        term = "(+ (+ a b) (+ c d))"
        for _ in range(4):
            term = f"(* {term} {term})"
        with pytest.raises(CanonOverflow):
            canonicalize(parse(term), CanonLimits(max_terms=50, max_work=10_000))

    def test_atom_key_limit(self):
        # sqrt of a polynomial with many monomials refuses to key.
        big = "(+ a b)"
        for _ in range(4):
            big = f"(* {big} (+ c {big}))"
        with pytest.raises(CanonOverflow):
            canonicalize(parse(f"(sqrt {big})"), CanonLimits(max_atom_key=4))

    def test_float_coefficients_exact(self):
        assert equivalent(parse("(* a 0.25)"), parse("(/ a 4)"))


class TestFlatten:
    def test_list_of_scalars(self):
        lanes = flatten_to_scalars(parse("(List p q)"))
        assert lanes == [parse("p"), parse("q")]

    def test_concat_vec(self):
        lanes = flatten_to_scalars(parse("(Concat (Vec p q) (Vec r s))"))
        assert lanes == [parse(t) for t in "pqrs"]

    def test_vecadd(self):
        lanes = flatten_to_scalars(parse("(VecAdd (Vec p q) (Vec r s))"))
        assert lanes == [parse("(+ p r)"), parse("(+ q s)")]

    def test_vecmac(self):
        lanes = flatten_to_scalars(parse("(VecMAC (Vec p q) (Vec r s) (Vec t u))"))
        assert lanes == [parse("(+ p (* r t))"), parse("(+ q (* s u))")]

    def test_vec_unary(self):
        assert flatten_to_scalars(parse("(VecSqrt (Vec p q))")) == [
            parse("(sqrt p)"),
            parse("(sqrt q)"),
        ]

    def test_lane_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flatten_to_scalars(parse("(VecAdd (Vec p) (Vec r s))"))


def _vadd_spec(n=4):
    def vadd(a, b, o):
        for i in range(n):
            o[i] = a[i] + b[i]

    return lift("vadd", vadd, [("a", n), ("b", n)], [("o", n)])


class TestValidate:
    def test_accepts_correct_vectorization(self):
        spec = _vadd_spec(4)
        optimized = parse(
            "(VecAdd (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"
            " (Vec (Get b 0) (Get b 1) (Get b 2) (Get b 3)))"
        )
        result = validate(spec, optimized)
        assert result.ok
        assert result.methods_used.get("canonical", 0) + result.methods_used.get(
            "structural", 0
        ) == 4

    def test_accepts_padding_lanes(self):
        spec = _vadd_spec(2)
        optimized = parse(
            "(VecAdd (Vec (Get a 0) (Get a 1) 0 0) (Vec (Get b 0) (Get b 1) 0 0))"
        )
        assert validate(spec, optimized).ok

    def test_rejects_wrong_program(self):
        spec = _vadd_spec(2)
        wrong = parse(
            "(VecAdd (Vec (Get a 0) (Get a 1) 0 0) (Vec (Get b 1) (Get b 0) 0 0))"
        )
        result = validate(spec, wrong)
        assert not result.ok
        assert result.failing_lanes()

    def test_rejects_too_few_lanes(self):
        spec = _vadd_spec(4)
        result = validate(spec, parse("(Vec (+ (Get a 0) (Get b 0)))"))
        assert not result.ok

    def test_structural_fast_path(self):
        spec = _vadd_spec(2)
        result = validate(spec, spec.term)
        assert result.ok
        assert result.methods_used == {"structural": 2}

    def test_uninterpreted_call_without_semantics_flagged(self):
        def kernel(a, o):
            from repro.frontend import sym_call

            o[0] = sym_call("blackbox", a[0])

        spec = lift("k", kernel, [("a", 1)], [("o", 1)])
        result = validate(spec, spec.term.args[0])
        # Identical term: structural check accepts without needing
        # function semantics.
        assert result.ok

    def test_uninterpreted_call_with_semantics(self):
        from repro.frontend import sym_call

        def kernel(a, o):
            o[0] = sym_call("double", a[0])

        spec = lift("k", kernel, [("a", 1)], [("o", 1)])
        equivalent_term = parse("(List (double (Get a 0)))")
        result = validate(spec, equivalent_term, funcs={"double": lambda x: 2 * x})
        assert result.ok

    def test_uninterpreted_call_mismatch_detected(self):
        from repro.frontend import sym_call

        def kernel(a, o):
            o[0] = sym_call("double", a[0])

        spec = lift("k", kernel, [("a", 1)], [("o", 1)])
        wrong = parse("(List (double (+ (Get a 0) 1)))")
        result = validate(spec, wrong, funcs={"double": lambda x: 2 * x})
        assert not result.ok

    def test_catches_subtle_index_bug(self):
        """The classic miscompile: one shuffled index off by one."""
        spec = _vadd_spec(4)
        subtle = parse(
            "(VecAdd (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 2))"
            " (Vec (Get b 0) (Get b 1) (Get b 2) (Get b 3)))"
        )
        result = validate(spec, subtle)
        assert not result.ok
        assert [l.index for l in result.failing_lanes()] == [3]

    def test_random_lane_without_a_valid_sample_fails(self):
        """A lane whose every random sample is out of domain (here a
        square root of a negative number) carries no evidence: the
        randomized fallback must not accept it vacuously."""
        from dataclasses import replace

        root = "(sqrt (- -1 (* (Get a 0) (Get a 0))))"
        spec = replace(_vadd_spec(1), term=parse(f"(List {root})"))
        result = validate(spec, parse(f"(List (+ 1 {root}))"))
        assert not result.ok
        [lane] = result.lanes
        assert (lane.method, lane.ok, lane.detail) == (
            "random", False, "no valid random sample"
        )
