"""Exact polynomial kernel: arithmetic, canonical form, division, parsing."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg.errors import NonMonicDivisorError, ParseError, RegistryError
from confalg.poly import (Poly, Registry, group_coefficients, monic_div_rem, parse_poly, scaled,
                         signed_sum)


@pytest.fixture()
def reg():
    r = Registry()
    r.param("c")
    r.param("beta")
    return r


def P(reg, text):
    return parse_poly(reg, text)


class TestArithmetic:
    def test_cancellation(self, reg):
        assert P(reg, "(d + 2*x) + (-2*x)") == P(reg, "d")

    def test_multiplicative_identity(self, reg):
        p = P(reg, "d + beta")
        assert p * Poly.one(reg) == p

    def test_quadratic_product(self, reg):
        prod = P(reg, "(d + 2*x) * (-d - 2*c)")
        assert str(prod) == "-d^2 - 2*d*x - 2*d*c - 4*x*c"

    def test_scalar_coercion(self, reg):
        assert P(reg, "d") + 1 == P(reg, "d + 1")
        assert 2 * P(reg, "x") == P(reg, "2*x")
        assert P(reg, "x") / 2 == P(reg, "1/2*x")

    def test_power(self, reg):
        assert P(reg, "(1/2*x + d)^2") == P(reg, "d^2 + d*x + 1/4*x^2")

    def test_division_by_zero_rejected(self, reg):
        with pytest.raises(ZeroDivisionError):
            P(reg, "d") / 0


class TestCanonicalForm:
    def test_rendering_order(self, reg):
        assert str(P(reg, "2*x + d")) == "d + 2*x"
        assert str(-P(reg, "d")) == "-d"
        assert str(Poly.zero(reg)) == "0"

    def test_rebuild_is_identity(self, reg):
        p = P(reg, "(d + 2*x) * (-d - 2*c) + beta")
        rebuilt = Poly(reg, dict(p.terms()))
        assert rebuilt == p
        assert str(rebuilt) == str(p)

    def test_no_zero_terms_stored(self, reg):
        p = P(reg, "d + x") - P(reg, "x")
        assert all(coeff != 0 for _, coeff in p.terms())
        assert p == P(reg, "d")

    def test_total_degree(self, reg):
        assert Poly.zero(reg).total_degree() == -1
        assert Poly.one(reg).total_degree() == 0
        p = P(reg, "d^2*x + c*beta*x^3 + 5")
        assert p.total_degree() == 5
        assert p.total_degree() == 5
        assert (p - P(reg, "c*beta*x^3")).total_degree() == 3

    def test_scaled_leaves_out_unit_coefficients(self):
        assert scaled(Fraction(1), "d") == "d"
        assert scaled(Fraction(-1), "d") == "-d"
        assert scaled(Fraction(-3, 2), "d*x") == "-3/2*d*x"
        assert scaled(Fraction(-1), "") == "-1"
        assert scaled(Fraction(5), "") == "5"

    def test_signed_sum(self):
        assert signed_sum([]) == "0"
        assert signed_sum(["-a"]) == "-a"
        assert signed_sum(["a", "-2*b", "c"]) == "a - 2*b + c"
        assert signed_sum(iter(["-a", "-b"])) == "-a - b"

    def test_parse_round_trip(self, reg):
        for text in ["d + 2*x", "-d^2 - 2*d*x - 2*d*c - 4*x*c",
                     "x*c + d + y + beta", "1/2*x", "0", "-3"]:
            assert str(P(reg, text)) == text


class TestSubstitution:
    def test_skew_shift(self, reg):
        assert str(P(reg, "d + 2*x").substitute(reg.x, P(reg, "-x - d"))) == "-d - 2*x"

    def test_translation(self, reg):
        got = P(reg, "d + c*x + beta").substitute(reg.d, P(reg, "d + y"))
        assert got == P(reg, "d + y + c*x + beta")

    def test_evaluation_at_zero(self, reg):
        assert P(reg, "x^2").substitute(reg.x, 0).is_zero()

    def test_unregistered_variable_rejected(self, reg):
        foreign = Registry()
        with pytest.raises(RegistryError):
            P(reg, "d").substitute(foreign.param("q"), 1)

    def test_cancellation_gives_canonical_zero(self, reg):
        got = P(reg, "x - y").subs({reg.x: P(reg, "y")})
        assert got.is_zero()
        assert got == Poly.zero(reg)
        assert hash(got) == hash(Poly.zero(reg))
        assert str(got) == "0"

    def test_untouched_polynomial_comes_back(self, reg):
        p = P(reg, "d^2 + c*x - beta")
        assert p.subs({reg.y: P(reg, "d + x"), reg.z: 3}) is p
        assert p.substitute(reg.y, 0) == p

    def test_simultaneous_shift(self, reg):
        got = P(reg, "d^2*x + x*y").subs({reg.d: P(reg, "d + x"), reg.x: P(reg, "y")})
        assert got == P(reg, "(d + x)^2*y + y^2")


class TestCoefficients:
    def test_linear_extraction(self, reg):
        p = P(reg, "d + 2*x")
        assert p.coeff_of(reg.x, 1) == P(reg, "2")
        assert p.coeff_of(reg.x, 0) == P(reg, "d")
        assert P(reg, "d + beta").coeff_of(reg.x, 3).is_zero()

    def test_reassembly(self, reg):
        p = P(reg, "(d + 2*x)*(x - beta) + x^3")
        x = reg.x
        total = Poly.zero(reg)
        for k in range(p.degree(x) + 1):
            total = total + p.coeff_of(x, k) * P(reg, "x") ** k
        assert total == p

    def test_group_coefficients_covers_poly(self, reg):
        u, v = reg.param("u"), reg.param("v")
        p = P(reg, "u*d + v*x^2 + u*v + 3")
        groups = group_coefficients(p, [u, v])
        total = Poly.zero(reg)
        for mono, coeff in groups.items():
            total = total + Poly(reg, {mono: Fraction(1)}) * coeff
        assert total == p


class TestDivision:
    def test_exact_factor(self, reg):
        q, r = monic_div_rem(P(reg, "(d+2)*(d+x)"), P(reg, "d+2"), reg.d)
        assert str(q) == "d + x" and r.is_zero()

    def test_exact_with_parameter(self, reg):
        q, r = monic_div_rem(P(reg, "(d+x+beta)*(d+beta)"), P(reg, "d+beta"), reg.d)
        assert str(q) == "d + x + beta" and r.is_zero()

    def test_nonzero_remainder(self, reg):
        q, r = monic_div_rem(P(reg, "(d+x+beta)*(d+x+beta)"), P(reg, "d+beta"), reg.d)
        assert str(q) == "d + 2*x + beta"
        assert str(r) == "x^2"

    def test_non_monic_rejected(self, reg):
        with pytest.raises(NonMonicDivisorError):
            monic_div_rem(P(reg, "d^2"), P(reg, "2*d"), reg.d)
        with pytest.raises(NonMonicDivisorError):
            monic_div_rem(P(reg, "d^2"), P(reg, "c*d + 1"), reg.d)


class TestParser:
    def test_rationals_and_parens(self, reg):
        assert P(reg, "(1/2 + 1/2)*d") == P(reg, "d")
        assert P(reg, "2/4") == Poly.const(reg, Fraction(1, 2))

    def test_unknown_name(self, reg):
        with pytest.raises(ParseError):
            P(reg, "d + q")

    def test_bad_token(self, reg):
        with pytest.raises(ParseError):
            P(reg, "d + @")

    def test_unbalanced_parens(self, reg):
        with pytest.raises(ParseError):
            P(reg, "(d + x")


def _polys(max_vars=4, max_terms=5, max_exp=2):
    """Random polynomials over a fresh registry (d, x, y plus one parameter)."""
    def build(term_data):
        reg = Registry()
        a = reg.param("a")
        vars_ = [reg.d, reg.x, reg.y, a][:max_vars]
        p = Poly.zero(reg)
        for exps, num, den in term_data:
            mono = Poly.one(reg)
            for v, e in zip(vars_, exps):
                mono = mono * Poly.from_var(reg, v) ** e
            p = p + mono * Fraction(num, den)
        return p

    term = st.tuples(
        st.lists(st.integers(0, max_exp), min_size=max_vars, max_size=max_vars),
        st.integers(-9, 9), st.integers(1, 9))
    return st.builds(build, st.lists(term, min_size=0, max_size=max_terms))


def _poly_triples():
    def split(term_data):
        reg = Registry()
        a = reg.param("a")
        vars_ = [reg.d, reg.x, reg.y, a]
        out = []
        for chunk in term_data:
            p = Poly.zero(reg)
            for exps, num, den in chunk:
                mono = Poly.one(reg)
                for v, e in zip(vars_, exps):
                    mono = mono * Poly.from_var(reg, v) ** e
                p = p + mono * Fraction(num, den)
            out.append(p)
        return tuple(out)

    term = st.tuples(
        st.lists(st.integers(0, 2), min_size=4, max_size=4),
        st.integers(-9, 9), st.integers(1, 9))
    chunk = st.lists(term, min_size=0, max_size=4)
    return st.builds(split, st.lists(chunk, min_size=3, max_size=3))


def _to_sympy(p, sympy):
    """The same polynomial as a sympy expression (test-only oracle)."""
    total = sympy.Integer(0)
    for mono, c in p.terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for idx, e in mono:
            term *= sympy.Symbol(p.registry.name_of(idx)) ** e
        total += term
    return total


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(_poly_triples())
    def test_ring_axioms(self, triple):
        p, q, r = triple
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=60, deadline=None)
    @given(_polys())
    def test_skew_substitution_involution(self, p):
        reg = p.registry
        shift = -Poly.from_var(reg, reg.x) - Poly.from_var(reg, reg.d)
        twice = p.substitute(reg.x, shift).substitute(reg.x, shift)
        assert twice == p

    @settings(max_examples=100, deadline=None)
    @given(_poly_triples(), st.lists(st.sampled_from("dxya"), min_size=1, max_size=2,
                                     unique=True),
           st.lists(st.integers(-2, 2), min_size=5, max_size=5))
    def test_subs_matches_sympy(self, triple, names, affine):
        sympy = pytest.importorskip("sympy")
        p, q, _ = triple
        reg = p.registry
        # An affine replacement such as d + x or -x - d makes the expansions
        # of distinct terms collide; a second variable gets the random q.
        gens = [Poly.from_var(reg, reg.var(n)) for n in "dxya"] + [Poly.one(reg)]
        form = sum((g * c for g, c in zip(gens, affine)), Poly.zero(reg))
        mapping = {reg.var(n): value for n, value in zip(names, (form, q))}
        want = sympy.expand(_to_sympy(p, sympy).subs(
            {sympy.Symbol(v.name): _to_sympy(value, sympy) for v, value in mapping.items()},
            simultaneous=True))
        assert sympy.expand(_to_sympy(p.subs(mapping), sympy) - want) == 0

    @settings(max_examples=100, deadline=None)
    @given(_poly_triples(), st.integers(0, 3),
           st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_ring_ops_match_sympy(self, triple, k, value):
        sympy = pytest.importorskip("sympy")
        p, q, _ = triple
        sp, sq = _to_sympy(p, sympy), _to_sympy(q, sympy)
        a = p.registry.var("a")
        pairs = [(p + q, sp + sq), (p - q, sp - sq), (p * q, sp * sq), (p ** k, sp ** k),
                 (p.subs({a: value}),
                  sp.subs(sympy.Symbol("a"), sympy.Rational(value.numerator, value.denominator)))]
        for got, want in pairs:
            assert sympy.expand(_to_sympy(got, sympy) - want) == 0

    @settings(max_examples=100, deadline=None)
    @given(_polys())
    def test_render_parse_round_trip(self, p):
        # _polys draws negative and fractional coefficients, so this covers
        # the signed join and unit elision of the renderer.
        assert parse_poly(p.registry, str(p)) == p

    @settings(max_examples=60, deadline=None)
    @given(_polys(), st.integers(1, 3), st.integers(-3, 3))
    def test_division_identity(self, p, deg, shift):
        reg = p.registry
        d = Poly.from_var(reg, reg.d)
        divisor = (d + shift) ** deg
        q, r = monic_div_rem(p, divisor, reg.d)
        assert q * divisor + r == p
        assert r.degree(reg.d) < divisor.degree(reg.d)

    @settings(max_examples=100, deadline=None)
    @given(_polys(max_vars=1, max_exp=5),
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3))
    def test_univariate_division_matches_sympy_div(self, p, lower):
        sympy = pytest.importorskip("sympy")
        reg = p.registry
        d = Poly.from_var(reg, reg.d)
        divisor = d ** len(lower) + sum((c * d ** k for k, c in enumerate(lower)),
                                        Poly.zero(reg))
        q, r = monic_div_rem(p, divisor, reg.d)
        want_q, want_r = sympy.div(_to_sympy(p, sympy), _to_sympy(divisor, sympy),
                                   sympy.Symbol("d"))
        assert sympy.expand(_to_sympy(q, sympy) - want_q) == 0
        assert sympy.expand(_to_sympy(r, sympy) - want_r) == 0
