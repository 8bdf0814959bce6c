"""Exact solving of the small polynomial systems the classifiers produce."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg.errors import UnsupportedSystemError
from confalg.modules import _in_span
from confalg.poly import Poly, Registry, parse_poly
from confalg.solve import rref, solve_system


@pytest.fixture()
def reg():
    r = Registry()
    r.param("u")
    r.param("v")
    r.param("w")
    return r


def P(reg, text):
    return parse_poly(reg, text)


def renders(solution):
    return sorted(f.render() for f in solution.families)


def test_single_linear_equation(reg):
    u = reg.var("u")
    sol = solve_system([P(reg, "u - 3")], [u])
    assert renders(sol) == ["{u = 3}"]


def test_quadratic_branching(reg):
    u, v = reg.var("u"), reg.var("v")
    sol = solve_system([P(reg, "u*v"), P(reg, "u + v - 1")], [u, v])
    assert renders(sol) == ["{u = 0; v = 1}", "{u = 1; v = 0}"]
    assert all(f.is_point() for f in sol.families)


def test_univariate_factoring(reg):
    u = reg.var("u")
    sol = solve_system([P(reg, "u^2 - u")], [u])
    assert renders(sol) == ["{u = 0}", "{u = 1}"]


def test_inconsistent_system(reg):
    u = reg.var("u")
    sol = solve_system([P(reg, "u + 1"), P(reg, "u")], [u])
    assert sol.inconsistent


def test_free_direction(reg):
    u, v = reg.var("u"), reg.var("v")
    sol = solve_system([P(reg, "u - v")], [u, v])
    assert len(sol) == 1
    fam = sol.families[0]
    assert fam.free == (v,)
    assert fam.solved[u] == P(reg, "v")


def test_all_zero_equations_leave_everything_free(reg):
    u, v = reg.var("u"), reg.var("v")
    sol = solve_system([Poly.zero(reg)], [u, v])
    assert len(sol) == 1
    assert sol.families[0].free == (u, v)


def test_constant_contradiction_without_unknowns(reg):
    sol = solve_system([Poly.const(reg, Fraction(2))], [])
    assert sol.inconsistent


def test_unsupported_shape_is_reported(reg):
    u, v = reg.var("u"), reg.var("v")
    with pytest.raises(UnsupportedSystemError):
        solve_system([P(reg, "u^2 + v^2 - 1")], [u, v])


def test_stray_variable_rejected(reg):
    u = reg.var("u")
    with pytest.raises(UnsupportedSystemError):
        solve_system([P(reg, "u + d")], [u])


def test_solutions_annihilate_equations(reg):
    u, v, w = reg.var("u"), reg.var("v"), reg.var("w")
    systems = [
        ["u - 3", "v + u - 5"],
        ["u*v", "u + v - 1", "w - u"],
        ["u - v", "v - w"],
        ["u^2 - 4", "v - u"],
    ]
    for texts in systems:
        eqs = [P(reg, t) for t in texts]
        sol = solve_system(eqs, [u, v, w])
        assert not sol.inconsistent
        assert sol.verify(eqs)


def test_point_extraction(reg):
    u, v = reg.var("u"), reg.var("v")
    sol = solve_system([P(reg, "u - 2*v")], [u, v])
    fam = sol.families[0]
    point = fam.point({v: Fraction(3)})
    assert point[u] == Fraction(6)
    assert point[v] == Fraction(3)


_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _rational_rows(draw):
    """Small rational matrices padded with zero, repeated and dependent rows."""
    ncols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combination"]),
                              max_size=3)):
        if kind == "zero":
            row = [Fraction(0)] * ncols
        elif kind == "repeat":
            row = list(draw(st.sampled_from(base)))
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            s, t = draw(_ENTRIES), draw(_ENTRIES)
            row = [s * p + t * q for p, q in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@settings(max_examples=200, deadline=None)
@given(_rational_rows())
def test_rref_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    want, pivots = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]).rref()
    got = rref(rows)
    assert [next(j for j, c in enumerate(row) if c) for row in got] == list(pivots)
    assert got == [[Fraction(int(c.p), int(c.q)) for c in want.row(i)]
                   for i in range(len(pivots))]


def test_rref_accepts_integer_rows():
    assert rref([[0, 0, 0], [2, 4, 6], [1, 2, 3], [0, 3, 3]]) == \
        [[1, 0, 1], [0, 1, 1]]
    assert rref([]) == []


def test_in_span_membership():
    dirs = [{"a": Fraction(1), "b": Fraction(2)}, {"c": Fraction(1, 3)}]
    assert _in_span({"a": Fraction(-2), "b": Fraction(-4), "c": Fraction(5)}, dirs)
    assert _in_span({}, dirs)
    assert not _in_span({"a": Fraction(1)}, dirs)
    assert not _in_span({"d": Fraction(1)}, [])
