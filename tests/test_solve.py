"""Exact solving of the small polynomial systems the classifiers produce."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from confalg import solve as solve_module
from confalg.errors import UnsupportedSystemError
from confalg.poly import Poly, Registry, parse_poly
from confalg.solve import SolutionFamily, SolutionSet, integer_echelon, rational_roots, solve_system


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
    assert all(f.dim == 0 for f in sol.families)


@pytest.mark.parametrize("monomial, zeroed", [
    ("u*v", ["u", "v"]),
    ("u^2*v^3*w", ["u", "v", "w"]),
    ("2*u*v*w", ["u", "v", "w"]),
])
def test_single_monomial_sets_one_variable_to_zero_per_family(reg, monomial, zeroed):
    unknowns = [reg.var("u"), reg.var("v"), reg.var("w")]
    sol = solve_system([P(reg, monomial)], unknowns)
    assert [{v.name: str(e) for v, e in fam.solved.items()} for fam in sol.families] == \
        [{name: "0"} for name in zeroed]


def test_monomial_content_splits_off(reg):
    unknowns = [reg.var("u"), reg.var("v"), reg.var("w")]
    sol = solve_system([P(reg, "u^2*v + u^2*w")], unknowns)
    assert renders(sol) == ["{u = 0; free: v, w}", "{v = -w; free: u, w}"]


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


def _sparse(rows):
    """Dense rows as the sparse ``{column: coefficient}`` rows
    ``integer_echelon`` takes, zero entries included."""
    return [dict(enumerate(row)) for row in rows]


def _rref(rows):
    """The ``integer_echelon`` basis of sparse ``rows`` with every pivot
    normalised to 1: the reduced row-echelon form, keys in order."""
    out = []
    for row in integer_echelon(rows):
        assert all(isinstance(c, int) and c for c in row.values())
        lead = min(row)
        out.append({k: Fraction(c, row[lead]) for k, c in sorted(row.items())})
    return out


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


@settings(max_examples=200, deadline=None)
@given(_rational_rows())
def test_rref_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    want, pivots = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]).rref()
    got = _rref(_sparse(rows))
    assert [next(iter(row)) for row in got] == list(pivots)
    assert all(list(row) == sorted(row) and all(row.values()) for row in got)
    assert _dense(got, len(rows[0])) == [[Fraction(int(c.p), int(c.q)) for c in want.row(i)]
                                         for i in range(len(pivots))]


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRIES, max_size=4),
       st.lists(_ENTRIES, min_size=1, max_size=4).filter(any))
def test_rational_roots_match_sympy(roots, cofactor):
    """A polynomial with the drawn rational roots times a random cofactor:
    rational_roots agrees with sympy's roots restricted to Q."""
    sympy = pytest.importorskip("sympy")
    coeffs = list(cofactor)
    for r in roots:  # times (u - r), coefficients from u^0 up
        coeffs = [lo - r * hi for lo, hi in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    u = sympy.Symbol("u")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * u ** k for k, c in enumerate(coeffs))
    want = sorted(Fraction(int(r.p), int(r.q)) for r in sympy.roots(poly, u, filter="Q"))
    assert rational_roots(coeffs) == want


_HUGE = st.integers(-10 ** 20, 10 ** 20)
_HUGE_ROOT = st.builds(Fraction, st.integers(-10 ** 10, 10 ** 10),
                       st.integers(1, 10 ** 10))


@st.composite
def _low_degree_huge(draw):
    """Coefficients (constant first) of a degree-1 or degree-2 polynomial
    with coefficients up to 10^20 in size, times u^z for z up to 2: either
    drawn outright or built from rational roots with 10-digit numerators
    and denominators, so that huge rational roots occur."""
    degree = draw(st.integers(1, 2))
    if draw(st.booleans()):
        coeffs = [Fraction(c) for c in draw(st.lists(_HUGE, min_size=degree,
                                                     max_size=degree))]
        coeffs.append(Fraction(draw(_HUGE.filter(bool))))
    else:
        coeffs = [Fraction(1)]
        for r in draw(st.lists(_HUGE_ROOT, min_size=degree, max_size=degree)):
            # times (q u - p) for the root p/q
            p, q = r.numerator, r.denominator
            coeffs = [q * lo - p * hi
                      for lo, hi in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    return [Fraction(0)] * draw(st.integers(0, 2)) + coeffs


@settings(max_examples=200, deadline=None)
@given(_low_degree_huge())
# sympy 1.14's roots(..., filter="Q") raises ValueError on this quadratic,
# which has no rational root.
@example([Fraction(-879), Fraction(-52672014718), Fraction(-52672014718)])
def test_rational_roots_of_huge_low_degree_match_sympy(coeffs):
    """A linear remainder is solved in closed form and a quadratic one by the
    Sturm bisection, so huge coefficients and roots cost no divisor search.
    The expected roots are those of the linear factors of sympy's
    factorisation over Q."""
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * u ** k
                          for k, c in enumerate(coeffs)), u)
    roots = (-f.nth(0) / f.nth(1) for f, _ in poly.factor_list()[1] if f.degree() == 1)
    want = sorted({Fraction(int(r.p), int(r.q)) for r in roots})
    assert rational_roots(coeffs) == want


def test_rational_roots_of_huge_cubics():
    """Degree >= 2 remainders bisect a Sturm sequence inside the Cauchy bound
    instead of trying divisors, so 20-digit end coefficients cost nothing.
    The sequence counts distinct roots, so repeated factors need no
    squarefree part first."""
    big = 10 ** 20
    assert rational_roots([-big, 0, 0, 1]) == []
    assert rational_roots([-big, 1, -big, 1]) == [big]  # (u - big)(u^2 + 1)
    # (3u - big)(u^2 + u + 1)
    assert rational_roots([-big, 3 - big, 3 - big, 3]) == [Fraction(big, 3)]
    # (2u - 1)^3 (u + 2)^2
    assert rational_roots([Fraction(c) for c in (-4, 20, -25, -10, 20, 8)]) == \
        [-2, Fraction(1, 2)]
    # u^2 (3u - big)^2
    assert rational_roots([Fraction(c) for c in (0, 0, big * big, -6 * big, 9)]) == \
        [0, Fraction(big, 3)]
    assert rational_roots([Fraction(c) for c in (1, 0, 2, 0, 1)]) == []  # (u^2 + 1)^2
    # (u^2 - 2)^2 (u - 5)
    assert rational_roots([Fraction(c) for c in (-20, 4, 20, -4, -5, 1)]) == [5]
    # (u - 1/3)^2
    assert rational_roots([Fraction(1, 9), Fraction(-2, 3), Fraction(1)]) == [Fraction(1, 3)]
    assert rational_roots([Fraction(0)] * 5 + [Fraction(1)]) == [0]  # u^5


@settings(max_examples=100, deadline=None)
@given(st.lists(_HUGE_ROOT, max_size=3), st.lists(_HUGE, min_size=1, max_size=3),
       st.integers(1, 10 ** 6))
def test_rational_roots_of_huge_higher_degree_match_sympy(roots, cofactor, lead):
    """Huge rational roots times a cofactor of degree <= 2 with huge
    coefficients, of degree 3 to 5 in all: the Sturm bisection agrees with
    the linear factors of sympy's factorisation over Q."""
    sympy = pytest.importorskip("sympy")
    coeffs = [Fraction(c) for c in cofactor] + [Fraction(lead)]
    for r in roots:  # times (q u - p) for the root p/q
        p, q = r.numerator, r.denominator
        coeffs = [q * lo - p * hi for lo, hi in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    assume(len(coeffs) >= 4)
    u = sympy.Symbol("u")
    poly = sympy.Poly(sum(sympy.Integer(int(c)) * u ** k for k, c in enumerate(coeffs)), u)
    want = sorted({Fraction(int(-f.nth(0)), int(f.nth(1)))
                   for f, _ in poly.factor_list()[1] if f.degree() == 1})
    assert rational_roots(coeffs) == want


def test_rref_accepts_integer_rows():
    assert _rref(_sparse([[0, 0, 0], [2, 4, 6], [1, 2, 3], [0, 3, 3]])) == \
        [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert integer_echelon([]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=5), max_size=6),
       st.integers(1, 5))
def test_integer_rows_eliminate_as_their_fractions(rows, bound):
    """Integer rows, which ``_primitive`` only divides by their gcd, give
    the same ``integer_echelon`` output as the same rows written as
    ``Fraction``s, with and without a rank bound."""
    ints = _sparse(rows)
    fractions = [{k: Fraction(c) for k, c in row.items()} for row in ints]
    for rank_bound in (None, bound):
        got = integer_echelon(ints, rank_bound)
        assert got == integer_echelon(fractions, rank_bound)
        assert all(type(c) is int and c for row in got for c in row.values())
    for row, frac in zip(ints, fractions):
        assert solve_module._primitive(row) == solve_module._primitive(frac)


def _reference_echelon(rows, rank_bound=None):
    """``integer_echelon`` without its unit-row path: every row is scaled
    to a primitive integer row and cross-multiplied against each pivot it
    meets.  The oracle the kernel must match exactly."""
    def content_free(ints):
        g = math.gcd(*ints.values())
        return ints if g == 1 else {k: c // g for k, c in ints.items()}

    def cancel(row, pivot, col):
        p, c = pivot[col], row[col]
        out = {k: p * a for k, a in row.items()}
        for k, b in pivot.items():
            v = out.get(k, 0) - c * b
            if v:
                out[k] = v
            else:
                del out[k]
        return out

    pivots = {}
    for row in rows:
        row = {k: c for k, c in row.items() if c}
        if not row:
            continue
        scale = math.lcm(*(Fraction(c).denominator for c in row.values()))
        vec = content_free({k: int(c * scale) for k, c in row.items()})
        for col in [k for k in vec if k in pivots]:
            vec = cancel(vec, pivots[col], col)
        if not vec:
            continue
        vec = content_free(vec)
        lead = min(vec)
        for col, prow in pivots.items():
            if lead in prow:
                pivots[col] = content_free(cancel(prow, vec, lead))
        pivots[lead] = vec
        if len(pivots) == rank_bound:
            break
    return [pivots[col] for col in sorted(pivots)]


@st.composite
def _traffic_rows(draw):
    """Sparse rows shaped like the kernel's traffic: mostly one- and
    two-entry rows over at most 12 columns, with repeated rows and their
    scalar multiples (negative scalars included), int and ``Fraction``
    entries and explicit zeros."""
    column = st.integers(0, draw(st.integers(1, 12)) - 1)
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    rows = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["unit", "unit", "unit", "pair", "pair", "wide", "repeat"]))
        if kind == "repeat" and rows:
            scalar = draw(st.sampled_from([1, -1, 2, -3, Fraction(-1, 2)]))
            row = {k: scalar * c for k, c in draw(st.sampled_from(rows)).items()}
        else:
            size = {"unit": 1, "pair": 2}.get(kind) or draw(st.integers(3, 5))
            row = {draw(column): draw(entry) for _ in range(size)}
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(_traffic_rows(), st.integers(1, 6))
@example([{0: 1, 1: -1}, {0: -1}, {1: 2}], 2)
# the last row hits a +1 unit pivot, a -1 unit pivot and a wider pivot
@example([{0: 1}, {1: -1}, {2: 1, 3: 2}, {0: 3, 1: 2, 2: 5, 3: 1, 4: -2}], 4)
@example([{0: Fraction(-2, 3)}, {1: -5}, {2: 2, 4: 3}, {4: 6, 1: 4, 2: -1, 0: 9}], 3)
# _primitive shrinks the second and third rows to one entry
@example([{1: 2}, {0: 0, 1: 3}, {0: 0, 2: Fraction(-4, 3)}, {2: 1, 3: 1}], 2)
def test_integer_echelon_matches_the_reference(rows, bound):
    """The kernel returns exactly the reference's rows, entries, signs, key
    order and row order, and stops reading at the same row under a rank
    bound."""
    for rank_bound in (None, bound):
        got_rows, want_rows = iter(rows), iter(rows)
        got = integer_echelon(got_rows, rank_bound)
        want = _reference_echelon(want_rows, rank_bound)
        assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
        assert all(type(c) is int for row in got for c in row.values())
        assert len(list(got_rows)) == len(list(want_rows))


@settings(max_examples=200, deadline=None)
@given(_traffic_rows(), st.one_of(st.none(), st.integers(0, 6)))
def test_integer_echelon_writes_to_no_input_row(rows, bound):
    """Every input row is left as it was, and no output row is an input
    row, so callers may pass rows they share, such as a stored table's."""
    before = [list(row.items()) for row in rows]
    got = integer_echelon(rows, bound)
    assert [list(row.items()) for row in rows] == before
    assert not any(out is row for out in got for row in rows)


def test_rank_bound_zero_reads_no_row():
    rows = iter([{0: 1}, {1: 2}])
    assert integer_echelon(rows, 0) == []
    assert list(rows) == [{0: 1}, {1: 2}]


def test_spanned_unit_rows_are_skipped_without_cancelling(monkeypatch):
    """A unit row on a column whose pivot row is a unit row is dropped in
    O(1): only the one real reduction, clearing column 4 from the first
    pivot, calls ``_cancel``."""
    calls = []
    real_cancel = solve_module._cancel

    def counting(*args):
        calls.append(args)
        return real_cancel(*args)

    monkeypatch.setattr(solve_module, "_cancel", counting)
    rows = [{3: 1, 4: 2}, {4: -5}, {3: 7}, {4: Fraction(1, 3)}, {3: -1, 5: 0}]
    assert integer_echelon(rows) == [{3: -1}, {4: -1}]
    assert len(calls) == 1


def _family(reg, unknowns, *texts):
    """The canonical family cut out by affine equations given as text."""
    eqs = [P(reg, text) for text in texts]
    return solve_module._echelon_family(unknowns, solve_module._affine_rows(eqs, unknowns), reg)


def test_union_dedupes_absorbs_and_sorts(reg):
    u, v, w = unknowns = [reg.var(name) for name in "uvw"]
    plane = _family(reg, unknowns, "u - v - w - 1")
    same_plane = _family(reg, unknowns, "v - u + w + 1")
    line_in_plane = _family(reg, unknowns, "u - 2*w - 1", "v - w")
    point = _family(reg, unknowns, "u", "v", "w - 7")
    line = _family(reg, unknowns, "u - w", "v - 1")
    got = solve_module._union(unknowns, [line_in_plane, plane, line, same_plane, point], reg)
    # The plane's two presentations are one family and absorb the line
    # inside it; the point and the other line lie off the plane.
    assert [fam.render() for fam in got] == ["{u = 0; v = 0; w = 7}", "{u = w; v = 1; free: w}",
                                             "{u = v + w + 1; free: v, w}"]


def test_inconsistent_solver_branch_is_a_typed_error(reg, monkeypatch):
    u, v = reg.var("u"), reg.var("v")
    monkeypatch.setattr(solve_module, "_solve",
                        lambda eqs, unknowns, depth: [(P(reg, "u - v"), P(reg, "u - v - 1"))])
    with pytest.raises(UnsupportedSystemError,
                       match=r"solver branch is inconsistent: \{u - v; u - v - 1\}"):
        solve_system([P(reg, "u*v")], [u, v])


# ---- affine square roots -------------------------------------------------------


def _sign_mask_sqrt(p):
    """Reference for ``_affine_sqrt``: fix the first squared variable's sign
    positive and search the signs of the others, 2^(k-1) candidates for k
    squared variables."""
    if p.is_zero():
        return Poly.zero(p.registry)
    if p.total_degree() > 2:
        return None
    vs = p.variables()
    comps = {}
    for v in vs:
        c2 = p.coeff_of(v, 2)
        if not c2.is_constant():
            return None
        r = solve_module._fraction_sqrt(c2.constant_value())
        if r is None:
            return None
        comps[v] = r
    carriers = [v for v in vs if comps[v] != 0]
    if not carriers:
        if not p.is_constant():
            return None
        r = solve_module._fraction_sqrt(p.constant_value())
        return Poly.const(p.registry, r) if r is not None else None
    anchor = carriers[0]
    for mask in range(1 << (len(carriers) - 1)):
        e = Poly.from_var(p.registry, anchor) * comps[anchor]
        for i, v in enumerate(carriers[1:]):
            sign = 1 if (mask >> i) & 1 == 0 else -1
            e = e + Poly.from_var(p.registry, v) * (comps[v] * sign)
        lin_const = p.coeff_of(anchor, 1)
        for v in carriers[1:]:
            lin_const = lin_const.coeff_of(v, 0)
        if not lin_const.is_constant():
            return None
        e0 = lin_const.constant_value() / (2 * comps[anchor])
        cand = e + Poly.const(p.registry, e0)
        if cand * cand == p:
            return cand
    return None


_HALVES = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def _square_candidates(draw):
    """Polynomials of degree at most 2 in up to 4 unknowns: squares of affine
    forms, such squares with one coefficient perturbed, and random
    quadratics."""
    n = draw(st.integers(1, 4))
    reg, unknowns = _unknowns(n)
    x = [Poly.from_var(reg, v) for v in unknowns]
    kind = draw(st.sampled_from(["square", "perturbed", "random"]))
    if kind == "random":
        p = Poly.const(reg, draw(_HALVES))
        for i in range(n):
            p = p + x[i] * draw(_HALVES)
            for j in range(i, n):
                p = p + x[i] * x[j] * draw(_HALVES)
        return p
    form = _affine(reg, unknowns, draw(st.lists(_HALVES, min_size=n, max_size=n)),
                   draw(_HALVES))
    p = form * form
    if kind == "perturbed":
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n - 1))
        term = Poly.one(reg) if i == n else x[i] * x[j]
        p = p + term * draw(_HALVES.filter(bool))
    return p


@settings(max_examples=300, deadline=None)
@given(_square_candidates())
def test_affine_sqrt_matches_the_sign_mask_search(p):
    got = solve_module._affine_sqrt(p)
    assert got == _sign_mask_sqrt(p)
    if got is not None:
        assert got * got == p


# ---- solve_system against sympy -------------------------------------------
#
# sympy is a test-only oracle: these tests are skipped when it is missing.

_SMALL = st.integers(-3, 3)


def _unknowns(n):
    reg = Registry()
    return reg, [reg.param(f"u{i}") for i in range(n)]


def _affine(reg, unknowns, coeffs, const):
    total = Poly.const(reg, const)
    for v, c in zip(unknowns, coeffs):
        total = total + Poly.from_var(reg, v) * c
    return total


def _sympy_system(sympy, eqs, unknowns):
    syms = sympy.symbols([v.name for v in unknowns])
    return [sympy.sympify(str(eq)) for eq in eqs], syms


def _contains(fam, point):
    """Whether the rational point (unknown name -> value) lies in ``fam``."""
    free = {v: point[v.name] for v in fam.free}
    return all(expr.subs(free).constant_value() == point[v.name]
               for v, expr in fam.solved.items())


def _sympy_point(sympy, solution, syms):
    """The point of a sympy solution with every unsolved unknown set to 0."""
    point = {s: sympy.Integer(0) for s in syms if s not in solution}
    for s, expr in solution.items():
        point[s] = expr.subs(point)
    if not all(value.is_Rational for value in point.values()):
        raise AssertionError(f"sympy left a non-rational point: {point}")
    return {s.name: Fraction(int(v.p), int(v.q)) for s, v in point.items()}


@st.composite
def _affine_systems(draw):
    """Integer affine systems in 3-6 unknowns.  At most as many random rows as
    unknowns (so free directions are common), plus integer combinations of
    them, either exact (consistent) or with a shifted constant (usually
    inconsistent)."""
    n = draw(st.integers(3, 6))
    rows = draw(st.lists(st.lists(_SMALL, min_size=n + 1, max_size=n + 1),
                         min_size=1, max_size=n))
    for kind in draw(st.lists(st.sampled_from(["combination", "shifted"]), max_size=2)):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(_SMALL), draw(_SMALL)
        row = [s * p + t * q for p, q in zip(a, b)]
        if kind == "shifted":
            row[-1] += draw(st.integers(1, 3))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return n, rows


@settings(max_examples=150, deadline=None)
@given(_affine_systems())
def test_affine_systems_match_sympy_linsolve(system):
    sympy = pytest.importorskip("sympy")
    n, rows = system
    reg, unknowns = _unknowns(n)
    eqs = [_affine(reg, unknowns, row[:-1], row[-1]) for row in rows]
    sol = solve_system(eqs, unknowns)
    assert sol.verify(eqs)
    exprs, syms = _sympy_system(sympy, eqs, unknowns)
    want = sympy.linsolve(exprs, syms)
    assert sol.inconsistent == (want == sympy.EmptySet)
    if sol.inconsistent:
        return
    (values,) = list(want)
    free = set().union(*(sympy.sympify(e).free_symbols for e in values))
    assert len(sol) == 1
    assert sol.families[0].dim == len(free)
    solution = {s: e for s, e in zip(syms, values) if s not in free}
    assert _contains(sol.families[0], _sympy_point(sympy, solution, syms))


@st.composite
def _drawn_affine_rows(draw):
    """Affine systems with rational coefficients in 1-5 unknowns, as the
    registry, the unknowns in registry order, the unknowns in a drawn order
    that is usually not the registry's, and dense rows over the registry
    order with the constant last.  Each draw mixes random rows with zero
    rows, a constant-only row, repeated rows and combinations of earlier
    rows, exact or with a shifted constant, so the system may be empty, all
    zero, free, unique or inconsistent."""
    n = draw(st.integers(1, 5))
    reg, registered = _unknowns(n)
    unknowns = draw(st.permutations(registered))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=n + 1, max_size=n + 1), max_size=n))
    kinds = ["zero", "constant", "repeat", "combination", "shifted"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if kind == "zero":
            row = [Fraction(0)] * (n + 1)
        elif kind == "constant":
            row = [Fraction(0)] * n + [draw(_ENTRIES.filter(bool))]
        elif not rows:
            continue
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_ENTRIES), draw(_ENTRIES)
            row = [s * p + t * q for p, q in zip(a, b)]
            if kind == "shifted":
                row[-1] += draw(_ENTRIES.filter(bool))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return reg, registered, unknowns, rows


def _affine_polys(system):
    """A ``_drawn_affine_rows`` system as (registry, unknowns, ``Poly``s)."""
    reg, registered, unknowns, rows = system
    return reg, unknowns, [_affine(reg, registered, row[:-1], row[-1]) for row in rows]


@settings(max_examples=200, deadline=None)
@given(_drawn_affine_rows().map(_affine_polys))
def test_affine_systems_are_one_canonical_elimination(system):
    """The one elimination of an affine system agrees with solving it for
    the highest-index unknown of each row, a pivot order of its own, and is
    in reduced echelon form over the order of its unknowns."""
    reg, unknowns, eqs = system
    got = solve_system(eqs, unknowns)
    variables = reg.all_vars()
    # Column keys: unknown index i as -i, so each row's leading column is its
    # highest-index unknown, and the constant last as 1.
    rows = [{-m[0][0] if m else 1: c for m, c in eq._terms.items()} for eq in eqs]
    assign = {}
    for row in integer_echelon(rows):
        lead = min(row)
        if lead == 1:
            assign = None
            break
        assign[variables[-lead]] = Poly(reg, {() if k == 1 else ((-k, 1),): Fraction(-c, row[lead])
                                              for k, c in row.items() if k != lead})
    assert (assign is None) == got.inconsistent
    if assign is None:
        return
    (fam,) = got.families
    assert fam.dim == len(unknowns) - len(assign)
    for v, expr in fam.solved.items():
        assert (Poly.from_var(reg, v) - expr).subs(assign).is_zero()
        later = unknowns[unknowns.index(v) + 1:]
        assert all(u in fam.free and u in later for u in expr.variables())
    assert got.verify(eqs)


def _solve_rows(reg, registered, unknowns, rows, as_ints):
    """``solve_system`` of dense rows over ``registered`` given as sparse
    rows keyed by position in ``unknowns``, the constant last, zero entries
    kept; with ``as_ints`` each row is first scaled to integers by the lcm
    of its denominators."""
    column = {v: k for k, v in enumerate(unknowns)}
    sparse = []
    for row in rows:
        scale = math.lcm(*(c.denominator for c in row)) if as_ints else 1
        entries = [c * scale for c in row]
        if as_ints:
            entries = [int(c) for c in entries]
        sparse.append({column[v]: c for v, c in zip(registered, entries)}
                      | {len(unknowns): entries[-1]})
    return solve_system(sparse, unknowns, registry=reg)


@settings(max_examples=200, deadline=None)
@given(_drawn_affine_rows(), st.booleans())
def test_affine_rows_and_polys_are_the_same_elimination(system, as_ints):
    """An affine system given as its rows, rational or scaled to integers,
    gives the same families, one by one, as the same system given as
    ``Poly``s: empty, all-zero, free, unique and inconsistent alike."""
    reg, unknowns, eqs = _affine_polys(system)
    by_polys = solve_system(eqs, unknowns)
    by_rows = _solve_rows(*system, as_ints)
    assert by_rows.families == by_polys.families
    assert by_rows.render() == by_polys.render()


def test_affine_rows_cover_the_degenerate_systems():
    """The empty system, a zero row and a constant-only row, as rows and as
    ``Poly``s, give the same solution sets."""
    reg, unknowns = _unknowns(2)
    zero, one = Fraction(0), Fraction(1)
    for rows, render in (([], "{free: u0, u1}"), ([[zero, zero, zero]], "{free: u0, u1}"),
                         ([[zero, zero, one], [one, zero, one]], "inconsistent"),
                         ([[one, -one, Fraction(1, 2)], [zero] * 3], "{u0 = u1 - 1/2; free: u1}")):
        _, _, eqs = _affine_polys((reg, unknowns, unknowns, rows))
        for as_ints in (False, True):
            by_rows = _solve_rows(reg, unknowns, unknowns, rows, as_ints)
            assert by_rows == solve_system(eqs, unknowns)
            assert by_rows.render() == render


def _reference_pivot_assignments(rows, unknowns, registry):
    """``_pivot_assignments`` reading every row in the given order, with no
    sort and no rank bound.  The oracle the solver's families must match."""
    n = len(unknowns)
    assign = {}
    for row in integer_echelon(rows):
        lead = min(row)
        if lead == n:
            return None
        assign[unknowns[lead]] = Poly(registry, {
            () if k == n else ((unknowns[k].index, 1),): Fraction(-c, row[lead])
            for k, c in row.items() if k != lead}, _normalized=True)
    return assign


@st.composite
def _sparse_int_rows(draw):
    """Sparse integer rows over 0-6 unknowns, keyed by position with the
    constant at n, explicit zeros included: homogeneous (no constant key)
    or not, so the system may be of full rank, free or inconsistent."""
    n = draw(st.integers(0, 6))
    columns = list(range(n)) + ([] if draw(st.booleans()) else [n])
    row = st.dictionaries(st.sampled_from(columns), st.integers(-3, 3), max_size=4) \
        if columns else st.just({})
    return n, draw(st.lists(row, max_size=12))


@settings(max_examples=300, deadline=None)
@given(_sparse_int_rows())
@example((3, [{0: 1, 1: 2}, {2: -1}, {1: 3}, {0: 2, 1: 1, 2: 5}, {1: 1}]))  # full rank
@example((2, [{0: 1}, {1: 1}, {0: 1, 1: 1, 2: 1}]))  # the constant after rank n
@example((2, [{0: 1}, {1: 1}, {0: 1, 2: 0}]))  # a zero constant only
@example((0, []))
@example((0, [{}, {0: 0}]))
@example((0, [{0: 3}]))
def test_row_systems_match_the_unsorted_unbounded_elimination(system):
    """Reading rows sparsest first and stopping a homogeneous system at
    full rank gives the same solution set as eliminating every row in the
    given order."""
    n, rows = system
    reg, unknowns = _unknowns(n)
    assign = _reference_pivot_assignments(rows, unknowns, reg)
    want = SolutionSet(unknowns, () if assign is None else (
        SolutionFamily(unknowns, assign, [v for v in unknowns if v not in assign]),))
    got = solve_system(rows, unknowns, registry=reg)
    assert got == want
    assert got.render() == want.render()


def test_affine_equation_naming_a_non_unknown_is_rejected(reg):
    u, v = reg.var("u"), reg.var("v")
    with pytest.raises(UnsupportedSystemError) as caught:
        solve_system([P(reg, "u - 1"), P(reg, "u + 2*v - 1")], [u])
    assert str(caught.value) == "equation mentions non-unknown variables ['v']: u + 2*v - 1"


def test_affine_system_uses_no_branch_depth(reg, monkeypatch):
    monkeypatch.setattr(solve_module, "_MAX_BRANCH_DEPTH", 0)
    u, v, w = (reg.var(name) for name in "uvw")
    sol = solve_system([P(reg, "u + v - 1"), P(reg, "u - v"), P(reg, "2*u + 2*v - 2")],
                       [w, v, u])
    assert sol.render() == "{u = 1/2; v = 1/2; free: w}"
    assert solve_system([P(reg, "u + v"), P(reg, "u + v - 1")], [u, v]).inconsistent


@st.composite
def _product_systems(draw):
    """One to four equations, each a product of two random affine forms, in
    3-5 unknowns.  Equation k has its own leading unknown u_{n-1-k}, with a
    nonzero coefficient in both forms, and otherwise only lower unknowns; the
    solver can always factor such a system, whatever it substitutes first."""
    n = draw(st.integers(3, 5))
    eqs = []
    for k in range(draw(st.integers(1, min(n, 4)))):
        lead = n - 1 - k
        factors = []
        for _ in range(2):
            coeffs = [draw(st.integers(-2, 2)) for _ in range(lead)]
            coeffs.append(draw(st.sampled_from([-2, -1, 1, 2])))
            factors.append((coeffs + [0] * (n - 1 - lead), draw(_SMALL)))
        eqs.append(factors)
    return n, eqs


@settings(max_examples=50, deadline=None)
@given(_product_systems())
def test_factorable_quadratics_contain_sympy_solutions(system):
    """Each choice of one factor per equation is an affine system; the points
    sympy's ``linsolve`` finds for it must lie in some returned family."""
    sympy = pytest.importorskip("sympy")
    n, factor_pairs = system
    reg, unknowns = _unknowns(n)
    eqs = [_affine(reg, unknowns, *f) * _affine(reg, unknowns, *g) for f, g in factor_pairs]
    sol = solve_system(eqs, unknowns)
    assert sol.verify(eqs)
    for choice in itertools.product(*factor_pairs):
        exprs, syms = _sympy_system(
            sympy, [_affine(reg, unknowns, *f) for f in choice], unknowns)
        for values in sympy.linsolve(exprs, syms):
            free = set().union(*(sympy.sympify(e).free_symbols for e in values))
            solution = {s: e for s, e in zip(syms, values) if s not in free}
            point = _sympy_point(sympy, solution, syms)
            assert any(_contains(fam, point) for fam in sol), (choice, sol.render())


# ---- solver limits -----------------------------------------------------------


def test_branch_depth_limit():
    reg, unknowns = _unknowns(401)
    eqs = [Poly.from_var(reg, v) ** 2 for v in unknowns]
    with pytest.raises(UnsupportedSystemError, match="branch depth exhausted"):
        solve_system(eqs, unknowns)


def test_component_limit():
    reg, unknowns = _unknowns(10)
    eqs = [Poly.from_var(reg, v) ** 2 - Poly.from_var(reg, v) for v in unknowns]
    with pytest.raises(UnsupportedSystemError, match="exploded into 1024 components"):
        solve_system(eqs, unknowns)


def test_affine_block_takes_one_depth_unit():
    """An affine system longer than the depth limit is one elimination."""
    reg, unknowns = _unknowns(450)
    u = [Poly.from_var(reg, v) for v in unknowns]
    eqs = [u[i] - u[i + 1] - 1 for i in range(449)] + [u[449]]
    sol = solve_system(eqs, unknowns)
    assert len(sol) == 1 and sol.families[0].dim == 0
    assert sol.families[0].point() == {v: Fraction(449 - i) for i, v in enumerate(unknowns)}


# ---- equation order ----------------------------------------------------------


def _outcome(eqs, unknowns):
    """The rendered solution set, or the message of the error raised."""
    try:
        return solve_system(eqs, unknowns).render()
    except UnsupportedSystemError as exc:
        return f"error: {exc}"


@st.composite
def _mixed_systems(draw):
    """Affine equations next to products of two affine forms, in 3-5 unknowns,
    with up to two sums of two squares that need not factor, now and then a
    single-term power (u^2, v^3, u*w^2) and now and then a repeated equation,
    so both solution sets and solver errors occur, and an error may have more
    than one equation to name."""
    n = draw(st.integers(3, 5))
    form = st.tuples(st.lists(_SMALL, min_size=n, max_size=n), _SMALL)
    reg, unknowns = _unknowns(n)
    eqs = [_affine(reg, unknowns, *f) for f in draw(st.lists(form, min_size=1, max_size=3))]
    eqs += [_affine(reg, unknowns, *f) * _affine(reg, unknowns, *g)
            for f, g in draw(st.lists(st.tuples(form, form), min_size=1, max_size=3))]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.permutations(range(n)))[:2]
        eqs.append(Poly.from_var(reg, unknowns[i]) ** 2 + Poly.from_var(reg, unknowns[j]) ** 2
                   + draw(st.integers(1, 3)))
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        x, y = Poly.from_var(reg, unknowns[i]), Poly.from_var(reg, unknowns[j])
        eqs.append(draw(st.sampled_from([x ** 2, x ** 3, x * y ** 2])) * draw(_SMALL.filter(bool)))
    if draw(st.booleans()):
        eqs.append(draw(st.sampled_from(eqs)))
    return unknowns, eqs


@settings(max_examples=150, deadline=None)
@given(_mixed_systems(), st.data())
def test_equation_order_does_not_change_the_result(system, data):
    unknowns, eqs = system
    shuffled = data.draw(st.permutations(eqs))
    assert _outcome(shuffled, unknowns) == _outcome(eqs, unknowns)


def test_exhausted_depth_names_the_least_equation(reg, monkeypatch):
    """With affine and nonlinear equations mixed, the depth error names the
    least equation by (total degree, length, terms), wherever it stands."""
    monkeypatch.setattr(solve_module, "_MAX_BRANCH_DEPTH", 0)
    u, v, w = (reg.var(name) for name in "uvw")
    texts = ["u*v - 1", "u + v + w - 3", "w^2 - u", "2*u - v", "v - 1"]
    for order in (texts, texts[::-1], texts[2:] + texts[:2]):
        with pytest.raises(UnsupportedSystemError) as caught:
            solve_system([P(reg, t) for t in order], [u, v, w])
        assert str(caught.value) == "branch depth exhausted while triangularizing: 2*u - v"
