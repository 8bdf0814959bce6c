"""Lambda-bracket tables, their stored terms, parameter binding, and the
axiom checks; the sesquilinear extension of a table is the test oracle
``bracket``."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import confalg.algebra as algebra
import confalg.annihilation as annihilation
import confalg.modules as modules
from confalg.algebra import (ConformalAlgebra, Generator, LambdaElement, jth_product_of,
                             locality_order_of, parse_algebra)
from confalg.errors import BindingError, DefinitionError, ParseError
from confalg.poly import Poly, parse_poly, split_terms
from confalg.presets import instantiate, rank1_module

ALL_PRESETS = ["vir", "w", "wb", "tsv", "tsvc"]
GOLDEN = Path(__file__).parent / "golden"


def elem(alg, text_by_gen):
    reg = alg.registry
    return LambdaElement(reg, {alg.gen(name): parse_poly(reg, text)
                               for name, text in text_by_gen.items()})


def bracket(alg, xelem, yelem):
    """Lambda-bracket of two generators or elements with d-polynomial
    coefficients, by the sesquilinear extension of the table: coefficients
    of the left entry are evaluated at -x, coefficients of the right entry
    at d + x, and multiplied into the table entry.  The oracle for what the
    package reads off the table, by ``Poly`` substitutions and products."""
    reg = alg.registry
    d, lam = reg.d, reg.x
    dx = Poly.from_var(reg, d) + Poly.from_var(reg, lam)
    minus_lam = -Poly.from_var(reg, lam)
    xelem, yelem = (LambdaElement.of(reg, e) if isinstance(e, Generator) else e
                    for e in (xelem, yelem))
    out = LambdaElement(reg)
    for g, p in xelem.items():
        pl = p.substitute(d, minus_lam)
        for h, q in yelem.items():
            qr = q.substitute(d, dx)
            out = out + alg.entry(g.name, h.name).map_coeffs(lambda r: r * pl * qr)
    return out


class TestAxioms:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_presets_pass_symbolically(self, name):
        alg = instantiate(name)
        assert alg.check_skew().passed
        assert alg.check_jacobi().passed

    @pytest.mark.parametrize("name", ["w", "tsv"])
    def test_residuals_vanish_on_rational_grid(self, name):
        for a, b in [(0, 0), (1, 0), (Fraction(1, 2), 1),
                     (2, Fraction(-1, 3)), (-1, 5)]:
            alg = instantiate(name, {"a": a, "b": b})
            assert alg.check_skew().passed
            assert alg.check_jacobi().passed

    def test_skew_failure_residual(self):
        text = "algebra bad\ngen L offset=1\n[L,L] = (d + 3*x) L\n"
        alg = parse_algebra(text)
        report = alg.check_skew()
        assert not report.passed
        assert [e.residual for e in report.failures()] == ["(-d) L"]

    def test_jacobi_failure_on_altered_entry(self):
        alg = instantiate("tsv")
        reg = alg.registry
        bad = LambdaElement(reg, {alg.gen("M"): parse_poly(reg, "d + a*x + 2*b")})
        mutated = alg.with_entry("L", "M", bad)
        report = mutated.check_jacobi()
        assert not report.passed
        assert ("L", "Y", "Y") in [e.key for e in report.failures()]

    def test_mutated_coefficient_fails_a_check(self):
        alg = instantiate("vir")
        entry = alg.entry("L", "L")
        bumped = entry + LambdaElement.of(alg.registry, alg.gen("L"))
        mutated = alg.with_entry("L", "L", bumped)
        assert not (mutated.check_skew().passed and mutated.check_jacobi().passed)


def _poly_jacobi_residual(alg, a, b, c):
    """The Jacobi residual of (a, b, c) built by ``Poly`` substitutions and
    products: the oracle for the closed form of ``check_jacobi``."""
    reg = alg.registry
    d, lam, mu = reg.d, reg.x, reg.y
    dp, lp, mp = (Poly.from_var(reg, v) for v in (d, lam, mu))
    out = LambdaElement(reg)
    # [a_x [b_y c]]: inner coefficients move y into place, then shift d by x.
    for k, q in alg.entry(b, c).items():
        qs = q.substitute(lam, mp).substitute(d, dp + lp)
        out = out + alg.entry(a, k.name).map_coeffs(lambda r: r * qs)
    # -[[a_x b]_{x+y} c]: left coefficients are evaluated at d -> -(x+y),
    # the outer bracket variable becomes x + y.
    for k, p in alg.entry(a, b).items():
        ps = p.substitute(d, -(lp + mp))
        inner = alg.entry(k.name, c).map_coeffs(lambda r: r.substitute(lam, lp + mp))
        out = out - inner.map_coeffs(lambda r: r * ps)
    # -[b_y [a_x c]]: inner coefficients keep x, shift d by y, outer uses y.
    for k, r0 in alg.entry(a, c).items():
        rs = r0.substitute(d, dp + mp)
        inner = alg.entry(b, k.name).map_coeffs(lambda q2: q2.substitute(lam, mp))
        out = out - inner.map_coeffs(lambda q2: q2 * rs)
    return out


def _substituted_skew_image(alg, elem):
    """``-elem`` with x -> -x - d by ``Poly.substitute``: the oracle for
    the closed-form skew image."""
    reg = alg.registry
    minus = -Poly.from_var(reg, reg.x) - Poly.from_var(reg, reg.d)
    return -(elem.map_coeffs(lambda p: p.substitute(reg.x, minus)))


_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _drawn_element(draw, alg, min_terms=1, max_terms=3):
    """A sum of terms c d^i x^j m g: c a rational, often non-integral, m 1
    or a declared parameter, g a generator."""
    reg = alg.registry
    d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
    params = [Poly.one(reg)] + [Poly.from_var(reg, v) for v in alg.params]
    term = st.tuples(_RATIONALS, st.integers(0, 2), st.integers(0, 2),
                     st.sampled_from(params), st.sampled_from(alg.generators))
    out = LambdaElement(reg)
    for c, i, j, m, g in draw(st.lists(term, min_size=min_terms, max_size=max_terms)):
        out = out + LambdaElement(reg, {g: c * d ** i * x ** j * m})
    return out


@st.composite
def _jacobi_algebras(draw):
    """An unbound preset (coefficients in its parameters), a preset bound at
    drawn rationals, or a golden fixture; then up to two entries perturbed
    by ``with_entry``, each by 1-3 drawn terms."""
    kind = draw(st.sampled_from(["unbound", "bound", "golden"]))
    if kind == "golden":
        name = draw(st.sampled_from(["broken", "wbad", "wl", "two", "heis"]))
        alg = parse_algebra((GOLDEN / f"{name}.alg").read_text())
    else:
        alg = instantiate(draw(st.sampled_from(ALL_PRESETS)))
        if kind == "bound":
            alg = alg.specialize({v.name: draw(_RATIONALS) for v in alg.params})
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(alg.ordered_pairs()))
        alg = alg.with_entry(a, b, alg.entry(a, b) + draw(_drawn_element(alg)))
    return alg


class TestClosedFormAxioms:
    """``check_jacobi`` and the skew image expand by binomials; the oracles
    substitute and multiply ``Poly``s."""

    @settings(max_examples=120, deadline=None)
    @given(_jacobi_algebras())
    def test_jacobi_matches_the_oracle(self, alg):
        names = [g.name for g in alg.generators]
        want = []
        for key in ((a, b, c) for a in names for b in names for c in names):
            residual = _poly_jacobi_residual(alg, *key)
            want.append((key, residual.render(), residual.is_zero()))
        assert [(e.key, e.residual, e.ok) for e in alg.check_jacobi().entries] == want

    @settings(max_examples=120, deadline=None)
    @given(_jacobi_algebras(), st.data())
    def test_skew_image_matches_the_oracle(self, alg, data):
        elem = data.draw(_drawn_element(alg, 0, 5))
        image = algebra._skew_terms([(g, split_terms(p)) for g, p in elem.items()])
        got, want = alg._joined(image), _substituted_skew_image(alg, elem)
        assert got == want and got.render() == want.render()
        # written as split_terms lists one: an int while integral, no zero
        assert all(c and (type(c) is int or c.denominator != 1)
                   for _, p_terms in image for *_, c in p_terms)
        assert all(type(c) is Fraction for _, p in got.items() for _, c in p.terms())
        report = [(e.key, e.residual, e.ok) for e in alg.check_skew().entries]
        oracle = []
        for a, b in alg.ordered_pairs():
            residual = alg.entry(a, b) - _substituted_skew_image(alg, alg.entry(b, a))
            oracle.append(((a, b), residual.render(), residual.is_zero()))
        assert report == oracle

    def test_checks_and_instantiate_substitute_and_multiply_nothing(self, monkeypatch):
        """A work count: building each preset's algebra from its table (skew
        completion and Virasoro detection), ``check_skew`` and
        ``check_jacobi`` call none of ``Poly.subs``, ``Poly.substitute``,
        ``Poly.__mul__`` or ``__rmul__``.  The preset table's own
        literals, such as ``d + 2 * x``, are outside the count."""
        calls, counting = [], []
        for name in ("subs", "substitute", "__mul__", "__rmul__"):
            def record(p, *args, _name=name, _real=getattr(Poly, name)):
                if counting:
                    calls.append((_name, str(p)))
                return _real(p, *args)
            monkeypatch.setattr(Poly, name, record)
        real_init = ConformalAlgebra.__init__

        def init(self, *args, **kwargs):
            counting.append(True)
            try:
                real_init(self, *args, **kwargs)
            finally:
                counting.pop()

        monkeypatch.setattr(ConformalAlgebra, "__init__", init)
        algebras = [instantiate(name) for name in ALL_PRESETS]
        counting.append(True)
        reports = [check(alg) for alg in algebras
                   for check in (ConformalAlgebra.check_skew, ConformalAlgebra.check_jacobi)]
        assert calls == []
        assert all(report.passed for report in reports)


class TestBracket:
    def test_virasoro_table(self):
        alg = instantiate("vir")
        got = bracket(alg, alg.gen("L"), alg.gen("L"))
        assert got.render() == "(d + 2*x) L"

    def test_left_sesquilinearity_example(self):
        alg = instantiate("w")
        reg = alg.registry
        dL = elem(alg, {"L": "d"})
        got = bracket(alg, dL, alg.gen("W"))
        want = elem(alg, {"W": "-x*(d + a*x + b)"})
        assert got == want

    def test_zero_entry(self):
        alg = instantiate("w")
        assert bracket(alg, alg.gen("W"), alg.gen("W")).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(-4, 4)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 2), st.integers(-4, 4)),
                    min_size=1, max_size=3))
    def test_sesquilinearity_is_structural(self, left_terms, right_terms):
        alg = instantiate("tsv")
        reg = alg.registry
        d, x = reg.d, reg.x
        names = [g.name for g in alg.generators]

        def build(terms):
            coeffs = {}
            for i, (exp, coeff) in enumerate(terms):
                g = alg.gen(names[i % len(names)])
                p = Poly.from_var(reg, d) ** exp * coeff
                coeffs[g] = coeffs.get(g, Poly.zero(reg)) + p
            return LambdaElement(reg, coeffs)

        u, v = build(left_terms), build(right_terms)
        du = u.map_coeffs(lambda p: p * Poly.from_var(reg, d))
        dv = v.map_coeffs(lambda p: p * Poly.from_var(reg, d))
        base = bracket(alg, u, v)
        lam = Poly.from_var(reg, x)
        dpl = Poly.from_var(reg, d) + lam
        assert bracket(alg, du, v) == base.map_coeffs(lambda p: -lam * p)
        assert bracket(alg, u, dv) == base.map_coeffs(lambda p: dpl * p)


class TestProducts:
    """``jth_product_of`` and ``locality_order_of`` on the oracle's brackets."""

    def test_w_products(self):
        alg = instantiate("w")
        L, W = alg.gen("L"), alg.gen("W")
        assert jth_product_of(bracket(alg, L, W), 0) == elem(alg, {"W": "d + b"})
        assert jth_product_of(bracket(alg, L, W), 1) == elem(alg, {"W": "a"})
        assert jth_product_of(bracket(alg, L, L), 2).is_zero()

    @pytest.mark.parametrize("name,pair,order", [
        ("vir", ("L", "L"), 2),
        ("w", ("W", "W"), 0),
        ("w", ("L", "W"), 2),
        ("tsvc", ("Y", "Y"), 2),
        ("tsvc", ("L", "M"), 1),
    ])
    def test_locality_orders(self, name, pair, order):
        alg = instantiate(name)
        assert locality_order_of(bracket(alg, alg.gen(pair[0]), alg.gen(pair[1]))) == order

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_products_reassemble_bracket(self, name):
        alg = instantiate(name)
        reg = alg.registry
        lam = Poly.from_var(reg, reg.x)
        for a, b in alg.ordered_pairs():
            g, h = alg.gen(a), alg.gen(b)
            br = bracket(alg, g, h)
            total = LambdaElement(reg)
            fact = 1
            for j in range(locality_order_of(br)):
                if j:
                    fact *= j
                term = jth_product_of(br, j)
                total = total + term.map_coeffs(
                    lambda p: p * lam ** j * Fraction(1, fact))
            assert total == br


class TestConstruction:
    def test_skew_completion_matches_explicit_table(self):
        upper = "algebra demo params a b\ngen L offset=1\ngen W\n" \
                "[L,L] = (d + 2*x) L\n[L,W] = (d + a*x + b) W\n[W,W] = 0\n"
        alg = parse_algebra(upper)
        lower = alg.entry("W", "L")
        explicit = alg.with_entry("W", "L", lower)
        assert alg.full_table() == explicit.full_table()
        assert alg.check_jacobi().passed == explicit.check_jacobi().passed

    @staticmethod
    def _text(alg, pairs):
        """``alg`` as an algebra file that gives the bracket of each pair."""
        lines = [f"algebra {alg.name} params " + " ".join(v.name for v in alg.params)]
        lines += [f"gen {g.name} offset={g.label_offset} shift={g.filtration_shift}"
                  for g in alg.generators]
        lines += [f"[{a},{b}] = {alg.entry(a, b).render()}" for a, b in pairs]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _rendered(alg):
        return {pair: e.render() for pair, e in alg.full_table().items()}

    def test_lower_and_mixed_orders_complete_to_the_upper_table(self):
        tsv = instantiate("tsv")
        upper = tsv.upper_pairs()
        lower = [(b, a) for a, b in upper]
        mixed = [("L", "L"), ("Y", "L"), ("L", "M"), ("Y", "Y"), ("M", "Y"), ("M", "M")]
        want = self._rendered(tsv)
        for pairs in (upper, lower, mixed):
            assert self._rendered(parse_algebra(self._text(tsv, pairs))) == want

    def test_every_diagonal_pair_must_be_given(self):
        vir_like = "algebra demo\ngen L offset=1\ngen W\n[L,L] = (d + 2*x) L\n[W,L] = 0\n"
        with pytest.raises(ParseError, match="missing bracket entry \\(W,W\\)"):
            parse_algebra(vir_like)

    def test_specialize_binds_all_parameters(self):
        alg = instantiate("w")
        with pytest.raises(BindingError):
            alg.specialize({"a": 1})
        with pytest.raises(BindingError):
            alg.specialize({"a": 1, "b": 0, "q": 2})
        bound = alg.specialize({"a": 1, "b": 0})
        assert bound.param_values == {"a": Fraction(1), "b": Fraction(0)}
        assert bound.entry("L", "W").render() == "(d + x) W"

    def test_generator_metadata_validated(self):
        with pytest.raises(DefinitionError):
            Generator("B", Fraction(1, 3), Fraction(0))
        with pytest.raises(DefinitionError):
            Generator("B", Fraction(0), Fraction(1, 3))

    @pytest.mark.parametrize("value", [1.0, 0.5, 0.0, True, False, "1/2", "0"])
    @pytest.mark.parametrize("field", ["label offset", "filtration shift"])
    def test_generator_metadata_must_be_an_int_or_a_fraction(self, field, value):
        # A float, bool or str is refused by name, not read by Fraction's
        # own rules (True as offset 1, "1/2" as shift 1/2).
        args = (value, 0) if field == "label offset" else (0, value)
        with pytest.raises(DefinitionError,
                           match=re.escape(f"generator L: {field} {value!r} is not")):
            Generator("L", *args)

    @pytest.mark.parametrize("name", [5, None, b"L", "", "2x", "L W", "L'"])
    def test_generator_name_must_be_an_identifier(self, name):
        # The rule parse_algebra applies to a gen line; Generator(5) used to
        # be built, and str() of it raised TypeError.
        with pytest.raises(DefinitionError,
                           match=re.escape(f"generator name {name!r} is not an identifier")):
            Generator(name)

    def test_generator_metadata_reads_ints_and_fractions_exactly(self):
        assert Generator("L", 1, 0).label_offset == Fraction(1)
        assert Generator("Y", Fraction(1, 2), Fraction(1, 2)).filtration_shift == Fraction(1, 2)


def _substituted_specialization(alg, bindings):
    """``alg`` with its parameters bound by ``Poly.subs`` on every
    coefficient: the oracle for ``specialize``, which binds on the terms
    stored when the algebra was built."""
    sub = {v: Fraction(bindings[v.name]) for v in alg.params}
    table = {pair: e.map_coeffs(lambda p: p.subs(sub)) for pair, e in alg.full_table().items()}
    values = {**alg.param_values, **{v.name: value for v, value in sub.items()}}
    return ConformalAlgebra(alg.name, alg.registry, alg.generators, table, (),
                            closed_ann_form=alg.closed_ann_form, param_values=values)


# Bindings: zero, negative and fractional rationals, as ints and Fractions.
_BINDINGS = st.one_of(st.sampled_from([0, -1, 2, Fraction(0), Fraction(-3, 2)]), _RATIONALS)


@st.composite
def _parametric_algebras(draw):
    """A preset or golden table with parameters, with up to three entries
    bumped by a term c d^i x^j m g, m a monomial of degree 2 or 3 in the
    parameters, such as a^2 b."""
    source = draw(st.sampled_from(["w", "wb", "tsv", "tsvc", "wbad"]))
    if source == "wbad":
        alg = parse_algebra((GOLDEN / "wbad.alg").read_text())
    else:
        alg = instantiate(source)
    reg = alg.registry
    d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
    params = [Poly.from_var(reg, v) for v in alg.params]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(alg.ordered_pairs()))
        first, *rest = draw(st.lists(st.sampled_from(params), min_size=2, max_size=3))
        m = math.prod(rest, start=first)
        c, i, j = draw(_RATIONALS), draw(st.integers(0, 2)), draw(st.integers(0, 2))
        bump = LambdaElement(reg, {draw(st.sampled_from(alg.generators)): c * d ** i * x ** j * m})
        alg = alg.with_entry(a, b, alg.entry(a, b) + bump)
    return alg


class TestSpecialize:
    """``specialize`` binds each stored term c d^i x^j m to c m(values)
    d^i x^j; the oracle substitutes into every coefficient."""

    @settings(max_examples=150, deadline=None)
    @given(_parametric_algebras(), st.data())
    def test_specialize_matches_the_oracle(self, alg, data):
        bindings = {v.name: data.draw(_BINDINGS) for v in alg.params}
        got, want = alg.specialize(bindings), _substituted_specialization(alg, bindings)
        assert list(got.full_table().items()) == list(want.full_table().items())
        assert got.param_values == want.param_values
        assert [e.render() for e in got.full_table().values()] == \
            [e.render() for e in want.full_table().values()]
        assert all(type(c) is Fraction
                   for e in got.full_table().values() for _, p in e.items() for _, c in p.terms())
        assert (got.params, got.virasoro_name) == ((), want.virasoro_name)
        # the stored terms themselves, in order, an int while integral
        for pair in alg.ordered_pairs():
            got_terms, want_terms = got.entry_terms(*pair), want.entry_terms(*pair)
            assert got_terms == want_terms
            assert [type(c) for _, p_terms in got_terms for *_, c in p_terms] == \
                [type(c) for _, p_terms in want_terms for *_, c in p_terms]

    def test_degree_three_monomial_binds(self):
        alg = instantiate("w")
        bumped = alg.with_entry("L", "W", alg.entry("L", "W") + elem(alg, {"W": "a^2*b*x*d"}))
        bound = bumped.specialize({"a": Fraction(-1, 2), "b": -2})
        assert bound.entry("L", "W").render() == "(-1/2*d*x + d - 1/2*x - 2) W"
        assert bound.param_values == {"a": Fraction(-1, 2), "b": Fraction(-2)}


def _count_splits(monkeypatch) -> list:
    """Patch ``split_terms`` in algebra, modules and annihilation to record
    each call as (module, whether an algebra was being built, polynomial)."""
    calls, building = [], []
    for module in (algebra, modules, annihilation):
        def record(p, _module=module.__name__.rsplit(".", 1)[1]):
            calls.append((_module, bool(building), p))
            return split_terms(p)
        monkeypatch.setattr(module, "split_terms", record, raising=False)
    real_init = ConformalAlgebra.__init__

    def init(self, *args, **kwargs):
        building.append(self)
        try:
            real_init(self, *args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(ConformalAlgebra, "__init__", init)
    return calls


def _count_elements(monkeypatch) -> list:
    """Patch ``LambdaElement.__init__`` to record each element built."""
    built = []
    real_init = LambdaElement.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(LambdaElement, "__init__", init)
    return built


def _test_algebras():
    return [instantiate(name) for name in ALL_PRESETS] + \
        [parse_algebra((GOLDEN / f"{name}.alg").read_text())
         for name in ("broken", "wbad", "wl", "two", "heis")]


class TestStoredTerms:
    """A work count: each given table entry is split once, when the algebra
    is built; skew images and bindings are written as terms, and every
    reader takes the stored terms."""

    def test_construction_splits_each_given_coefficient_once(self, monkeypatch):
        for alg in _test_algebras():
            # Only the upper pairs are given, so the lower ones are skew images.
            given = {pair: alg.entry(*pair) for pair in alg.upper_pairs()}
            calls = _count_splits(monkeypatch)
            elements = _count_elements(monkeypatch)
            built = ConformalAlgebra(alg.name, alg.registry, alg.generators, given, alg.params)
            assert [(module, inside) for module, inside, _ in calls] == \
                [("algebra", True)] * len(calls)
            assert [id(p) for _, _, p in calls] == \
                [id(p) for elem in given.values() for _, p in elem.items()]
            assert elements == []
            monkeypatch.undo()
            assert built.full_table() == alg.full_table()
            assert built.virasoro_name == alg.virasoro_name

    @pytest.mark.parametrize("alg", _test_algebras(), ids=lambda alg: alg.name)
    def test_specialize_splits_and_joins_nothing(self, monkeypatch, alg):
        calls = _count_splits(monkeypatch)
        elements = _count_elements(monkeypatch)
        bound = alg.specialize({v.name: Fraction(-1, 2) for v in alg.params})
        assert (calls, elements) == ([], [])

    @pytest.mark.parametrize("alg", _test_algebras(), ids=lambda alg: alg.name)
    def test_readers_split_no_table_entry(self, monkeypatch, alg):
        bound = alg.specialize({v.name: Fraction(-1, 2) for v in alg.params})
        subs = []
        real_subs = Poly.subs
        monkeypatch.setattr(Poly, "subs", lambda p, *args: subs.append(p) or real_subs(p, *args))
        calls = _count_splits(monkeypatch)
        for target in (alg, bound):
            axioms = target.check_skew().passed and target.check_jacobi().passed
            graded = not annihilation.filtration_check(target)
            annihilation.expanded_sums(target, 2)
            if target.closed_ann_form:
                annihilation.compare_closed_form(target, 3)
        if axioms and graded:
            annihilation.truncated_quotient(bound, 4)
        assert calls == []
        assert subs == []

    def test_module_readers_split_only_actions(self, monkeypatch):
        alg = instantiate("tsv", {"a": 1, "b": 0})
        action = rank1_module(alg, "alpha", "beta")
        calls = _count_splits(monkeypatch)
        assert modules.check_module(alg, action).passed
        assert [(module, id(p)) for module, _, p in calls] == \
            [("modules", id(p)) for _, p in action.items()]
        calls.clear()
        # a table coefficient exists only in a LambdaElement joined from it
        elements = _count_elements(monkeypatch)
        assert modules.rank1_classify(alg, 2)
        table = {id(p) for elem in elements for _, p in elem.items()}
        assert calls and {module for module, _, _ in calls} == {"modules"}
        assert not any(inside or id(p) in table for _, inside, p in calls)


class TestParser:
    def test_line_numbers_in_errors(self):
        text = "algebra demo\ngen L offset=1\n[L,L] = (d + y) L\n"
        with pytest.raises(ParseError) as exc:
            parse_algebra(text)
        assert exc.value.line == 3

    def test_undeclared_generator(self):
        text = "algebra demo\ngen L offset=1\n[L,Q] = 0\n"
        with pytest.raises(ParseError):
            parse_algebra(text)

    def test_undeclared_parameter(self):
        text = "algebra demo\ngen L offset=1\n[L,L] = (d + a*x) L\n"
        with pytest.raises(ParseError):
            parse_algebra(text)

    def test_nonlinear_rhs_rejected(self):
        text = "algebra demo\ngen L offset=1\n[L,L] = L*L\n"
        with pytest.raises(ParseError):
            parse_algebra(text)

    def test_missing_pair_rejected(self):
        text = "algebra demo\ngen L offset=1\ngen W\n[L,L] = (d + 2*x) L\n"
        with pytest.raises(ParseError):
            parse_algebra(text)

    def test_round_trip_matches_preset(self):
        text = "algebra w params a b\ngen L offset=1\ngen W\n" \
               "[L,L] = (d + 2*x) L\n[L,W] = (d + a*x + b) W\n[W,W] = 0\n"
        parsed = parse_algebra(text)
        preset = instantiate("w")
        assert [g.name for g in parsed.generators] == [g.name for g in preset.generators]
        for a, b in preset.ordered_pairs():
            got = bracket(parsed, parsed.gen(a), parsed.gen(b)).render()
            assert got == bracket(preset, preset.gen(a), preset.gen(b)).render()

    @pytest.mark.parametrize("option", ["offset=\u0661", "shift=\u0661", "offset=1/0",
                                        "offset=", "shift=1_/2"])
    def test_generator_option_values_read_as_command_line_rationals(self, option):
        # Options follow the --param rule: ASCII Fraction syntax, nonzero
        # denominator; a non-ASCII digit is malformed, not the rational 1.
        text = f"algebra demo\ngen L {option}\n[L,L] = (d + 2*x) L\n"
        with pytest.raises(ParseError, match="malformed rational") as exc:
            parse_algebra(text)
        assert exc.value.line == 2

    def test_generator_options_in_fraction_syntax(self):
        text = "algebra demo\ngen L offset=1.0 shift=0\ngen Y offset=1/2 shift=0.5\n" \
               "[L,L] = (d + 2*x) L\n[L,Y] = 0\n[Y,Y] = 0\n"
        assert [(g.label_offset, g.filtration_shift) for g in parse_algebra(text).generators] \
            == [(Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))]

    def test_cancelling_generator_products_parse_as_zero(self):
        text = "algebra demo\ngen L offset=1\n[L,L] = L*L - L^2\n"
        assert parse_algebra(text).entry("L", "L").is_zero()


# Bracket values are drawn from this alphabet, either as well-formed
# expressions, which reach the bracket-value rule, or as token soup, which
# mostly exercises the grammar.  Exponents are single digits and a space
# separates two number tokens: long powers only cost time.
_FUZZ_ATOMS = ["L", "W", "d", "x", "y", "a", "q", "0", "1", "2", "1/2"]
_FUZZ_TOKENS = _FUZZ_ATOMS + ["+", "-", "*", "^", "(", ")", "/", " "]


def _combined(inner):
    return st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from(["+", "-", "*", " ", " / "]), inner),
        st.builds("({})^{}".format, inner, st.sampled_from("012")),
        st.builds("-{}".format, inner))


@st.composite
def _token_soup(draw):
    text = ""
    for token in draw(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14)):
        if text[-1:].isdigit() and token[0].isdigit():
            text += " "
        text += token
    return text


_BRACKET_VALUES = st.one_of(
    st.recursive(st.sampled_from(_FUZZ_ATOMS), _combined, max_leaves=6), _token_soup())


@settings(max_examples=300, deadline=None)
@given(_BRACKET_VALUES)
@example("L*W")
@example("L^2")
@example("L W")
def test_fuzzed_bracket_value_parses_or_names_its_line(value):
    text = ("algebra fuzz params a\ngen L offset=1\ngen W\n"
            f"[L,W] = {value}\n[L,L] = (d + 2*x) L\n[W,W] = 0\n")
    try:
        alg = parse_algebra(text)
    except ParseError as exc:
        assert exc.line == 4, str(exc)
    else:
        assert isinstance(alg, ConformalAlgebra)
