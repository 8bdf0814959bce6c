"""Lambda-bracket tables, sesquilinear extension, and the axiom checks."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from confalg.algebra import ConformalAlgebra, Generator, LambdaElement, parse_algebra
from confalg.errors import BindingError, DefinitionError, ParseError
from confalg.poly import Poly, parse_poly
from confalg.presets import instantiate

ALL_PRESETS = ["vir", "w", "wb", "tsv", "tsvc"]
GOLDEN = Path(__file__).parent / "golden"


def elem(alg, text_by_gen):
    reg = alg.registry
    return LambdaElement(reg, {alg.gen(name): parse_poly(reg, text)
                               for name, text in text_by_gen.items()})


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
        got = alg._skew_image(elem)
        want = _substituted_skew_image(alg, elem)
        assert got == want and got.render() == want.render()
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
        ``Poly.__mul__`` or ``__rmul__``.  The preset builders' own table
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
        got = alg.bracket(alg.gen("L"), alg.gen("L"))
        assert got.render() == "(d + 2*x) L"

    def test_left_sesquilinearity_example(self):
        alg = instantiate("w")
        reg = alg.registry
        dL = elem(alg, {"L": "d"})
        got = alg.bracket(dL, alg.gen("W"))
        want = elem(alg, {"W": "-x*(d + a*x + b)"})
        assert got == want

    def test_zero_entry(self):
        alg = instantiate("w")
        assert alg.bracket(alg.gen("W"), alg.gen("W")).is_zero()

    def test_foreign_generator_rejected(self):
        alg = instantiate("vir")
        stranger = Generator("L", Fraction(1), Fraction(0))
        other = instantiate("w")
        with pytest.raises(DefinitionError):
            alg.bracket(other.gen("W"), alg.gen("L"))
        assert alg.bracket(stranger, alg.gen("L")).render() == "(d + 2*x) L"

    def test_x_dependent_input_rejected(self):
        alg = instantiate("vir")
        with pytest.raises(DefinitionError):
            alg.bracket(elem(alg, {"L": "x"}), alg.gen("L"))

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
        base = alg.bracket(u, v)
        lam = Poly.from_var(reg, x)
        dpl = Poly.from_var(reg, d) + lam
        assert alg.bracket(du, v) == base.map_coeffs(lambda p: -lam * p)
        assert alg.bracket(u, dv) == base.map_coeffs(lambda p: dpl * p)


class TestProducts:
    def test_w_products(self):
        alg = instantiate("w")
        assert alg.jth_product(alg.gen("L"), alg.gen("W"), 0) == elem(alg, {"W": "d + b"})
        assert alg.jth_product(alg.gen("L"), alg.gen("W"), 1) == elem(alg, {"W": "a"})
        assert alg.jth_product(alg.gen("L"), alg.gen("L"), 2).is_zero()

    def test_negative_index_rejected(self):
        alg = instantiate("vir")
        with pytest.raises(ValueError):
            alg.jth_product(alg.gen("L"), alg.gen("L"), -1)

    @pytest.mark.parametrize("name,pair,order", [
        ("vir", ("L", "L"), 2),
        ("w", ("W", "W"), 0),
        ("w", ("L", "W"), 2),
        ("tsvc", ("Y", "Y"), 2),
        ("tsvc", ("L", "M"), 1),
    ])
    def test_locality_orders(self, name, pair, order):
        alg = instantiate(name)
        assert alg.locality_order(alg.gen(pair[0]), alg.gen(pair[1])) == order

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_products_reassemble_bracket(self, name):
        alg = instantiate(name)
        reg = alg.registry
        lam = Poly.from_var(reg, reg.x)
        for a, b in alg.ordered_pairs():
            g, h = alg.gen(a), alg.gen(b)
            br = alg.bracket(g, h)
            total = LambdaElement(reg)
            fact = 1
            for j in range(alg.locality_order(g, h)):
                if j:
                    fact *= j
                term = alg.jth_product(g, h, j)
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
            got = parsed.bracket(parsed.gen(a), parsed.gen(b)).render()
            assert got == preset.bracket(preset.gen(a), preset.gen(b)).render()

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
