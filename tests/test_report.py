"""Tests for the dossier builder and its renderers."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (
    DefinitionError,
    instantiate,
    parse_poly,
    rank1_module,
    zero_module,
)
from confalg.algebra import LambdaElement, jth_product_of, locality_order_of
from confalg.annihilation import AnnBasis, AnnElement, render_sums
from confalg.poly import Poly
from confalg.report import (
    _latex_element,
    ann_symbol_to_latex,
    ann_to_latex,
    attach_tex,
    build_report,
    family_verdict,
    poly_to_latex,
    render_json,
    render_tex,
    render_text,
)
from test_algebra import bracket


@pytest.fixture
def vir():
    return instantiate("vir")


class TestLatex:
    def test_variable_names(self, vir):
        reg = vir.registry
        reg.param("alpha")
        reg.param("beta")
        reg.param("gamma_Y")
        cases = {
            "d + 2*x": r"\partial + 2 \lambda",
            "1/2*d + 3/2*x": r"\tfrac{1}{2} \partial + \tfrac{3}{2} \lambda",
            "-d^2 - 2*d*x": r"-\partial^{2} - 2 \partial \lambda",
            "x*alpha + d + beta": r"\lambda \alpha + \partial + \beta",
            "d - 1": r"\partial - 1",
            "gamma_Y": r"\gamma_{Y}",
            "0": "0",
        }
        for text, wanted in cases.items():
            assert poly_to_latex(parse_poly(reg, text)) == wanted

    def test_subscripted_symbols(self):
        assert ann_symbol_to_latex("L", Fraction(-1)) == "L_{-1}"
        assert ann_symbol_to_latex("Y", Fraction(1, 2)) == "Y_{1/2}"


class TestJoinStyles:
    """Table entries join their terms with " + " (so a negative constant
    shows as ``+ -3*W``); coefficient-algebra elements use signed joins."""

    def test_lambda_element_keeps_plus_join(self):
        w = instantiate("w")
        reg = w.registry
        e = LambdaElement(reg, {w.gen("W"): Poly.const(reg, -3),
                                w.gen("L"): Poly.const(reg, 2)})
        assert e.render() == "2*L + -3*W"
        assert _latex_element(e) == "2 L + -3 W"

    def test_lambda_element_polynomial_and_unit_terms(self):
        w = instantiate("w")
        reg = w.registry
        e = LambdaElement(reg, {w.gen("L"): parse_poly(reg, "-d - 2*x"),
                                w.gen("W"): Poly.const(reg, -1)})
        assert e.render() == "(-d - 2*x) L + -W"
        assert _latex_element(e) == r"\left(-\partial - 2 \lambda\right) L + -W"
        assert LambdaElement(reg).render() == "0"
        assert _latex_element(LambdaElement(reg)) == "0"

    def test_ann_element_signed_join(self):
        w = instantiate("w")
        reg = w.registry
        sums = [(AnnBasis(w.gen("L"), Fraction(0)), {(): 2}),
                (AnnBasis(w.gen("W"), Fraction(1)), {(): -3})]
        e = AnnElement(reg, {basis: terms[()] for basis, terms in sums})
        assert e.render() == render_sums(reg, sums) == "2*L_0 - 3*W_1"
        assert ann_to_latex(reg, sums) == "2 L_{0} - 3 W_{1}"

    def test_ann_element_polynomial_and_fractional_terms(self):
        w = instantiate("w")
        reg = w.registry
        a = reg.var("a").index
        sums = [(AnnBasis(w.gen("L"), Fraction(0)), {(): Fraction(-1, 2)}),
                (AnnBasis(w.gen("W"), Fraction(1)), {((a, 1),): 1, (): -1}),
                (AnnBasis(w.gen("W"), Fraction(2)), {(): -1})]
        e = AnnElement(reg, {AnnBasis(w.gen("L"), Fraction(0)): Fraction(-1, 2),
                             AnnBasis(w.gen("W"), Fraction(1)): parse_poly(reg, "a - 1"),
                             AnnBasis(w.gen("W"), Fraction(2)): -1})
        assert e.render() == render_sums(reg, sums) == "-1/2*L_0 + (a - 1)*W_1 - W_2"
        assert ann_to_latex(reg, sums) == (r"-\tfrac{1}{2} L_{0} + \left(a - 1\right) W_{1} - W_{2}")
        assert ann_to_latex(reg, []) == render_sums(reg, []) == AnnElement(reg).render() == "0"


class TestFamilyVerdicts:
    def test_zero_family(self, vir):
        assert family_verdict(zero_module(vir)) == "trivial (all actions zero)"

    def test_standard_family(self, vir):
        action = rank1_module(vir, "alpha", "beta")
        assert family_verdict(action) == "irreducible iff alpha != 0"

    def test_carrier_family(self):
        w10 = instantiate("w", {"a": 1, "b": 0})
        action = rank1_module(w10, "alpha", "beta", "gamma")
        assert family_verdict(action) == "irreducible iff alpha != 0 or gamma != 0"


class TestBuildReport:
    def test_sections_for_parameterless_algebra(self, vir):
        data = build_report(vir)
        assert sorted(data) == [
            "algebra", "annihilation", "axioms", "free_params", "generators",
            "jth_products", "locality", "modules", "params", "table", "truncation"]
        assert data["algebra"] == "vir"
        assert data["axioms"]["skew"] is True
        assert data["truncation"]["depth"] == 4
        assert data["truncation"]["derived_series"] == [4, 3, 1, 0]
        assert data["annihilation"]["closed_form"] == "pass"

    def test_parametric_algebra_skips_truncation(self):
        data = build_report(instantiate("w"))
        assert "truncation" not in data
        assert data["free_params"] == ["a", "b"]

    def test_module_section(self, vir):
        mods = build_report(vir)["modules"]
        assert [f["verdict"] for f in mods["families"]] == [
            "trivial (all actions zero)", "irreducible iff alpha != 0"]
        verdicts = {v["module"]: v for v in mods["verdicts"]}
        assert verdicts["M_0_2"]["status"] == "reducible"
        assert verdicts["M_1_2"]["status"] == "irreducible"
        assert verdicts["M_1_2"]["certificate"] == "bounded"

    def test_carrier_sample_when_available(self):
        mods = build_report(instantiate("w", {"a": 1, "b": 0}))["modules"]
        names = [v["module"] for v in mods["verdicts"]]
        assert "M_0_2_1" in names

    def test_depth_flag(self, vir):
        data = build_report(vir, depth=2)
        assert data["truncation"]["depth"] == 2
        assert data["truncation"]["dim"] == 2

    def test_only_the_sample_brackets_call_ann_bracket(self, monkeypatch):
        import confalg.annihilation as annihilation
        import confalg.report as report
        calls = []
        bracket = annihilation.ann_bracket

        def counting(alg, left, right):
            calls.append((str(left), str(right)))
            return bracket(alg, left, right)

        monkeypatch.setattr(report, "ann_bracket", counting)
        monkeypatch.setattr(annihilation, "ann_bracket", counting)
        data = build_report(instantiate("tsv", {"a": 0, "b": 0}))
        assert data["annihilation"]["closed_form"] == "pass"
        assert calls == [(s["left"], s["right"]) for s in data["annihilation"]["samples"]]
        assert len(calls) == 9

    @pytest.mark.parametrize("name", ["tsvc", "w"])
    def test_locality_and_products_are_read_off_the_table(self, name):
        """Each upper pair's locality order and j-th products come from its
        table entry and agree with those of the sesquilinear ``bracket``
        oracle."""
        alg = instantiate(name)
        pairs = alg.upper_pairs()
        brackets = [bracket(alg, alg.gen(a), alg.gen(b)) for a, b in pairs]
        orders = [locality_order_of(br) for br in brackets]
        products = [{"pair": [a, b], "j": j, "value": jth_product_of(br, j).render()}
                    for (a, b), br, order in zip(pairs, brackets, orders) for j in range(order)]
        data = build_report(alg)
        assert data["locality"] == [{"pair": [a, b], "order": order}
                                    for (a, b), order in zip(pairs, orders)]
        assert data["jth_products"] == products


# Strings mix the characters json escapes (quotes, backslashes, control
# characters), non-ASCII and lone surrogates, which only ASCII escaping keeps.
_JSON_STRINGS = st.text(st.one_of(
    st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ud800\udfff'),
    st.characters(exclude_categories=())))
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), _JSON_STRINGS,
                          st.integers(-10 ** 80, 10 ** 80))
_JSON_KEYS = st.one_of(_JSON_STRINGS, st.integers(-10 ** 30, 10 ** 30), st.booleans(), st.none())
_JSON_DOCUMENTS = st.recursive(_JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
    st.dictionaries(_JSON_KEYS, children, max_size=4)), max_leaves=25)


def _json_outcome(fn, value):
    """``fn(value)``, or the type and message of the TypeError it raises."""
    try:
        return fn(value)
    except TypeError as exc:
        return (type(exc), str(exc))


def _dumps(value):
    return json.dumps(value, indent=2) + "\n"


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(_JSON_DOCUMENTS)
    def test_matches_json_dumps(self, value):
        assert render_json(value) == _dumps(value)

    @pytest.mark.parametrize("value", [
        1.5, -0.0, 1e300, float("nan"), float("inf"), [2.5, {"x": -1e-7}],
        {1.5: "a", float("-inf"): [], 2: {}}, {"a": [], "b": {}, "c": ()}])
    def test_floats_keep_json_spelling(self, value):
        assert render_json(value) == _dumps(value)

    class _Name(str):
        pass

    class _Count(int):
        pass

    @pytest.mark.parametrize("value", [
        [True, None, 1, "a", [False, 2, "b"], {"c": 3}, -4, "", {}],
        {"t": True, "n": None, "i": 0, "s": "é\n", "l": [1, True, "x"],
         "d": {"f": False, "i": -7}, "e": []},
        [_Name("s"), _Count(5), {"k": _Name("v"), "j": _Count(-1)}, (True, _Count(0))],
        {"x": [[1, [None, "y"]], {"z": {"w": False}}], "y": 10 ** 30},
    ])
    def test_scalar_items_next_to_containers(self, value):
        """Items written in place (exact ``str`` and ``int``) next to nested
        containers and to ``bool``, ``None`` and subclass items, which go
        through the call: ``True`` never comes out as ``1``."""
        assert render_json(value) == _dumps(value)

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), {"a": [1, {2}]}, {"k": object()}, {(1, 2): 0}, {"a": {Fraction(1): 1}}])
    def test_other_types_raise_json_type_error(self, value):
        assert _json_outcome(render_json, value) == _json_outcome(_dumps, value)
        assert _json_outcome(render_json, value)[0] is TypeError

    @pytest.mark.parametrize("argv", [
        ["report", "tsv", "--param", "a=1", "b=0"],
        ["ann", "tsv", "--degree", "2"],
        ["truncate", "w", "--param", "a=2", "b=1", "--truncate", "4"],
        ["classify", "w", "--param-grid", "a=0,1", "--param", "b=0", "--degree", "2"]])
    def test_cli_documents_match_json_dumps(self, argv, capsys):
        from confalg.cli import main
        main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert out == _dumps(json.loads(out))


class TestRenderers:
    def test_text_round_trips_through_json(self, vir):
        data = build_report(vir)
        assert json.loads(render_json(data)) == data
        text = render_text(data)
        assert text.startswith("algebra vir\n")
        assert "axioms: skew pass (1 check), jacobi pass (1 check)" in text

    def test_tex_requires_attachment(self, vir):
        data = build_report(vir)
        with pytest.raises(DefinitionError):
            render_tex(data)
        attach_tex(vir, data)
        tex = render_tex(data)
        assert r"[L_\lambda L] &= \left(\partial + 2 \lambda\right) L \\" in tex
        assert r"L &\mapsto \lambda \alpha + \partial + \beta \\" in tex

    def test_text_is_deterministic(self, vir):
        assert render_text(build_report(vir)) == render_text(build_report(instantiate("vir")))
