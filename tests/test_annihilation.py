"""Tests for the coefficient-algebra bracket and finite truncations."""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from confalg import (
    AnnBasis,
    AnnElement,
    BindingError,
    DefinitionError,
    FiniteLie,
    Generator,
    LabelError,
    LambdaElement,
    Poly,
    UnsupportedError,
    WorkbenchError,
    ann_bracket,
    build_report,
    compare_closed_form,
    filtration_check,
    instantiate,
    labels_through,
    parse_algebra,
    partial_action,
    truncated_quotient,
)
from confalg import annihilation
from confalg.annihilation import expanded_sums
from confalg.solve import integer_echelon

ALL_PRESETS = ["vir", "w", "wb", "tsv", "tsvc"]
PRESET_BINDINGS = [("vir", None), ("w", {"a": 2, "b": 1}), ("wb", {"b": Fraction(1, 2)}),
                   ("tsv", {"a": 0, "b": 0}), ("tsvc", {"c": 1})]


def basis(alg, name, label):
    return AnnBasis(alg.gen(name), Fraction(label))


def expanded_brackets(alg, max_label):
    """``expanded_sums`` with each bracket as an ``AnnElement``, built from
    the sums as the mismatch listing of ``compare_closed_form`` builds it."""
    reg = alg.registry
    for g, m, h, n, sums in expanded_sums(alg, max_label):
        yield g, m, h, n, annihilation._element(reg, sums)


def closed_form_bracket(alg, g, m, h, n):
    """[g_m, h_n] from the algebra's closed formulas at rational labels."""
    return annihilation._closed_bracket(
        alg, annihilation._closed_rules(alg)[(g.name, h.name)], m, n)


def _grouped_expansion(alg, gname, hname):
    """The table entry [g_x h] read by ``Poly.coeff_of``, first by x and
    then by d, as (j, k, e, c) for c x^j d^e k with c a parameter-only
    ``Poly``: a reading independent of ``split_terms``, for the oracles."""
    reg = alg.registry
    out = []
    for k, p in alg.entry(gname, hname).items():
        for j in range(p.degree(reg.x) + 1):
            pj = p.coeff_of(reg.x, j)
            for e in range(pj.degree(reg.d) + 1):
                c = pj.coeff_of(reg.d, e)
                if not c.is_zero():
                    out.append((j, k, e, c))
    return out


class TestLabels:
    def test_integer_generator_labels(self):
        w = instantiate("w")
        assert labels_through(w.gen("L"), 1) == [Fraction(-1), Fraction(0), Fraction(1)]
        assert labels_through(w.gen("W"), 2) == [Fraction(0), Fraction(1), Fraction(2)]

    def test_half_integer_generator_labels(self):
        tsv = instantiate("tsv")
        assert labels_through(tsv.gen("Y"), 2) == [
            Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]

    def test_label_below_offset_rejected(self):
        w = instantiate("w")
        with pytest.raises(LabelError):
            AnnBasis(w.gen("L"), Fraction(-2))
        with pytest.raises(LabelError):
            AnnBasis(w.gen("W"), Fraction(-1))

    def test_label_off_the_offset_lattice_rejected(self):
        tsv = instantiate("tsv")
        with pytest.raises(LabelError):
            AnnBasis(tsv.gen("Y"), Fraction(0))

    @pytest.mark.parametrize("value", [1.0, 0.5, True, False, "2", "1/2"])
    def test_label_must_be_an_int_or_a_fraction(self, value):
        # A float, bool or str is refused by name: True is not W_1 and "2"
        # is not W_2.
        w = instantiate("w")
        with pytest.raises(LabelError, match=re.escape(f"W label {value!r} is not")):
            AnnBasis(w.gen("W"), value)

    @pytest.mark.parametrize("value", [0.1, 2.5, True, "3", None])
    def test_label_bound_must_be_an_int_or_a_fraction(self, value):
        # Read by Fraction, 0.1 would bound the labels at 0, True at 1 and
        # "3" at 3; each is refused by name instead, also by an algebra with
        # no generators and by a closed form whose identities all hold.
        w = instantiate("w", {"a": 2, "b": 1})
        message = re.escape(f"label bound {value!r} is not an int or a Fraction")
        with pytest.raises(LabelError, match=message):
            labels_through(w.gen("L"), value)
        for alg in (w, parse_algebra("algebra empty\n")):
            with pytest.raises(LabelError, match=message):
                list(expanded_sums(alg, value))
        assert compare_closed_form(w, 3) == []
        with pytest.raises(LabelError, match=message):
            compare_closed_form(w, value)

    def test_labels_read_ints_and_fractions_exactly(self):
        tsv = instantiate("tsv")
        assert [str(AnnBasis(tsv.gen("L"), 2)), str(AnnBasis(tsv.gen("Y"), Fraction(-1, 2)))] \
            == ["L_2", "Y_-1/2"]


class TestElements:
    def test_render_orders_and_signs(self):
        tsv = instantiate("tsv")
        reg = tsv.registry
        e = AnnElement(reg, {basis(tsv, "Y", Fraction(3, 2)): Fraction(-1),
                             basis(tsv, "Y", Fraction(1, 2)): Fraction(1)})
        assert e.render() == "Y_1/2 - Y_3/2"

    def test_zero_render(self):
        w = instantiate("w")
        assert AnnElement(w.registry).render() == "0"
        assert AnnElement(w.registry).is_zero()

    def test_arithmetic(self):
        w = instantiate("w")
        a = AnnElement.of(w.registry, basis(w, "L", 0))
        b = AnnElement.of(w.registry, basis(w, "W", 1))
        assert (a + b - a).render() == "W_1"
        assert (a.scale(3) - a.scale(3)).is_zero()
        assert (-a).render() == "-L_0"

    def test_shared_element_core(self):
        w = instantiate("w")
        reg = w.registry
        a = AnnElement(reg, {basis(w, "W", 1): 2, basis(w, "L", 0): Fraction(1, 2)})
        same = AnnElement(reg, {basis(w, "L", 0): Fraction(1, 2), basis(w, "W", 1): 2})
        assert a == same and hash(a) == hash(same)
        assert [str(s) for s, _ in a.items()] == ["L_0", "W_1"]
        assert a.coeff(basis(w, "W", 1)) == 2
        assert a.coeff(basis(w, "W", 5)).is_zero()
        assert a.map_coeffs(lambda p: p * 2) == a.scale(2)
        assert repr(a) == "AnnElement(1/2*L_0 + 2*W_1)"
        lam = LambdaElement.of(reg, w.gen("L"))
        assert lam != AnnElement.of(reg, basis(w, "L", 0))
        with pytest.raises(TypeError):
            a + lam

    def test_scaling_keeps_parameter_check(self):
        w = instantiate("w")
        a = AnnElement.of(w.registry, basis(w, "L", 0))
        from confalg import Poly
        with pytest.raises(DefinitionError):
            a.scale(Poly.from_var(w.registry, w.registry.d))

    def test_zero_coefficients_dropped(self):
        w = instantiate("w")
        e = AnnElement(w.registry, {basis(w, "L", 0): Fraction(0)})
        assert e.is_zero()

    @pytest.mark.parametrize("value", [True, False, 0.5, 1.0, "1/2", "2"])
    def test_coefficient_must_be_an_int_or_a_fraction(self, value):
        # A bool, float or str is refused by name, not read as 1, 0 or by
        # Poly.const's untyped TypeError.
        w = instantiate("w")
        with pytest.raises(DefinitionError,
                           match=re.escape(f"coefficient of W_1 is {value!r}, not a Poly")):
            AnnElement(w.registry, {basis(w, "W", 1): value})

    def test_int_and_fraction_coefficients_are_read_exactly(self):
        w = instantiate("w")
        e = AnnElement(w.registry, {basis(w, "W", 1): 2, basis(w, "L", 0): Fraction(-1, 2)})
        assert e.render() == "-1/2*L_0 + 2*W_1"

    def test_non_parameter_coefficient_rejected(self):
        from confalg import Poly
        w = instantiate("w")
        with pytest.raises(DefinitionError):
            AnnElement(w.registry, {basis(w, "L", 0): Poly.from_var(w.registry, w.registry.d)})

    def test_foreign_symbol_rejected(self):
        w, tsv = instantiate("w"), instantiate("tsv")
        with pytest.raises(DefinitionError):
            ann_bracket(w, AnnBasis(tsv.gen("Y"), Fraction(1, 2)), basis(w, "W", 0))


class TestBracket:
    def test_frozen_w_entry(self):
        w = instantiate("w")
        out = ann_bracket(w, basis(w, "L", 1), basis(w, "W", 2))
        assert out.render() == "(2*a - 4)*W_3 + (b)*W_4"

    def test_frozen_tsv_pairing(self):
        tsv = instantiate("tsv")
        out = ann_bracket(tsv, basis(tsv, "Y", Fraction(1, 2)),
                          basis(tsv, "Y", Fraction(3, 2)))
        assert out.render() == "-M_2"

    def test_frozen_tsv_weight(self):
        tsv = instantiate("tsv")
        out = ann_bracket(tsv, basis(tsv, "L", 0), basis(tsv, "Y", Fraction(1, 2)))
        assert out.render() == "(a - 2)*Y_1/2 + (b)*Y_3/2"

    def test_frozen_central_extension_entry(self):
        tsvc = instantiate("tsvc")
        out = ann_bracket(tsvc, basis(tsvc, "Y", Fraction(1, 2)),
                          basis(tsvc, "Y", Fraction(3, 2)))
        assert out.render() == "-2*M_1 + (2*c)*M_2"

    def test_translation_action(self):
        w = instantiate("w")
        assert partial_action(w, basis(w, "L", 0)).render() == "-L_-1"
        assert partial_action(w, basis(w, "L", -1)).is_zero()
        assert partial_action(w, basis(w, "W", 0)).is_zero()
        tsv = instantiate("tsv")
        assert partial_action(tsv, basis(tsv, "Y", Fraction(1, 2))).render() == "-Y_-1/2"

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_antisymmetry(self, preset):
        alg = instantiate(preset)
        rng = random.Random(20260814)
        symbols = [AnnBasis(g, m) for g in alg.generators
                   for m in labels_through(g, 4)]
        for _ in range(50):
            a, b = rng.choice(symbols), rng.choice(symbols)
            lhs = ann_bracket(alg, a, b)
            rhs = ann_bracket(alg, b, a)
            assert (lhs + rhs).is_zero()

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_jacobi(self, preset):
        alg = instantiate(preset)
        rng = random.Random(7)
        symbols = [AnnBasis(g, m) for g in alg.generators
                   for m in labels_through(g, 3)]
        for _ in range(20):
            a, b, c = (rng.choice(symbols) for _ in range(3))
            lhs = ann_bracket(alg, a, ann_bracket(alg, b, c))
            rhs = (ann_bracket(alg, ann_bracket(alg, a, b), c)
                   + ann_bracket(alg, b, ann_bracket(alg, a, c)))
            assert (lhs - rhs).is_zero()

    def test_bilinearity(self):
        w = instantiate("w")
        a = AnnElement.of(w.registry, basis(w, "L", 1)).scale(2)
        b = AnnElement.of(w.registry, basis(w, "L", 0))
        c = AnnElement.of(w.registry, basis(w, "W", 2))
        lhs = ann_bracket(w, a + b, c)
        rhs = ann_bracket(w, a, c) + ann_bracket(w, b, c)
        assert (lhs - rhs).is_zero()

    def test_translation_is_surjective_on_positive_part(self):
        for preset in ALL_PRESETS:
            alg = instantiate(preset)
            for g in alg.generators:
                for m in labels_through(g, 6):
                    a = AnnBasis(g, m)
                    if a.internal == 0:
                        continue
                    image = partial_action(alg, a)
                    assert image.coeff(AnnBasis(g, m - 1)) == Fraction(-a.internal)


# Parameter points of the benchmark workloads: the acceptance grids first,
# then off-grid rationals.
_A_VALUES = ("0", "1/2", "1", "3/2", "2", "-1", "1/3", "5/2")
_B_VALUES = ("0", "1", "-1")
_LINE_VALUES = ("0", "1/2", "1", "3/2", "2", "-1", "1/3", "-1/2", "3", "5/2",
                "3/4", "-2", "2/3", "4", "-3/2", "1/4", "5", "-3", "7/2", "-1/3")
GRID_POINTS = ([("vir", None)]
               + [(preset, {"a": Fraction(a), "b": Fraction(b)})
                  for preset in ("w", "tsv") for b in _B_VALUES for a in _A_VALUES]
               + [("wb", {"b": Fraction(v)}) for v in _LINE_VALUES]
               + [("tsvc", {"c": Fraction(v)}) for v in _LINE_VALUES])


def _outcome(fn):
    """``fn()``, or the type and message of the WorkbenchError it raises."""
    try:
        return fn()
    except WorkbenchError as exc:
        return (type(exc).__name__, str(exc))


def _bracket_rows(alg, max_label):
    """``(g, m, h, n, [g_m, h_n])`` for every ordered basis pair with labels
    up to ``max_label``, one ``ann_bracket`` call each."""
    for g in alg.generators:
        for h in alg.generators:
            for m in labels_through(g, max_label):
                for n in labels_through(h, max_label):
                    yield g, m, h, n, ann_bracket(alg, AnnBasis(g, m), AnnBasis(h, n))


def _reference_rows(alg, rows):
    """The per-label comparison of expanded ``rows`` with the closed
    formulas, as ``(g, h, m, n, outcome)``.  The outcome is None on
    agreement, the mismatch string, or the error of the closed form."""
    for g, m, h, n, got in rows:
        want = _outcome(lambda: closed_form_bracket(alg, g, m, h, n))
        if isinstance(want, tuple):
            yield g, h, m, n, want
        elif got != want:
            yield g, h, m, n, (f"[{g.name}_{m}, {h.name}_{n}]: expansion {got.render()} "
                               f"!= closed form {want.render()}")
        else:
            yield g, h, m, n, None


def _reference_by_bound(alg, top, expand=_bracket_rows):
    """The per-label comparison's result at every label bound 0..top: the
    mismatch list, or the first error met in row order.  A pair that
    disagrees at some label up to ``top`` but at none up to the bound
    contributes one line naming the pair and the bound."""
    rows = list(_reference_rows(alg, expand(alg, top)))
    failing = {(g, h) for g, h, _, _, row in rows if row is not None}
    out = {}
    for bound in range(top + 1):
        result = []
        for (g, h), pair_rows in itertools.groupby(rows, key=lambda row: row[:2]):
            found = [row for _, _, m, n, row in pair_rows
                     if m <= bound and n <= bound and row is not None]
            error = next((row for row in found if isinstance(row, tuple)), None)
            if error is not None:
                result = error
                break
            if (g, h) in failing and not found:
                found = [f"[{g.name}_x {h.name}]: expansion != closed form "
                         f"at a label above {bound}"]
            result += found
        out[bound] = result
    return out


def _bumped_tables(alg):
    """Copies of ``alg`` with one table entry bumped by a monomial times a
    generator, as acceptance criterion 1 mutates them."""
    reg = alg.registry
    for a, b in alg.ordered_pairs():
        entry = alg.entry(a, b)
        for g in alg.generators:
            monos = sorted({()} | {m for m, _ in entry.coeff(g).terms()})
            for mono in monos:
                bump = Poly.one(reg)
                for index, exponent in mono:
                    bump = bump * Poly.from_var(reg, reg.all_vars()[index]) ** exponent
                yield alg.with_entry(a, b, entry + LambdaElement(reg, {g: bump}))


def _w_with_x_squared():
    """w at (a, b) = (2, 1) with [L_x W] = (d + 2x + 1 + x^2) W, where the
    closed form has (d + 2x + 1) W."""
    alg = instantiate("w", {"a": 2, "b": 1})
    reg = alg.registry
    d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
    return alg.with_entry("L", "W", LambdaElement(reg, {alg.gen("W"): d + 2 * x + 1 + x ** 2}))


class TestClosedForms:
    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_expansion_matches_closed_form(self, preset):
        assert compare_closed_form(instantiate(preset), 4) == []

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_identity_matches_per_label_on_formal_presets(self, preset):
        alg = instantiate(preset)
        reference = _reference_by_bound(alg, 10)
        for bound in range(11):
            assert compare_closed_form(alg, bound) == reference[bound] == []

    @pytest.mark.parametrize("preset,bindings", GRID_POINTS)
    def test_identity_matches_per_label_at_grid_points(self, preset, bindings):
        # expanded_brackets is pinned to ann_bracket below; it keeps the 88
        # points cheap.
        alg = instantiate(preset, bindings)
        reference = _reference_by_bound(alg, 10, expanded_brackets)
        for bound in range(11):
            assert compare_closed_form(alg, bound) == reference[bound] == []

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_identity_matches_per_label_on_mutated_tables(self, preset):
        failing = 0
        for alg in _bumped_tables(instantiate(preset)):
            reference = _reference_by_bound(alg, 2)
            for bound in range(3):
                assert _outcome(lambda: compare_closed_form(alg, bound)) == reference[bound]
            failing += reference[2] != []
        assert failing > 0

    def test_mismatches_of_several_pairs_keep_row_order(self):
        # Two failing pairs, (Y, M) before (M, L), and labels up to 10, where
        # row order differs from string order.
        alg = instantiate("tsv")
        reg = alg.registry
        for a, b, g in (("Y", "M", "M"), ("M", "L", "L")):
            bump = LambdaElement(reg, {alg.gen(g): Poly.one(reg)})
            alg = alg.with_entry(a, b, alg.entry(a, b) + bump)
        reference = _reference_by_bound(alg, 10)
        assert reference[10] != sorted(reference[10])
        for bound in range(11):
            assert compare_closed_form(alg, bound) == reference[bound]

    def test_a_failing_identity_is_reported_at_every_bound(self):
        # The x^2 term of [L_x W] needs an L internal index of 2, which no
        # label up to 0 reaches; the identity still fails, so the pair is
        # named at bound 0 and its first label mismatch is listed at 1.
        bad = _w_with_x_squared()
        assert compare_closed_form(bad, 0) == [
            "[L_x W]: expansion != closed form at a label above 0"]
        assert [line.split(":")[0] for line in compare_closed_form(bad, 1)] == [
            "[L_1, W_0]", "[L_1, W_1]"]
        reference = _reference_by_bound(bad, 3)
        for bound in range(4):
            assert compare_closed_form(bad, bound) == reference[bound] != []

    def test_closed_form_on_an_invalid_label_raises_as_per_label(self):
        # A closed-form term one label below [L_m, W_n] lands on W_-1 at
        # m = -1, n = 0, where the expansion has no term.
        alg = instantiate("w", {"a": 2, "b": 1})
        rules = alg.closed_ann_form

        def bumped(**values):
            out = dict(rules(**values))
            lw = out[("L", "W")]
            out[("L", "W")] = lambda m, n: {**lw(m, n), ("W", -1): 1}
            return out

        alg.closed_ann_form = bumped
        reference = _reference_by_bound(alg, 4)
        assert reference[0][0] == "LabelError"
        for bound in range(5):
            assert _outcome(lambda: compare_closed_form(alg, bound)) == reference[bound]

    @pytest.mark.parametrize("coeff", [0.5, "1", None])
    def test_a_rule_coefficient_of_another_type_is_refused(self, coeff):
        alg = instantiate("w", {"a": 2, "b": 1})
        rules = alg.closed_ann_form

        def bumped(**values):
            out = dict(rules(**values))
            out[("L", "W")] = lambda m, n: {("W", 0): coeff}
            return out

        alg.closed_ann_form = bumped
        with pytest.raises(DefinitionError, match="closed-form coefficient"):
            compare_closed_form(alg, 2)

    def test_report_lists_the_first_mismatches(self):
        alg = instantiate("w")
        reg = alg.registry
        bump = LambdaElement(reg, {alg.gen("W"): Poly.from_var(reg, reg.x)})
        mutated = alg.with_entry("L", "W", alg.entry("L", "W") + bump)
        reference = _reference_by_bound(mutated, 6)[6]
        assert len(reference) > 5
        ann = build_report(mutated)["annihilation"]
        assert ann["closed_form"] == "fail"
        assert ann["mismatches"] == reference[:5]

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_expanded_brackets_match_ann_bracket(self, preset):
        alg = instantiate(preset)
        assert list(expanded_brackets(alg, 4)) == list(_bracket_rows(alg, 4))

    @pytest.mark.parametrize("preset,bindings", [(p, None) for p in ALL_PRESETS]
                             + PRESET_BINDINGS)
    def test_one_expansion_per_pair_and_no_bracket_calls(self, preset, bindings, monkeypatch):
        import confalg.annihilation as annihilation
        expansions = []
        expand = annihilation._pair_terms

        def counting_expansion(alg, gname, hname):
            expansions.append((gname, hname))
            return expand(alg, gname, hname)

        def no_bracket(*args):
            raise AssertionError("ann_bracket or a per-label comparison called")

        monkeypatch.setattr(annihilation, "_pair_terms", counting_expansion)
        monkeypatch.setattr(annihilation, "ann_bracket", no_bracket)
        monkeypatch.setattr(annihilation, "_closed_bracket", no_bracket)
        alg = instantiate(preset, bindings)
        assert compare_closed_form(alg, 6) == []
        assert expansions == alg.ordered_pairs()
        expansions.clear()
        rows = list(expanded_brackets(alg, 6))
        assert expansions == alg.ordered_pairs()
        assert len(rows) == sum(len(labels_through(g, 6)) * len(labels_through(h, 6))
                                for g in alg.generators for h in alg.generators)

    def test_check_registers_no_variable(self):
        alg = instantiate("tsv", {"a": 1, "b": 0})
        size = len(alg.registry)
        assert compare_closed_form(alg, 6) == []
        assert len(alg.registry) == size
        assert compare_closed_form(alg, 6) == []
        assert len(alg.registry) == size
        fresh = instantiate("tsv", {"a": 1, "b": 0})
        assert json.dumps(build_report(alg)) == json.dumps(build_report(fresh))

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_degree_filtration(self, preset):
        assert filtration_check(instantiate(preset)) == []

    def test_missing_closed_form_reported(self):
        alg = parse_algebra("algebra bare\ngen L offset=1\n[L,L] = (d + 2*x) L\n")
        with pytest.raises(UnsupportedError):
            compare_closed_form(alg, 2)


GOLDEN = Path(__file__).resolve().parent / "golden"
# [L_x W] = (d + x^8) W: the x^8 term drops the degree by 7, but its first
# nonzero coefficient sits at L label 7, past the old label bound of 6.
X8 = "algebra x8\ngen L offset=1\ngen W\n[L,L] = (d + 2*x) L\n[L,W] = (d + x^8) W\n[W,W] = 0\n"
_VIOLATION = re.compile(r"\[(\w+)_x (\w+)\] term x\^(\d+) d\^(\d+) (\w+): drop (-[\d/]+)\Z")


def _poly_rules(alg):
    """The closed rules with unbound parameters as ``Poly`` variables, as
    ``compare_closed_form`` built them before the rules ran on label dicts."""
    values = {v.name: Poly.from_var(alg.registry, v) for v in alg.params}
    values.update(alg.param_values)
    return alg.closed_ann_form(**values)


def _poly_identity_holds(alg, g, h, expansion, rule):
    """One pair's closed-form identity decided with ``Poly`` labels y and z
    and ``Poly`` falling factorials: the oracle of ``_identity_holds``."""
    reg = alg.registry
    m, n = Poly.from_var(reg, reg.y), Poly.from_var(reg, reg.z)
    left = m + g.label_offset
    total = left + n + h.label_offset
    diff = {key: -c for key, c in rule(m, n).items()}
    factors = {}
    for j, (kname, rest), e, c in expansion:
        if (j, e) not in factors:
            factors[j, e] = annihilation._falling(left, j) * annihilation._falling(total - j, e) \
                * (-1) ** e
        key = (kname, g.label_offset + h.label_offset - j - e - alg.gen(kname).label_offset)
        term = factors[j, e] * Poly(reg, {rest: Fraction(c)}, _normalized=True)
        diff[key] = diff[key] + term if key in diff else term
    return not any(diff.values())


def _identity_verdicts(alg):
    """Per ordered pair, the identity's verdict and the oracle's."""
    rules, poly_rules = annihilation._closed_rules(alg), _poly_rules(alg)
    out = []
    for gname, hname in alg.ordered_pairs():
        g, h = alg.gen(gname), alg.gen(hname)
        expansion = annihilation._pair_terms(alg, gname, hname)
        out.append((annihilation._identity_holds(alg, g, h, expansion, rules[(gname, hname)]),
                    _poly_identity_holds(alg, g, h, expansion, poly_rules[(gname, hname)])))
    return out


# Changes to one rule coefficient, given the labels m, n and the value p of
# the algebra's first parameter (1 when it has none).  The last is zero, and
# the one before vanishes at p = 1 only, so it splits parameter monomials.
_RULE_DELTAS = (lambda m, n, p: 1, lambda m, n, p: m, lambda m, n, p: m * n - n / 2,
                lambda m, n, p: p, lambda m, n, p: p * m + Fraction(1, 2),
                lambda m, n, p: (p - 1) * m, lambda m, n, p: (m + 1) * n - m * n - n)


def _perturbed_rules(alg):
    """Copies of ``alg`` whose closed formula changes one coefficient of one
    pair's rule by each of ``_RULE_DELTAS``, or adds one target."""
    reg = alg.registry
    labels = Poly.from_var(reg, reg.y), Poly.from_var(reg, reg.z)
    form = alg.closed_ann_form
    for pair, rule in _poly_rules(alg).items():
        for key in sorted(rule(*labels)) + [(pair[1], 2)]:
            for delta in _RULE_DELTAS:
                def perturbed(pair=pair, key=key, delta=delta, **values):
                    out = dict(form(**values))
                    inner = out[pair]
                    p = next(iter(values.values()), 1)

                    def changed(m, n):
                        terms = inner(m, n)
                        return {**terms, key: terms.get(key, 0) + delta(m, n, p)}
                    out[pair] = changed
                    return out
                copy = alg.with_entry(*pair, alg.entry(*pair))
                copy.closed_ann_form = perturbed
                yield copy


class TestIdentityOracle:
    @pytest.mark.parametrize("preset,bindings", [(p, None) for p in ALL_PRESETS] + GRID_POINTS)
    def test_presets_agree_with_the_polynomial_identity(self, preset, bindings):
        verdicts = _identity_verdicts(instantiate(preset, bindings))
        assert verdicts == [(True, True)] * len(verdicts)

    @pytest.mark.parametrize("preset,bindings", [(p, None) for p in ALL_PRESETS]
                             + PRESET_BINDINGS)
    def test_bumped_tables_agree_with_the_polynomial_identity(self, preset, bindings):
        failing = 0
        for alg in _bumped_tables(instantiate(preset, bindings)):
            verdicts = _identity_verdicts(alg)
            assert all(new == old for new, old in verdicts)
            failing += sum(not new for new, _ in verdicts)
        assert failing > 0

    @pytest.mark.parametrize("preset,bindings", [(p, None) for p in ALL_PRESETS]
                             + PRESET_BINDINGS)
    def test_perturbed_rules_agree_with_the_polynomial_identity(self, preset, bindings):
        outcomes = set()
        for alg in _perturbed_rules(instantiate(preset, bindings)):
            verdicts = _identity_verdicts(alg)
            assert all(new == old for new, old in verdicts)
            outcomes.add(all(new for new, _ in verdicts))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("preset,bindings", [(p, None) for p in ALL_PRESETS]
                             + PRESET_BINDINGS)
    def test_identity_makes_no_poly_arithmetic(self, preset, bindings, monkeypatch):
        """A work count: ``compare_closed_form`` decides every preset pair by
        its identity with no ``Poly`` product, sum or power."""
        alg = instantiate(preset, bindings)
        calls = []
        holds = annihilation._identity_holds

        def counting(*args):
            calls.append(args[1:3])
            return holds(*args)

        def refuse(*args):
            raise AssertionError("Poly arithmetic in compare_closed_form")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__neg__", "__pow__"):
            monkeypatch.setattr(Poly, name, refuse)
        monkeypatch.setattr(annihilation, "_identity_holds", counting)
        assert compare_closed_form(alg, 6) == []
        assert [(g.name, h.name) for g, h in calls] == alg.ordered_pairs()

    def test_mismatch_listing_builds_the_rules_once(self):
        # A perturbed [L_m, Y_n] rule disagrees at all 12 * 11 label pairs up
        # to 10; the listing reads one rule table, not one per label pair.
        alg = instantiate("tsv")
        form = alg.closed_ann_form
        builds = []

        def perturbed(**values):
            builds.append(values)
            out = dict(form(**values))
            inner = out[("L", "Y")]
            out[("L", "Y")] = lambda m, n: {**inner(m, n), ("Y", 1): inner(m, n)[("Y", 1)] + 1}
            return out

        alg.closed_ann_form = perturbed
        reference = _reference_by_bound(alg, 10)[10]
        builds.clear()
        mismatches = compare_closed_form(alg, 10)
        assert len(builds) == 1
        assert mismatches == reference
        assert len(mismatches) == 132
        assert all(line.startswith("[L_") and ", Y_" in line for line in mismatches)


def _filtration_by_labels(alg, max_label):
    """The label walk that ``filtration_check`` replaced: every term of
    [g_m, h_n] and of [d, g_m] with labels up to ``max_label`` is compared
    with the degrees of the arguments.  Returns the violations as
    ``(g, h, target, degree - deg(g_m) - deg(h_n))``, with g = "d" for the
    action of d."""
    violations = set()
    for g, m, h, n, out in expanded_brackets(alg, max_label):
        floor = AnnBasis(g, m).degree + AnnBasis(h, n).degree
        for term, _ in out.items():
            if term.degree < floor:
                violations.add((g.name, h.name, term.gen.name, term.degree - floor))
    for g in alg.generators:
        for m in labels_through(g, max_label):
            a = AnnBasis(g, m)
            for term, _ in partial_action(alg, a).items():
                if term.degree != a.degree - 1:
                    violations.add(("d", g.name, term.gen.name, term.degree - a.degree + 1))
    return violations


def _by_term(alg):
    """``filtration_check``'s violations in the label walk's form."""
    return {(g, h, k, Fraction(drop))
            for g, h, _, _, k, drop in (_VIOLATION.match(v).groups()
                                        for v in filtration_check(alg))}


def _label_bound(alg):
    """A label bound at which the label walk meets every expansion term.

    The terms of [g_x h] with one target and one s = j + e contribute a
    polynomial of degree <= s in each internal index, nonzero as a
    polynomial, so it cannot vanish on all of {0, ..., s}^2.  Label offsets
    are >= 0, so labels up to the largest s reach those internal indices."""
    return max((j + e for g, h in alg.ordered_pairs()
                for j, _, e, _ in _grouped_expansion(alg, g, h)), default=0)


class TestFiltration:
    @pytest.mark.parametrize("preset,bindings", [(p, None) for p in ALL_PRESETS] + GRID_POINTS)
    def test_presets_agree_with_the_label_walk(self, preset, bindings):
        alg = instantiate(preset, bindings)
        assert _by_term(alg) == _filtration_by_labels(alg, _label_bound(alg)) == set()

    @pytest.mark.parametrize("name", ["wl.alg", "heis.alg"])
    def test_algebra_files_agree_with_the_label_walk(self, name):
        alg = parse_algebra((GOLDEN / name).read_text())
        assert _by_term(alg) == _filtration_by_labels(alg, _label_bound(alg))

    def test_w_to_l_bracket_drops_the_degree(self):
        # [W_x W] = (d + 2x) L, with W at offset 0 and L at offset 1.
        alg = parse_algebra((GOLDEN / "wl.alg").read_text())
        assert filtration_check(alg) == ["[W_x W] term x^0 d^1 L: drop -2",
                                         "[W_x W] term x^1 d^0 L: drop -2"]

    def test_high_power_of_x_is_found_at_every_label(self):
        alg = parse_algebra(X8)
        assert filtration_check(alg) == (
            ["[L_x W] term x^8 d^0 W: drop -7"]
            + [f"[W_x L] term x^{j} d^{8 - j} W: drop -7" for j in range(9)])
        assert _label_bound(alg) == 8
        assert _filtration_by_labels(alg, 6) == set()
        assert _by_term(alg) == _filtration_by_labels(alg, 8) == {("L", "W", "W", -7),
                                                                  ("W", "L", "W", -7)}

    def test_parameter_monomials_of_one_term_give_one_violation(self):
        # The d^1 coefficient of [W_x W] holds two parameter monomials.
        alg = parse_algebra("algebra wlab params a b\ngen L offset=1\ngen W\n"
                            "[L,L] = (d + 2*x) L\n[L,W] = (d + 2*x) W\n[W,W] = (a + b)*d L\n")
        assert filtration_check(alg) == ["[W_x W] term x^0 d^1 L: drop -2"]

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_one_expansion_per_pair_and_no_labels(self, preset, monkeypatch):
        import confalg.annihilation as annihilation
        expansions = []
        expand = annihilation._pair_terms

        def counting_expansion(alg, gname, hname):
            expansions.append((gname, hname))
            return expand(alg, gname, hname)

        def no_labels(*args):
            raise AssertionError("filtration_check walked labels")

        monkeypatch.setattr(annihilation, "_pair_terms", counting_expansion)
        for name in ("labels_through", "_pair_sums", "_coefficient_terms",
                     "partial_action"):
            monkeypatch.setattr(annihilation, name, no_labels)
        alg = instantiate(preset)
        assert filtration_check(alg) == []
        assert expansions == alg.ordered_pairs()

    def test_takes_no_label_bound(self):
        with pytest.raises(TypeError):
            filtration_check(instantiate("vir"), 6)


def _polynomial_coefficient_terms(expansion, m, n):
    """[a_(m), b_(n)] as ``{(target generator, internal index): Poly}``,
    with the coefficient rule applied to whole ``Poly`` coefficients, the
    way ``ann_bracket`` and ``expanded_brackets`` computed it before they
    split the coefficients into scalar terms."""
    out = {}
    for j, k, e, c in expansion:
        t = m + n - j
        if j > m or e > t:
            continue
        term = c * (math.comb(m, j) * math.perm(t, e) * (-1) ** e * math.factorial(j))
        key = (k, t - e)
        out[key] = out[key] + term if key in out else term
    return out


def _polynomial_rows(alg, max_label):
    """``expanded_brackets``' rows from ``_polynomial_coefficient_terms``:
    the oracle of the scalar expansion."""
    reg = alg.registry
    for g in alg.generators:
        for h in alg.generators:
            expansion = _grouped_expansion(alg, g.name, h.name)
            for m in labels_through(g, max_label):
                for n in labels_through(h, max_label):
                    terms = _polynomial_coefficient_terms(
                        expansion, int(m + g.label_offset), int(n + h.label_offset))
                    yield g, m, h, n, AnnElement(reg, {AnnBasis(k, t - k.label_offset): c
                                                       for (k, t), c in terms.items()})


_HASH_SEED_COMMANDS = [["ann", "tsv", "--degree", "4"], ["report", "w", "--param", "a=1", "b=0"]]


class TestScalarExpansion:
    def _assert_matches_polynomial_rule(self, alg):
        oracle = list(_polynomial_rows(alg, 6))
        rows = list(expanded_brackets(alg, 6))
        assert rows == oracle
        assert [v.render() for *_, v in rows] == [v.render() for *_, v in oracle]
        assert all(type(c) is Fraction for *_, v in rows for _, p in v.items() for _, c in p.terms())
        assert [(g, m, h, n, ann_bracket(alg, AnnBasis(g, m), AnnBasis(h, n)))
                for g, m, h, n, _ in oracle] == oracle

    @pytest.mark.parametrize("preset,bindings", [(p, None) for p in ALL_PRESETS]
                             + PRESET_BINDINGS)
    def test_presets_match_the_polynomial_rule(self, preset, bindings):
        self._assert_matches_polynomial_rule(instantiate(preset, bindings))

    @pytest.mark.parametrize("name", ["two.alg", "heis.alg", "wl.alg"])
    def test_algebra_files_match_the_polynomial_rule(self, name):
        self._assert_matches_polynomial_rule(parse_algebra((GOLDEN / name).read_text()))

    def test_combinations_match_the_polynomial_rule(self):
        # ann_bracket of sums with parameter coefficients is the bilinear
        # extension of the oracle's basis brackets.
        alg = instantiate("w")
        reg = alg.registry
        a_param = Poly.from_var(reg, reg.var("a"))
        left = AnnElement(reg, {basis(alg, "L", 1): a_param, basis(alg, "W", 2): Fraction(1, 3)})
        right = AnnElement(reg, {basis(alg, "L", 0): 2, basis(alg, "W", 1): a_param + 1})
        table = {(g.name, m, h.name, n): v for g, m, h, n, v in _polynomial_rows(alg, 2)}
        want = AnnElement(reg)
        for x, cx in left.items():
            for y, cy in right.items():
                want = want + table[(x.gen.name, x.label, y.gen.name, y.label)].scale(cx * cy)
        assert ann_bracket(alg, left, right) == want

    def test_expansion_adds_no_polynomials(self, monkeypatch):
        """A work count: ``expanded_brackets`` builds each coefficient from
        scalar sums, with no ``Poly`` product or sum per label pair."""
        alg = instantiate("tsv")

        def refuse(*args):
            raise AssertionError("Poly arithmetic in expanded_brackets")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(Poly, name, refuse)
        rows = list(expanded_brackets(alg, 6))
        assert any(not v.is_zero() for *_, v in rows)

    @pytest.mark.parametrize("preset,bindings", [(p, None) for p in ALL_PRESETS]
                             + PRESET_BINDINGS)
    def test_basis_brackets_multiply_no_polynomials(self, preset, bindings, monkeypatch):
        """A work count: a basis element's coefficient is 1, so a bracket
        of two of them makes no ``Poly`` product; a coefficient other than
        1 is still multiplied by."""
        alg = instantiate(preset, bindings)
        symbols = [AnnBasis(g, m) for g in alg.generators for m in labels_through(g, 3)]
        want = [ann_bracket(alg, a, b) for a in symbols for b in symbols]
        calls = []
        real = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: calls.append(q) or real(p, q))
        assert [ann_bracket(alg, a, b) for a in symbols for b in symbols] == want
        assert calls == []
        scaled = AnnElement(alg.registry, {symbols[-1]: 3})
        assert ann_bracket(alg, symbols[0], scaled) == want[len(symbols) - 1].scale(3)
        assert calls

    def test_expansion_keys_hash_no_generator(self, monkeypatch):
        """A work count: the expansion keys its sums by generator name, so
        ``expanded_sums`` and ``ann_bracket`` hash no ``Generator``."""
        alg = instantiate("tsv")
        calls = []
        real = Generator.__hash__
        monkeypatch.setattr(Generator, "__hash__", lambda g: calls.append(g) or real(g))
        assert sum(len(sums) for *_, sums in expanded_sums(alg, 4))
        assert not ann_bracket(alg, basis(alg, "L", 1), basis(alg, "Y", Fraction(1, 2))).is_zero()
        assert calls == []


class TestTableReads:
    def test_no_reader_reads_an_entry_by_coeff_of(self, monkeypatch):
        """A work count: every reader of a table entry takes its terms from
        ``split_terms``, and none calls ``Poly.coeff_of``."""
        formal, bound = instantiate("tsv"), instantiate("tsv", {"a": 1, "b": 0})
        bad = _w_with_x_squared()

        def refuse(*args):
            raise AssertionError("Poly.coeff_of called")

        monkeypatch.setattr(Poly, "coeff_of", refuse)
        for alg in (formal, bound):
            assert any(not v.is_zero() for *_, v in expanded_brackets(alg, 3))
            assert not ann_bracket(alg, basis(alg, "L", 1), basis(alg, "Y", Fraction(1, 2))).is_zero()
            assert compare_closed_form(alg, 3) == []
            assert filtration_check(alg) == []
        assert compare_closed_form(bad, 1) != []
        assert truncated_quotient(bound, 6).dim == 18


class TestHashes:
    def test_equal_generators_hash_equally(self):
        assert Generator("L", 1) == Generator("L", Fraction(1))
        assert hash(Generator("L", 1)) == hash(Generator("L", Fraction(1)))
        assert Generator("L", 1) != Generator("L", 0)

    def test_equal_basis_symbols_hash_equally(self):
        g = Generator("W")
        assert AnnBasis(g, 2) == AnnBasis(g, Fraction(4, 2))
        assert hash(AnnBasis(g, 2)) == hash(AnnBasis(g, Fraction(4, 2)))
        half = Generator("Y", Fraction(1, 2))
        assert AnnBasis(half, Fraction(1, 2)) != AnnBasis(half, Fraction(3, 2))
        assert AnnBasis(Generator("W", 1), 2) != AnnBasis(g, 2)

    @pytest.mark.parametrize("argv", _HASH_SEED_COMMANDS, ids=lambda argv: argv[0])
    def test_output_is_independent_of_the_hash_seed(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = "import sys\nfrom confalg.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        outputs = set()
        for seed in range(5):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", script, *argv],
                                 env=env, capture_output=True, check=True)
            outputs.add(run.stdout)
        assert len(outputs) == 1
        assert outputs.pop().strip()


class TestTruncation:
    def test_depth_one_weight_module(self):
        q = truncated_quotient(instantiate("w", {"a": 2, "b": 1}), 1)
        assert q.dim == 2
        assert [q.symbol(i) for i in range(q.dim)] == ["L_0", "W_0"]
        assert q.nonzero_brackets() == [((0, 1), [(1, Fraction(1))])]
        assert q.derived_series() == [2, 1, 0]
        assert q.is_solvable() == (True, 2)
        assert not q.is_nilpotent()

    def test_depth_one_can_be_abelian(self):
        q = truncated_quotient(instantiate("w", {"a": 1, "b": 1}), 1)
        assert q.nonzero_brackets() == []
        assert q.derived_series() == [2, 0]

    def test_depth_one_three_generators(self):
        q = truncated_quotient(instantiate("tsv", {"a": 0, "b": 0}), 1)
        assert [q.symbol(i) for i in range(q.dim)] == ["L_0", "Y_1/2", "M_0"]
        assert q.nonzero_brackets() == [
            ((0, 1), [(1, Fraction(-2))]),
            ((0, 2), [(2, Fraction(-3))]),
        ]
        assert q.derived_series() == [3, 2, 0]

    def test_deeper_quotient_solvable_not_nilpotent(self):
        q = truncated_quotient(instantiate("vir"), 3)
        assert q.dim == 3
        assert q.derived_series() == [3, 2, 0]
        assert q.lower_central_series() == [3, 2, 2]
        assert q.is_solvable() == (True, 2)
        assert not q.is_nilpotent()

    def test_unbound_parameters_rejected(self):
        with pytest.raises(BindingError):
            truncated_quotient(instantiate("w"), 2)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            truncated_quotient(instantiate("vir"), 0)

    @pytest.mark.parametrize("depth", [True, 2.0, Fraction(2), "2"])
    def test_depth_must_be_an_int(self, depth):
        with pytest.raises(ValueError, match=re.escape(f"not {depth!r}")):
            truncated_quotient(instantiate("vir"), depth)

    @pytest.mark.parametrize("preset,bindings", PRESET_BINDINGS + [
        ("w", {"a": Fraction(1, 3), "b": -1}), ("wb", {"b": Fraction(-1, 2)}),
        ("tsv", {"a": Fraction(1, 3), "b": -1}), ("tsvc", {"c": Fraction(-1, 2)}),
        ("tsvc", {"c": Fraction(5, 2)})])
    def test_structure_constants_match_ann_bracket(self, preset, bindings):
        alg = instantiate(preset, bindings)
        top = 14
        # Every bracket of symbols below degree ``top``, from public ann_bracket.
        symbols = [(pos, s, AnnBasis(g, g.filtration_shift + s))
                   for pos, g in enumerate(alg.generators) for s in range(top)]
        expanded = {}
        for u, (gpos, adeg, a) in enumerate(symbols):
            for hpos, bdeg, b in symbols[u + 1:]:
                expanded[(gpos, adeg), (hpos, bdeg)] = [
                    (alg.generators.index(basis.gen), basis.degree, coeff.constant_value())
                    for basis, coeff in ann_bracket(alg, a, b).items()]
        for depth in range(1, top + 1):
            want = []
            for (left, right), terms in expanded.items():
                if left[1] >= depth or right[1] >= depth:
                    continue
                i, j = left[0] * depth + left[1], right[0] * depth + right[1]
                row = sorted((pos * depth + int(degree), c)
                             for pos, degree, c in terms if 0 <= degree < depth)
                if row:
                    want.append(((i, j), row))
            want.sort()
            assert truncated_quotient(alg, depth).nonzero_brackets() == want, depth

    def test_one_expansion_per_generator_pair(self, monkeypatch):
        import confalg.annihilation as annihilation
        expansions = []
        expand = annihilation._pair_terms

        def counting_expansion(alg, gname, hname):
            expansions.append((gname, hname))
            return expand(alg, gname, hname)

        def no_bracket(*args):
            raise AssertionError("truncated_quotient called ann_bracket")

        monkeypatch.setattr(annihilation, "_pair_terms", counting_expansion)
        monkeypatch.setattr(annihilation, "ann_bracket", no_bracket)
        alg = instantiate("tsv", {"a": 0, "b": 0})
        q = annihilation.truncated_quotient(alg, 12)
        assert q.dim == 36
        assert len(expansions) == len(set(expansions)) <= len(alg.generators) ** 2

    @pytest.mark.parametrize("preset,bindings,depth,calls,nonzero", [
        ("tsv", {"a": 0, "b": 0}, 12, 222, 222), ("w", {"a": 2, "b": 1}, 14, 154, 153)])
    def test_pairs_beyond_the_depth_are_not_expanded(self, preset, bindings, depth, calls,
                                                     nonzero, monkeypatch):
        # One _coefficient_terms call per label pair with a term below the
        # depth, of 630 and 378 label pairs; in w one such bracket cancels.
        import confalg.annihilation as annihilation
        count = [0]
        terms = annihilation._coefficient_terms

        def counting(expansion, m, n):
            count[0] += 1
            return terms(expansion, m, n)

        monkeypatch.setattr(annihilation, "_coefficient_terms", counting)
        q = annihilation.truncated_quotient(instantiate(preset, bindings), depth)
        assert count[0] == calls
        assert len(q.nonzero_brackets()) == nonzero

    @pytest.mark.parametrize("preset,bindings", PRESET_BINDINGS)
    def test_quotients_are_solvable(self, preset, bindings):
        for depth in (1, 2, 3):
            q = truncated_quotient(instantiate(preset, bindings), depth)
            solvable, length = q.is_solvable()
            assert solvable
            assert length <= depth + 2


class TestFiniteLie:
    def test_simple_algebra_not_solvable(self):
        sl2 = FiniteLie([("e", 0), ("f", 0), ("h", 0)],
                        {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
        assert sl2.check_jacobi() == []
        assert sl2.derived_series() == [3, 3]
        assert sl2.is_solvable() == (False, None)
        assert not sl2.is_nilpotent()

    def test_abelian_algebra(self):
        ab = FiniteLie([("u", 0), ("v", 0)], {})
        assert ab.derived_series() == [2, 0]
        assert ab.lower_central_series() == [2, 0]
        assert ab.is_solvable() == (True, 1)
        assert ab.is_nilpotent()

    def test_jacobi_violation_detected(self):
        bad = FiniteLie([("x", 0), ("y", 0), ("z", 0)],
                        {(0, 1): {0: 1}, (0, 2): {1: 1}})
        assert bad.check_jacobi() != []

    def test_antisymmetric_lookup(self):
        sl2 = FiniteLie([("e", 0), ("f", 0), ("h", 0)],
                        {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
        e, f = [Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]
        assert sl2.bracket_vectors(f, e) == [Fraction(0), Fraction(0), Fraction(-1)]
        assert sl2.bracket_vectors(e, e) == [Fraction(0)] * 3

    def test_vector_bracket(self):
        sl2 = FiniteLie([("e", 0), ("f", 0), ("h", 0)],
                        {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
        e = [Fraction(1), Fraction(0), Fraction(0)]
        f = [Fraction(0), Fraction(1), Fraction(0)]
        assert sl2.bracket_vectors(e, f) == [Fraction(0), Fraction(0), Fraction(1)]

    def test_bad_indices_rejected(self):
        with pytest.raises(DefinitionError):
            FiniteLie([("u", 0)], {(0, 0): {0: 1}})
        with pytest.raises(DefinitionError):
            FiniteLie([("u", 0), ("v", 0)], {(0, 1): {5: 1}})

    @pytest.mark.parametrize("data,entry", [
        ({"i": "0", "j": 1, "terms": [{"k": 1, "coeff": "1"}]}, "('0',1)"),
        ({"i": 0, "j": 1, "terms": [{"k": "0", "coeff": "1"}]}, "'0'"),
        ({"i": 0, "j": 1, "terms": [{"k": 0.5, "coeff": "1"}]}, "0.5"),
        ({"i": False, "j": 1, "terms": [{"k": 1, "coeff": "1"}]}, "(False,1)"),
    ])
    def test_non_integer_indices_rejected(self, data, entry):
        terms = {t["k"]: Fraction(t["coeff"]) for t in data["terms"]}
        with pytest.raises(DefinitionError, match=re.escape(entry)):
            FiniteLie([("u", 0), ("v", 0)], {(data["i"], data["j"]): terms})

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(DefinitionError):
            FiniteLie([("u", 0), ("u", 0)], {})

    @pytest.mark.parametrize("gen", [[1], 5, None])
    def test_basis_name_must_be_a_string(self, gen):
        with pytest.raises(DefinitionError, match=re.escape(repr(gen))):
            FiniteLie([(gen, 0)], {})

    @pytest.mark.parametrize("value", [0.1, 0.0, True, False, "1/2", "0"])
    def test_basis_label_must_be_an_int_or_a_fraction(self, value):
        with pytest.raises(DefinitionError, match=re.escape(f"basis label {value!r} of u ")):
            FiniteLie([("u", value), ("v", 0)], {})

    @pytest.mark.parametrize("value", [0.1, 0.0, True, False, "1/2", "0"])
    def test_structure_constant_must_be_an_int_or_a_fraction(self, value):
        with pytest.raises(DefinitionError, match=re.escape(f"bracket (0,1) has coefficient "
                                                            f"{value!r} at 1,")):
            FiniteLie([("u", 0), ("v", 0)], {(0, 1): {0: 1, 1: value}})

    def test_ints_and_fractions_are_read_exactly(self):
        lie = FiniteLie([("u", Fraction(-1, 2)), ("v", 3)], {(0, 1): {0: Fraction(1, 3), 1: 2}})
        assert [lie.symbol(i) for i in range(2)] == ["u_-1/2", "v_3"]
        assert lie.nonzero_brackets() == [((0, 1), [(0, Fraction(1, 3)), (1, Fraction(2))])]

    def test_sparse_paths_never_build_dense_brackets(self, monkeypatch):
        calls = []
        dense = FiniteLie.bracket_vectors

        def counting(self, u, v):
            calls.append((u, v))
            return dense(self, u, v)

        monkeypatch.setattr(FiniteLie, "bracket_vectors", counting)
        q = truncated_quotient(instantiate("tsv", {"a": 0, "b": 0}), 8)
        q.derived_series()
        q.lower_central_series()
        assert len(calls) == 0
        sl2 = FiniteLie([("e", 0), ("f", 0), ("h", 0)],
                        {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
        e = [Fraction(1), Fraction(0), Fraction(0)]
        f = [Fraction(0), Fraction(1), Fraction(0)]
        assert sl2.bracket_vectors(e, f) == [Fraction(0), Fraction(0), Fraction(1)]
        assert len(calls) == 1

    @pytest.mark.parametrize("preset,bindings", [("tsv", {"a": 0, "b": 0}),
                                                 ("wb", {"b": Fraction(1, 2)})])
    def test_series_and_jacobi_make_no_fraction_operations(self, preset, bindings,
                                                           monkeypatch):
        q = truncated_quotient(instantiate(preset, bindings), 12)
        count = [0]

        def counting(name):
            original = getattr(Fraction, name)

            def wrapper(self, other):
                count[0] += 1
                return original(self, other)
            return wrapper

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(Fraction, name, counting(name))
        q.derived_series()
        q.lower_central_series()
        q.check_jacobi()
        assert count[0] == 0
        assert Fraction(1, 2) * 3 + 1 == Fraction(5, 2)
        assert count[0] == 2

    def test_series_skip_the_brackets_the_grading_makes_zero(self, monkeypatch):
        q = truncated_quotient(instantiate("tsv", {"a": 0, "b": 0}), 12)
        calls = [0]
        bracket = FiniteLie._bracket

        def counting(self, u, v):
            calls[0] += 1
            return bracket(self, u, v)

        monkeypatch.setattr(FiniteLie, "_bracket", counting)
        assert q.derived_series() == [36, 35, 31, 21, 3, 0]
        assert q.lower_central_series() == [36, 35, 35]
        # bracketing every pair of each step took 1,308 brackets
        assert calls[0] == 535 < 1308 // 2

    def test_construction_makes_no_fraction_per_constant(self, monkeypatch):
        dim = 12
        basis = [("e", i) for i in range(dim)]
        ints = {(i, j): {k: i * j - k for k in range(dim)}
                for i in range(dim) for j in range(i + 1, dim)}
        fractions = {pair: {k: Fraction(c, 6) for k, c in terms.items()}
                     for pair, terms in ints.items()}
        count = [0]
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            count[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for brackets in (ints, fractions):
            count[0] = 0
            FiniteLie(basis, brackets)
            # one per basis label, none of the 792 constants
            assert count[0] <= dim

    def test_series_step_stops_at_rank_bound(self, monkeypatch):
        q = truncated_quotient(instantiate("w", {"a": 2, "b": 1}), 8)
        calls = [0]
        bracket = FiniteLie._bracket

        def counting(self, u, v):
            calls[0] += 1
            return bracket(self, u, v)

        monkeypatch.setattr(FiniteLie, "_bracket", counting)
        assert q.lower_central_series() == [16, 15, 15]
        # the first step reads [g, g] off the table and brackets nothing; the
        # second stops once it has 15 independent rows again, before reading
        # all 16 x 15 brackets
        assert 15 <= calls[0] < 16 * 15


# ---- FiniteLie against independent dense references ------------------------
#
# The references below build every bracket from a dense structure-constant
# tensor and leave the span dimensions to sympy, so they share neither the
# sparse adjacency nor ``integer_echelon`` with the code under test.

def _dense_constants(lie):
    """C[i][j] is the dense vector [e_i, e_j], filled in by antisymmetry."""
    n = lie.dim
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in lie.nonzero_brackets():
        for k, c in terms:
            table[i][j][k] = c
            table[j][i][k] = -c
    return table


def _dense_bracket(table, u, v):
    n = len(table)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += u[i] * v[j] * table[i][j][k]
    return out


def _triple_walk_jacobi(lie):
    """Failing triples by the sparse walk over every triple i < j < k,
    summing [e_x, [e_y, e_z]] over the three cyclic orders of each triple
    with any nonzero inner bracket."""
    ad = lie._ad
    failures = []
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            ij = ad[i].get(j)
            for k in range(j + 1, lie.dim):
                jk, ki = ad[j].get(k), ad[k].get(i)
                if not (ij or jk or ki):
                    continue
                total: dict[int, int] = {}
                for x, inner in ((i, jk), (j, ki), (k, ij)):
                    for m, c in (inner or {}).items():
                        for n, e in ad[x].get(m, {}).items():
                            total[n] = total.get(n, 0) + c * e
                if any(total.values()):
                    failures.append(f"({lie.symbol(i)}, {lie.symbol(j)}, {lie.symbol(k)})")
    return failures


def _naive_jacobi(lie):
    """Failing triples of the dense Jacobiator
    J(i, j, k)_n = sum_m C[j][k][m] C[i][m][n] + cyclic, in the order i < j < k."""
    table = _dense_constants(lie)
    n = lie.dim
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [Fraction(0)] * n
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for m in range(n):
                        for t in range(n):
                            total[t] += table[y][z][m] * table[x][m][t]
                if any(total):
                    failures.append(f"({lie.symbol(i)}, {lie.symbol(j)}, {lie.symbol(k)})")
    return failures


def _sympy_series(sympy, lie, lower):
    """Series dimensions with every span reduced by sympy's ``rowspace``."""
    table = _dense_constants(lie)
    whole = [[Fraction(int(r == c)) for c in range(lie.dim)] for r in range(lie.dim)]
    space = whole
    dims = [lie.dim]
    while True:
        if lower:
            rows = [_dense_bracket(table, u, v) for u in whole for v in space]
        else:
            rows = [_dense_bracket(table, u, v)
                    for a, u in enumerate(space) for v in space[a + 1:]]
        rows = [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
        basis = sympy.Matrix(rows).rowspace() if rows else []
        dims.append(len(basis))
        if not basis or len(basis) == len(space):
            return dims
        space = [[Fraction(int(c.p), int(c.q)) for c in row] for row in basis]


_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_LABELS = st.sampled_from([Fraction(n, 2) for n in range(-4, 7)])


@st.composite
def _labelled_tables(draw, graded):
    """Tables on up to 6 basis symbols with drawn labels: negative,
    half-integer and shared by several names.  When ``graded``, every label
    is positive and each stored constant c_ij^k has label_k >= label_i +
    label_j; otherwise targets are arbitrary and some bracket lowers the
    labels, so the table breaks the filtration."""
    labels = _LABELS.filter(lambda label: label > 0) if graded else _LABELS
    basis = draw(st.lists(st.tuples(st.sampled_from("uvw"), labels),
                          min_size=1, max_size=6, unique=True))
    dim = len(basis)
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            targets = [k for k in range(dim)
                       if not graded or basis[k][1] >= basis[i][1] + basis[j][1]]
            if targets and draw(st.booleans()):
                brackets[(i, j)] = draw(st.dictionaries(st.sampled_from(targets), _COEFFS,
                                                        min_size=1, max_size=2))
    if not graded:
        assume(any(c and basis[k][1] < basis[i][1] + basis[j][1]
                   for (i, j), terms in brackets.items() for k, c in terms.items()))
    return FiniteLie(basis, brackets)


def _unpruned_series(lie, lower):
    """Series dimensions from the integer table, bracketing every pair of
    each step in index order and reducing the whole span."""
    rows = [terms for i, row in enumerate(lie._ad) for j, terms in row.items() if i < j]
    size = lie.dim
    dims = [size]
    while True:
        space = [list(row.items()) for row in integer_echelon(rows)]
        dims.append(len(space))
        if not space or len(space) == size:
            return dims
        size = len(space)
        if lower:
            rows = [lie._bracket(((i, 1),), v) for i in range(lie.dim) for v in space]
        else:
            rows = [lie._bracket(u, v) for a, u in enumerate(space) for v in space[a + 1:]]


def _counted(lie, series):
    """The named series of ``lie`` and the number of brackets it took."""
    calls = []
    bracket = lie._bracket

    def counting(u, v):
        calls.append(None)
        return bracket(u, v)

    lie._bracket = counting
    try:
        return getattr(lie, series)(), len(calls)
    finally:
        del lie._bracket


@st.composite
def _random_tables(draw):
    """Antisymmetric tables on up to 6 basis symbols; most break Jacobi."""
    dim = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    brackets = {pair: draw(st.dictionaries(st.integers(0, dim - 1), _COEFFS,
                                           min_size=1, max_size=2))
                for pair in chosen}
    return FiniteLie([("e", i) for i in range(dim)], brackets)


@functools.cache
def _preset_truncation(position, depth):
    preset, bindings = PRESET_BINDINGS[position]
    return truncated_quotient(instantiate(preset, bindings), depth)


@st.composite
def _perturbed_truncations(draw, max_depth=3, max_changes=1):
    """A truncation of a preset with up to ``max_changes`` stored coefficients
    changed or brackets added, so that some triples fail Jacobi and others
    pass."""
    position = draw(st.integers(0, len(PRESET_BINDINGS) - 1))
    q = _preset_truncation(position, draw(st.integers(2, max_depth)))
    brackets = {pair: dict(terms) for pair, terms in q.nonzero_brackets()}
    for _ in range(draw(st.integers(1, max_changes))):
        i = draw(st.integers(0, q.dim - 2))
        j = draw(st.integers(i + 1, q.dim - 1))
        k = draw(st.integers(0, q.dim - 1))
        brackets.setdefault((i, j), {})[k] = draw(_COEFFS)
    return FiniteLie(q.basis, brackets)


_WIDE_COEFFS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 12))


@st.composite
def _wide_inputs(draw):
    """Raw (dim, brackets) inputs on up to 6 basis symbols with coefficients
    of mixed denominators up to 12, zeros included, as ints or Fractions."""
    dim = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coeff = st.one_of(_WIDE_COEFFS, _WIDE_COEFFS.map(lambda c: c.numerator))
    brackets = {pair: draw(st.dictionaries(st.integers(0, dim - 1), coeff, max_size=3))
                for pair in chosen}
    return dim, brackets


def _fraction_rows(brackets):
    """The nonzero brackets of raw inputs, as ``nonzero_brackets`` lists them."""
    rows = [((i, j), sorted((k, Fraction(c)) for k, c in terms.items() if c))
            for (i, j), terms in sorted(brackets.items())]
    return [(pair, terms) for pair, terms in rows if terms]


def _fraction_bracket(dim, brackets, u, v):
    """[u, v] summed over every stored pair of the raw inputs."""
    out = [Fraction(0)] * dim
    for (i, j), terms in brackets.items():
        for k, c in terms.items():
            out[k] += (u[i] * v[j] - u[j] * v[i]) * c
    return out


class TestIntegerTable:
    """The integer table against Fraction references built from the inputs."""

    @settings(max_examples=150, deadline=None)
    @given(_wide_inputs(), st.data())
    def test_outputs_match_fraction_reference(self, inputs, data):
        dim, brackets = inputs
        lie = FiniteLie([("e", i) for i in range(dim)], brackets)
        want = _fraction_rows(brackets)
        got_rows = lie.nonzero_brackets()
        assert got_rows == want
        assert all(isinstance(c, Fraction) for _, terms in got_rows for _, c in terms)

        assert [term["coeff"] for rec in lie.to_json()["brackets"] for term in rec["terms"]] \
            == [str(c) for _, terms in want for _, c in terms]

        same = FiniteLie(lie.basis, {pair: dict(terms) for pair, terms in reversed(want)})
        assert same == lie
        if want:
            factor = data.draw(_WIDE_COEFFS.filter(lambda c: c not in (0, 1)))
            scaled = FiniteLie(lie.basis, {pair: {k: c * factor for k, c in terms}
                                           for pair, terms in want})
            assert scaled != lie

        vector = st.lists(_WIDE_COEFFS, min_size=dim, max_size=dim)
        u, v = data.draw(vector), data.draw(vector)
        got = lie.bracket_vectors(u, v)
        assert got == _fraction_bracket(dim, brackets, u, v)
        assert all(isinstance(c, Fraction) for c in got)

    @settings(max_examples=100, deadline=None)
    @given(_wide_inputs())
    def test_series_and_jacobi_match_dense_oracles(self, inputs):
        sympy = pytest.importorskip("sympy")
        dim, brackets = inputs
        lie = FiniteLie([("e", i) for i in range(dim)], brackets)
        assert lie.derived_series() == _sympy_series(sympy, lie, lower=False)
        assert lie.lower_central_series() == _sympy_series(sympy, lie, lower=True)
        assert lie.check_jacobi() == _naive_jacobi(lie)

    @settings(max_examples=200, deadline=None)
    @given(_wide_inputs(), st.data())
    def test_unit_brackets_match_the_expansion(self, inputs, data):
        """``_bracket`` of two one-entry vectors is D times their bracket
        summed over every stored pair of the raw inputs, and the stored row
        itself when the coefficients multiply to 1."""
        dim, brackets = inputs
        lie = FiniteLie([("e", i) for i in range(dim)], brackets)
        i, j = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
        coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-6, 6), _WIDE_COEFFS)
        ci, cj = data.draw(coeff), data.draw(coeff)
        u, v = [0] * dim, [0] * dim
        u[i], v[j] = ci, cj
        want = {k: c * lie._scale
                for k, c in enumerate(_fraction_bracket(dim, brackets, u, v)) if c}
        got = lie._bracket(((i, ci),), ((j, cj),))
        assert got == want
        if want and ci * cj == 1:
            assert got is lie._ad[i][j]

    def test_unit_brackets_scale_the_stored_row(self):
        lie = FiniteLie([("e", 0), ("f", 1), ("g", 2)],
                        {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: Fraction(-2, 3), 2: 1}})
        assert lie._scale == 6
        assert lie._bracket(((0, 2),), ((1, -3),)) == {2: -18}
        assert lie._bracket(((2, Fraction(1, 2)),), ((0, 4),)) == {1: 8, 2: -12}
        assert lie._bracket(((1, -1),), ((0, -1),)) is lie._ad[1][0]
        assert lie._bracket(((0, 0),), ((1, 5),)) == {}
        assert lie._bracket(((1, 1),), ((2, 1),)) == {}
        assert lie._ad[0][1] == {2: 3} and lie._ad[1][0] == {2: -3}


def _table_snapshot(lie):
    """The integer table with every row's key order."""
    return [[(j, list(terms.items())) for j, terms in row.items()] for row in lie._ad]


def _read_everything(lie):
    lie.derived_series()
    lie.lower_central_series()
    lie.check_jacobi()
    lie.to_json()


class TestTableIsReadOnly:
    """The series hand stored rows of the table to ``integer_echelon``
    uncopied, so nothing that reads the table may write to it."""

    @pytest.mark.parametrize("position", range(len(PRESET_BINDINGS)))
    @pytest.mark.parametrize("depth", [3, 8])
    def test_preset_truncations(self, position, depth):
        preset, bindings = PRESET_BINDINGS[position]
        lie = truncated_quotient(instantiate(preset, bindings), depth)
        before = _table_snapshot(lie)
        _read_everything(lie)
        assert _table_snapshot(lie) == before

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_wide_inputs().map(
        lambda inputs: FiniteLie([("e", i) for i in range(inputs[0])], inputs[1])),
        _random_tables(), _labelled_tables(graded=True), _labelled_tables(graded=False),
        _perturbed_truncations(max_depth=6, max_changes=3)))
    def test_drawn_tables(self, lie):
        before = _table_snapshot(lie)
        _read_everything(lie)
        assert _table_snapshot(lie) == before


class TestFiniteLieOracle:
    @pytest.mark.parametrize("preset,bindings", PRESET_BINDINGS)
    def test_truncation_series_match_sympy(self, preset, bindings):
        sympy = pytest.importorskip("sympy")
        alg = instantiate(preset, bindings)
        for depth in range(1, 7):
            q = truncated_quotient(alg, depth)
            assert q.derived_series() == _sympy_series(sympy, q, lower=False), depth
            assert q.lower_central_series() == _sympy_series(sympy, q, lower=True), depth

    @settings(max_examples=150, deadline=None)
    @given(_random_tables())
    def test_random_table_series_match_sympy(self, lie):
        sympy = pytest.importorskip("sympy")
        assert lie.derived_series() == _sympy_series(sympy, lie, lower=False)
        assert lie.lower_central_series() == _sympy_series(sympy, lie, lower=True)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_labelled_tables(graded=True), _labelled_tables(graded=False)))
    def test_pruned_series_match_unpruned_and_sympy(self, lie):
        sympy = pytest.importorskip("sympy")
        assert lie.derived_series() == _unpruned_series(lie, lower=False) \
            == _sympy_series(sympy, lie, lower=False)
        assert lie.lower_central_series() == _unpruned_series(lie, lower=True) \
            == _sympy_series(sympy, lie, lower=True)

    @settings(max_examples=150, deadline=None)
    @given(_labelled_tables(graded=True))
    def test_graded_tables_skip_pairs(self, lie):
        dims, calls = _counted(lie, "lower_central_series")
        # Unpruned, a step from a space of dimension d brackets all dim basis
        # vectors with its d rows.  Every degree is positive and no bracket
        # lowers one, so a basis vector of top degree meets no row.
        assert calls <= sum((lie.dim - 1) * d for d in dims[1:-1])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_random_tables(), _perturbed_truncations()))
    def test_jacobi_failures_match_dense_jacobiator(self, lie):
        assert lie.check_jacobi() == _naive_jacobi(lie)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_random_tables(), _perturbed_truncations(max_depth=12, max_changes=3)))
    def test_jacobi_failures_match_the_triple_walk(self, lie):
        assert lie.check_jacobi() == _triple_walk_jacobi(lie)

    @pytest.mark.parametrize("preset,bindings", PRESET_BINDINGS)
    def test_truncations_pass_dense_jacobiator(self, preset, bindings):
        q = truncated_quotient(instantiate(preset, bindings), 4)
        assert q.check_jacobi() == _naive_jacobi(q) == []
