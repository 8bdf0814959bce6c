"""Tests for the built-in algebra presets."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from confalg import (
    PRESET_NAMES,
    BindingError,
    DefinitionError,
    instantiate,
    parse_algebra,
    rank1_module,
)


def table_renders(alg):
    return {pair: alg.entry(*pair).render() for pair in alg.ordered_pairs()}


class TestCatalog:
    def test_names(self):
        assert PRESET_NAMES == ("vir", "w", "wb", "tsv", "tsvc")

    def test_unknown_preset_rejected(self):
        with pytest.raises(DefinitionError):
            instantiate("e8")

    def test_fresh_copies(self):
        assert instantiate("vir") is not instantiate("vir")

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_axioms_hold_symbolically(self, preset):
        alg = instantiate(preset)
        assert alg.check_skew().passed
        assert alg.check_jacobi().passed

    def test_binding_records_values(self):
        alg = instantiate("w", {"a": 2, "b": 1})
        assert alg.param_values == {"a": Fraction(2), "b": Fraction(1)}
        assert alg.params == ()
        alg = instantiate("w", {"a": Fraction(-2, 4), "b": 3})
        assert alg.param_values == {"a": Fraction(-1, 2), "b": Fraction(3)}
        assert all(type(v) is Fraction for v in alg.param_values.values())

    @pytest.mark.parametrize("preset, bindings", [
        ("w", {"a": 1, "b": 0}), ("wb", {"b": 0}), ("tsv", {"a": 1, "b": 0}),
        ("tsvc", {"c": Fraction(1, 2)})])
    def test_bound_registry_lists_structure_parameters_first(self, preset, bindings):
        # Variable indices order printed terms, so the structure parameters
        # must stay registered before the module's alpha and beta.
        alg = instantiate(preset, bindings)
        rank1_module(alg, "alpha", "beta")
        assert [v.name for v in alg.registry.all_vars()] == \
            ["d", "x", "y", "z", *bindings, "alpha", "beta"]


class TestExactBindings:
    """A parameter binds only to an int that is not a bool, or a Fraction, at
    both entry points: ``specialize`` (behind ``instantiate``) and
    ``rank1_module``."""

    @pytest.mark.parametrize("value", [0.1, 1.0, True, False, "1/2", " 1", None])
    def test_specialize_rejects_inexact_values(self, value):
        message = re.escape(f"a must be bound to an int or a Fraction, not {value!r}")
        with pytest.raises(BindingError, match=message):
            instantiate("w", {"a": value, "b": 0})
        with pytest.raises(BindingError, match=message):
            instantiate("w").specialize({"a": value, "b": 0})

    @pytest.mark.parametrize("slot", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("value", [0.1, 1.0, True, False])
    def test_rank1_module_rejects_inexact_values(self, slot, value):
        values = {"alpha": 0, "beta": 0, "gamma": 0, slot: value}
        with pytest.raises(BindingError, match=re.escape(
                f"{slot} must be bound to an int or a Fraction, not {value!r}")):
            rank1_module(instantiate("w", {"a": 1, "b": 0}), **values)

    @pytest.mark.parametrize("slot,want", [
        ("alpha", "L -> d - 1/2*x + 3; W -> -2"),
        ("beta", "L -> d - 1/2; W -> -2"),
        ("gamma", "L -> d + 3; W -> -1/2"),
    ])
    def test_rank1_module_binds_ints_and_fractions(self, slot, want):
        values = {"alpha": 0, "beta": 3, "gamma": -2, slot: Fraction(-2, 4)}
        action = rank1_module(instantiate("w", {"a": 1, "b": 0}), **values)
        assert action.render() == want
        assert action.free_params() == []


class TestShapes:
    def test_virasoro_is_rank_one(self):
        vir = instantiate("vir")
        assert [g.name for g in vir.generators] == ["L"]
        assert vir.virasoro_name == "L"
        assert vir.entry("L", "L").render() == "(d + 2*x) L"

    def test_weight_algebra_entries(self):
        w = instantiate("w")
        assert [g.name for g in w.generators] == ["L", "W"]
        assert w.entry("L", "W").render() == "(x*a + d + b) W"
        assert w.entry("W", "W").is_zero()

    def test_extended_generator_metadata(self):
        tsv = instantiate("tsv")
        meta = [(g.name, g.label_offset, g.filtration_shift) for g in tsv.generators]
        assert meta == [("L", Fraction(1), Fraction(0)),
                        ("Y", Fraction(1, 2), Fraction(1, 2)),
                        ("M", Fraction(0), Fraction(0))]

    def test_central_extension_entries(self):
        tsvc = instantiate("tsvc")
        assert [v.name for v in tsvc.params] == ["c"]
        assert tsvc.entry("L", "Y").render() == "(d + 3/2*x + c) Y"
        assert tsvc.entry("L", "M").render() == "(d + 2*c) M"
        assert tsvc.entry("Y", "Y").render() == "(-d^2 - 2*d*x - 2*d*c - 4*x*c) M"


class TestRelationsBetweenPresets:
    @pytest.mark.parametrize("b0", [0, Fraction(1, 2), 1, Fraction(3, 2),
                                    Fraction(-1, 3)])
    def test_single_parameter_family_embeds_in_the_plane(self, b0):
        wb = instantiate("wb", {"b": b0})
        w = instantiate("w", {"a": 1 - b0, "b": 0})
        assert table_renders(wb) == table_renders(w)

    def test_central_extension_is_not_a_specialization(self):
        tsv = instantiate("tsv", {"a": Fraction(3, 2), "b": 0})
        tsvc = instantiate("tsvc", {"c": 0})
        assert tsv.entry("L", "M").render() == "(d + x) M"
        assert tsvc.entry("L", "M").render() == "(d) M"
        assert tsv.entry("Y", "Y").render() == "(d + 2*x) M"
        assert tsvc.entry("Y", "Y").render() == "(-d^2 - 2*d*x) M"


# The presets written as ``.alg`` files, from the paper's tables: a second
# path to each algebra, through ``parse_algebra`` instead of the preset table.
ALG_TEXTS = {
    "vir": """\
algebra vir
gen L offset=1 shift=0
[L,L] = (d + 2*x) L
""",
    "w": """\
algebra w params a b
gen L offset=1 shift=0
gen W offset=0 shift=0
[L,L] = (d + 2*x) L
[L,W] = (d + a*x + b) W
[W,W] = 0
""",
    "wb": """\
algebra wb params b
gen L offset=1 shift=0
gen W offset=0 shift=0
[L,L] = (d + 2*x) L
[L,W] = (d + (1 - b)*x) W
[W,W] = 0
""",
    "tsv": """\
algebra tsv params a b
gen L offset=1 shift=0
gen Y offset=1/2 shift=1/2
gen M offset=0 shift=0
[L,L] = (d + 2*x) L
[L,Y] = (d + a*x + b) Y
[L,M] = (d + 2*(a - 1)*x + 2*b) M
[Y,Y] = (d + 2*x) M
[Y,M] = 0
[M,M] = 0
""",
    "tsvc": """\
algebra tsvc params c
gen L offset=1 shift=0
gen Y offset=1/2 shift=1/2
gen M offset=0 shift=0
[L,L] = (d + 2*x) L
[L,Y] = (d + 3/2*x + c) Y
[L,M] = (d + 2*c) M
[Y,Y] = (d + 2*x)*(-d - 2*c) M
[Y,M] = 0
[M,M] = 0
""",
}


class TestAlgFilePath:
    def test_every_preset_has_a_file(self):
        assert tuple(ALG_TEXTS) == PRESET_NAMES

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_parsed_file_matches_the_preset(self, preset):
        parsed, built = parse_algebra(ALG_TEXTS[preset]), instantiate(preset)
        assert parsed.name == built.name
        for pair in built.ordered_pairs():
            assert parsed.entry(*pair).render() == built.entry(*pair).render(), pair
        meta = [[(g.name, g.label_offset, g.filtration_shift) for g in alg.generators]
                for alg in (parsed, built)]
        assert meta[0] == meta[1]
        assert [v.name for v in parsed.params] == [v.name for v in built.params]
        assert parsed.virasoro_name == built.virasoro_name == "L"


class TestModuleHelpers:
    def test_standard_module_requires_bound_structure(self):
        with pytest.raises(BindingError):
            rank1_module(instantiate("w"), 0, 0)

    def test_formal_tokens_must_match(self):
        vir = instantiate("vir")
        with pytest.raises(DefinitionError):
            rank1_module(vir, "beta", 0)
        with pytest.raises(DefinitionError, match="formal value for alpha"):
            rank1_module(vir, "1/2", 0)
