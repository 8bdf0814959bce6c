"""Tests for rank-one module checking, classification, and submodule scans."""

from __future__ import annotations

import copy
import itertools
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (
    PRESET_NAMES,
    AxiomReport,
    BindingError,
    DefinitionError,
    DiscrepancyError,
    DivisibilityError,
    Poly,
    Rank1Action,
    ReportEntry,
    UnsupportedError,
    check_module,
    gamma_carrier,
    induced_action,
    instantiate,
    irreducibility_verdict,
    named_module,
    parse_poly,
    rank1_classify,
    rank1_module,
    submodule_scan,
    vir_completeness,
    zero_module,
)
from confalg import modules
from confalg import poly as poly_module
from confalg import solve as solve_module
from confalg.algebra import LambdaElement, parse_algebra
from confalg.errors import NonMonicDivisorError
from confalg.poly import group_coefficients, join_terms, monic_div_rem
from confalg.solve import SolutionFamily, SolutionSet, solve_system


@pytest.fixture
def vir():
    return instantiate("vir")


def formal(alg, name):
    reg = alg.registry
    return Poly.from_var(reg, reg.param(name))


STAGED_PRESETS = [("w", {"a": 1, "b": 0}), ("wb", {"b": 0}),
                  ("tsv", {"a": 1, "b": 0}), ("tsvc", {"c": 1})]


def _unshortened_residual(alg, actions, aname, bname):
    """The module identity's residual with both products always formed."""
    reg = alg.registry
    d, x, y = reg.d, reg.x, reg.y
    dp, xp, yp = (Poly.from_var(reg, v) for v in (d, x, y))
    A, B = actions[aname], actions[bname]
    t3 = Poly.zero(reg)
    for k, coeff in alg.entry(aname, bname).items():
        t3 = t3 + coeff.subs({d: -(xp + yp)}) * actions[k.name].substitute(x, xp + yp)
    return A * B.subs({d: dp + xp, x: yp}) - B.substitute(x, yp) * A.substitute(d, dp + yp) - t3


def _foreign_action_setups():
    """(checking algebra, action built on another w) pairs: a fresh w20,
    whose registry is shorter than the action's, and a w20 with extra
    parameters registered, so every index of the action names a variable."""
    w10 = instantiate("w", {"a": 1, "b": 0})
    action = rank1_module(w10, "alpha", "beta", "gamma")
    padded = instantiate("w", {"a": 2, "b": 0})
    for k in range(len(w10.registry)):
        padded.registry.param(f"pad_{k}")
    return [(instantiate("w", {"a": 2, "b": 0}), action), (padded, action)]


class TestCheckModule:
    @pytest.mark.parametrize("setup", range(2))
    def test_an_action_on_another_algebra_is_rejected(self, setup):
        """The closed form reads the action's variable indices in the
        checking algebra's registry, where they name other variables."""
        alg, action = _foreign_action_setups()[setup]
        with pytest.raises(DefinitionError, match="action belongs to a different algebra"):
            check_module(alg, action)

    def test_standard_family_passes_symbolically(self, vir):
        action = rank1_module(vir, "alpha", "beta")
        assert action.render() == "L -> x*alpha + d + beta"
        assert check_module(vir, action).passed

    def test_zero_action_passes_everywhere(self):
        for preset, bindings in [("w", {"a": 2, "b": 1}), ("wb", {"b": 0}),
                                 ("tsv", {"a": 1, "b": 0}), ("tsvc", {"c": 1})] + \
                [(name, None) for name in PRESET_NAMES]:
            alg = instantiate(preset, bindings)
            assert check_module(alg, zero_module(alg)).passed

    @pytest.mark.parametrize("preset, bindings", [("vir", None)] + STAGED_PRESETS)
    def test_zero_actions_leave_the_residual_unchanged(self, preset, bindings):
        """Skipping the two products when an action is zero changes no
        residual: the standard module with each generator in turn set to
        zero, and the zero module."""
        alg = instantiate(preset, bindings)
        standard = dict(rank1_module(alg, "alpha", "beta",
                                     "gamma" if gamma_carrier(alg) else None).items())
        variants = [dict(standard, **{g.name: Poly.zero(alg.registry)}) for g in alg.generators]
        for actions in variants + [dict(zero_module(alg).items())]:
            for a, b in alg.ordered_pairs():
                assert modules._rank1_residual(alg, actions, a, b) == \
                    _unshortened_residual(alg, actions, a, b)

    def test_each_action_is_split_once(self, monkeypatch):
        """A work count: over the nine ordered pairs of tsv's three
        generators, ``check_module`` splits each action polynomial once, and
        its entries are the pairs' residuals."""
        alg = instantiate("tsv", {"a": 1, "b": 0})
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        actions = {"L": d + 3 * x + 5, "Y": 7 * x, "M": d ** 2 + 11}
        residuals = [((a, b), str(modules._rank1_residual(alg, actions, a, b)))
                     for a, b in alg.ordered_pairs()]
        real = modules.split_terms
        split = Counter()

        def counting(p):
            split.update(name for name, action in actions.items() if p == action)
            return real(p)

        monkeypatch.setattr(modules, "split_terms", counting)
        report = check_module(alg, actions)
        assert split == {"L": 1, "Y": 1, "M": 1}
        assert [(e.key, e.residual) for e in report.entries] == residuals

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(STAGED_PRESETS), st.data())
    def test_zero_actions_leave_drawn_residuals_unchanged(self, preset, data):
        alg = instantiate(*preset)
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        terms = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)),
                         max_size=4)
        actions = {g.name: sum((c * d ** i * x ** j for c, i, j in data.draw(terms)),
                               Poly.zero(reg)) for g in alg.generators}
        for a, b in alg.ordered_pairs():
            assert modules._rank1_residual(alg, actions, a, b) == \
                _unshortened_residual(alg, actions, a, b)

    def test_constant_fails_off_the_carrier_locus(self):
        alg = instantiate("w", {"a": 2, "b": 0})
        reg = alg.registry
        d, x = (Poly.from_var(reg, v) for v in (reg.d, reg.x))
        actions = {"L": d + formal(alg, "alpha") * x + formal(alg, "beta"),
                   "W": formal(alg, "gamma")}
        report = check_module(alg, actions)
        assert not report.passed
        residuals = {e.key: e.residual for e in report.entries}
        assert residuals[("L", "W")] == "-x*gamma"
        assert residuals[("W", "L")] == "y*gamma"

    def test_mismatched_generator_set_rejected(self, vir):
        with pytest.raises(DefinitionError,
                           match="module actions do not match the algebra's generators"):
            check_module(vir, {"L": Poly.zero(vir.registry),
                               "W": Poly.zero(vir.registry)})

    def test_mapping_actions_use_only_d_x_and_parameters(self, vir):
        """A mapping is held to the rule of ``Rank1Action``: y is the
        identity's own second bracket variable, so an action in y (or z) is
        refused rather than mixed up with it."""
        reg = vir.registry
        d, y, z = (Poly.from_var(reg, v) for v in (reg.d, reg.y, reg.z))
        for bad, name in ((d + y, "y"), (z, "z")):
            with pytest.raises(DefinitionError, match=f"action of L uses {name}; "
                                                      f"only d, x and parameters are allowed"):
                check_module(vir, {"L": bad})
        assert check_module(vir, {"L": d + 2}).passed


_ORACLE_ALGEBRAS = [*PRESET_NAMES, "heis.alg", "two.alg", "wl.alg"]
_ORACLE_PARAMS = ("alpha", "beta", "gamma", "u_L_1_0", "u_W_0_2")


@st.composite
def _oracle_actions(draw, alg):
    """One drawn action per generator: up to four terms c*d^i*x^j*m with c a
    rational, often non-integral, and m a monomial in module parameters."""
    reg = alg.registry
    d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
    params = [Poly.from_var(reg, reg.param(name)) for name in _ORACLE_PARAMS]
    coefficient = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    term = st.tuples(coefficient, st.integers(0, 3), st.integers(0, 3),
                     st.lists(st.sampled_from(range(len(params))), max_size=3))
    return {g.name: sum((c * d ** i * x ** j * math.prod((params[k] for k in ks),
                                                         start=Poly.one(reg))
                         for c, i, j, ks in draw(st.lists(term, max_size=4))),
                        Poly.zero(reg))
            for g in alg.generators}


def _assert_residuals_match_the_oracle(alg, actions):
    """The closed-form residual of every ordered pair has the oracle's
    terms, in order, with ``Fraction`` coefficients."""
    for a, b in alg.ordered_pairs():
        residual = modules._rank1_residual(alg, actions, a, b)
        assert residual.terms() == _unshortened_residual(alg, actions, a, b).terms()
        assert all(type(c) is Fraction for _, c in residual.terms())


class TestClosedFormResidual:
    """``_rank1_residual`` expands the identity by binomials; the oracle
    multiplies and substitutes ``Poly``s."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(_ORACLE_ALGEBRAS), st.data())
    def test_matches_the_oracle_on_drawn_actions(self, name, data):
        """Unbound preset tables (brackets in a, b, c) and the golden
        fixtures, with drawn rational actions in module parameters."""
        alg = golden_algebra(name) if name.endswith(".alg") else instantiate(name)
        _assert_residuals_match_the_oracle(alg, data.draw(_oracle_actions(alg)))

    def test_matches_the_oracle_on_the_generic_completeness_action(self):
        vir = parse_algebra("algebra vir\ngen L\n[L,L] = (d + 2*x) L\n")
        f, _ = modules._generic_poly(vir.registry, "c", 3)
        _assert_residuals_match_the_oracle(vir, {"L": f})
        _assert_residuals_match_the_oracle(vir, {"L": f * Fraction(-2, 3)})

    def test_check_module_and_stage_two_substitute_and_multiply_nothing(self, monkeypatch):
        """A work count: certifying classified families, a mapping and an
        induced action, and building stage two's cross equations, call
        neither ``Poly.subs`` nor ``Poly.__mul__``."""
        alg = instantiate("tsv", {"a": 1, "b": 0})
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        ansatz = _degree_two_ansatz(alg)
        fs = (Poly.zero(reg), d + formal(alg, "alpha") * x + formal(alg, "beta"))
        stage_one = [(f, fam) for f in fs
                     for fam in solve_system(ansatz.stage_one(f), ansatz.unknowns, registry=reg)]
        families = rank1_classify(alg, 2, cross_check=False)
        mapping = {"L": d + x, "Y": Poly.zero(reg), "M": Poly.zero(reg)}
        induced = induced_action(alg, named_module(alg, "M_0_1"), d + 1)
        real_subs, real_mul = Poly.subs, Poly.__mul__
        calls = []

        def subs(p, sub):
            calls.append(("subs", str(p)))
            return real_subs(p, sub)

        def mul(p, q):
            calls.append(("mul", str(p)))
            return real_mul(p, q)

        monkeypatch.setattr(Poly, "subs", subs)
        monkeypatch.setattr(Poly, "__mul__", mul)
        monkeypatch.setattr(Poly, "__rmul__", mul)
        reports = [check_module(alg, action) for action in families + [induced]]
        reports.append(check_module(alg, mapping))
        eqs = [ansatz.stage_two(f, fam) for f, fam in stage_one]
        eqs.append(ansatz.stage_two(fs[0], _probe_family(ansatz)))
        assert calls == []
        assert all(report.passed for report in reports)
        assert eqs[-1]


class TestRank1Action:
    def test_free_params(self, vir):
        action = rank1_module(vir, "alpha", "beta")
        assert action.free_params() == ["alpha", "beta"]

    def test_action_must_cover_generators(self):
        w = instantiate("w", {"a": 1, "b": 0})
        with pytest.raises(DefinitionError):
            Rank1Action(w, {"L": Poly.zero(w.registry)})

    def test_action_rejects_stray_variables(self, vir):
        reg = vir.registry
        with pytest.raises(DefinitionError):
            Rank1Action(vir, {"L": Poly.from_var(reg, reg.y)})

    @pytest.mark.parametrize("value", [0.5, 1.0, True, False, "1/2", "0"])
    def test_constant_action_must_be_an_int_or_a_fraction(self, value):
        # A float, bool or str is refused by name: not a TypeError from
        # Poly.const, and True does not act by 1.
        w = instantiate("w", {"a": 1, "b": 0})
        with pytest.raises(DefinitionError, match=re.escape(f"action of L is {value!r}, not")):
            Rank1Action(w, {"L": value, "W": 0})

    def test_constant_actions_read_ints_and_fractions_exactly(self):
        w = instantiate("w", {"a": 1, "b": 0})
        assert Rank1Action(w, {"L": 0, "W": Fraction(-3, 2)}).render() == "L -> 0; W -> -3/2"


GOLDEN = Path(__file__).parent / "golden"


def golden_algebra(name):
    path = GOLDEN / name
    return parse_algebra(path.read_text())


_DETERMINISM_SCRIPT = """
import sys
from pathlib import Path
from confalg import DiscrepancyError, instantiate, parse_algebra, rank1_classify
for fam in rank1_classify(instantiate("w", {"a": 1, "b": 0}), 2):
    print(fam.render())
try:
    rank1_classify(parse_algebra(Path(sys.argv[1]).read_text()), 1)
except DiscrepancyError as exc:
    print(exc)
"""


def test_output_is_independent_of_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in range(5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT, str(GOLDEN / "wl.alg")],
                             env=env, capture_output=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1
    lines = outputs.pop().decode().splitlines()
    assert lines[-1] == "  missing from the symbolic families: L -> d - x; W -> d - x"


class TestNamedModules:
    def test_plain_pair(self, vir):
        assert named_module(vir, "M_1_0").render() == "L -> d + x"
        assert named_module(vir, "M_1/2_-1").render() == "L -> d + 1/2*x - 1"

    def test_zero_aliases(self, vir):
        assert named_module(vir, "zero").is_zero()
        assert named_module(vir, "trivial").is_zero()

    def test_formal_components(self, vir):
        m = named_module(vir, "M_alpha_beta")
        assert m.free_params() == ["alpha", "beta"]

    def test_carrier_component(self):
        w10 = instantiate("w", {"a": 1, "b": 0})
        m = named_module(w10, "M_0_0_1")
        assert m.render() == "L -> d; W -> 1"

    def test_carrier_component_rejected_without_carrier(self):
        w20 = instantiate("w", {"a": 2, "b": 0})
        with pytest.raises(BindingError):
            named_module(w20, "M_0_0_1")

    def test_components_are_read_as_fractions(self, vir):
        """Components are read by ``Fraction``, as ``--param`` values are, so
        decimal and exponent spellings name the same module."""
        assert named_module(vir, "M_1.5_0").render() == \
            named_module(vir, "M_3/2_0").render() == "L -> d + 3/2*x"
        assert named_module(vir, "M_1e3_0") == named_module(vir, "M_1000_0")

    def test_malformed_names_rejected(self, vir):
        from confalg import ParseError
        for bad in ("M_1", "N_1_2", "M_one_two", "M_1_2_3_4"):
            with pytest.raises(ParseError):
                named_module(vir, bad)


class TestCompleteness:
    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_only_the_standard_family(self, bound):
        assert [str(p) for p in vir_completeness(bound)] == \
            ["0", "x*alpha + d + beta"]

    def test_unsupported_bounds_rejected(self):
        with pytest.raises(UnsupportedError):
            vir_completeness(0)
        with pytest.raises(UnsupportedError):
            vir_completeness(4)


class TestDegreeBounds:
    """A degree bound is an int that is not a bool, as a truncation depth is:
    True is not 1 and 2.0 is not 2."""

    @staticmethod
    def refused(value):
        return pytest.raises(ValueError, match=re.escape(
            f"degree bound must be an int, not {value!r}"))

    @pytest.mark.parametrize("value", [True, 2.0, "2", None])
    def test_rank1_classify(self, value):
        w = instantiate("w", {"a": 1, "b": 0})
        with self.refused(value):
            rank1_classify(w, value)
        assert len(rank1_classify(w, 0)) == 2

    @pytest.mark.parametrize("value", [-1, -3])
    def test_rank1_classify_refuses_a_negative_bound(self, value):
        """A negative bound would leave no ansatz term at all, so the
        constant carrier W -> gamma of degree 0 would silently drop out."""
        w = instantiate("w", {"a": 1, "b": 0})
        with pytest.raises(ValueError, match=re.escape(
                f"degree bound must be at least 0, not {value}")):
            rank1_classify(w, value)
        assert [f.render() for f in rank1_classify(w, 0)] == [
            "L -> 0; W -> 0", "L -> x*alpha + d + beta; W -> gamma"]

    @pytest.mark.parametrize("value", [True, 2.0, "2", None])
    def test_submodule_scan(self, vir, value):
        with self.refused(value):
            submodule_scan(vir, named_module(vir, "M_0_2"), value)
        with pytest.raises(ValueError, match="scan degree must be at least 1"):
            submodule_scan(vir, named_module(vir, "M_0_2"), 0)

    @pytest.mark.parametrize("value", [True, 2.0, "2", None])
    def test_irreducibility_verdict(self, vir, value):
        # refused before the zero action is decided without a scan
        for module in ("zero", "M_0_2"):
            with self.refused(value):
                irreducibility_verdict(vir, named_module(vir, module), value)

    @pytest.mark.parametrize("value", [True, 2.0, "2", None])
    def test_vir_completeness(self, value):
        with self.refused(value):
            vir_completeness(value)
        with pytest.raises(UnsupportedError):
            vir_completeness(0)


class TestClassification:
    def test_virasoro(self, vir):
        fams = rank1_classify(vir, 4)
        assert [f.render() for f in fams] == \
            ["L -> 0", "L -> x*alpha + d + beta"]

    def test_carrier_point_of_weight_algebra(self):
        fams = rank1_classify(instantiate("w", {"a": 1, "b": 0}), 4)
        assert [f.render() for f in fams] == [
            "L -> 0; W -> 0",
            "L -> x*alpha + d + beta; W -> gamma",
        ]

    def test_generic_point_of_weight_algebra(self):
        fams = rank1_classify(instantiate("w", {"a": 2, "b": 0}), 4)
        assert [f.render() for f in fams] == [
            "L -> 0; W -> 0",
            "L -> x*alpha + d + beta; W -> 0",
        ]

    def test_extended_algebra_carrier_point(self):
        fams = rank1_classify(instantiate("tsv", {"a": 1, "b": 0}), 4)
        assert [f.render() for f in fams] == [
            "L -> 0; Y -> 0; M -> 0",
            "L -> x*alpha + d + beta; Y -> gamma; M -> 0",
        ]

    def test_central_extension_kills_the_carrier(self):
        fams = rank1_classify(instantiate("tsvc", {"c": 1}), 4)
        assert [f.render() for f in fams] == [
            "L -> 0; Y -> 0; M -> 0",
            "L -> x*alpha + d + beta; Y -> 0; M -> 0",
        ]

    def test_families_satisfy_the_identity(self):
        for preset, bindings in [("w", {"a": 1, "b": 0}), ("tsvc", {"c": 0})]:
            alg = instantiate(preset, bindings)
            for fam in rank1_classify(alg, 3, cross_check=False):
                assert check_module(alg, fam).passed

    def test_unbound_structure_parameters_rejected(self):
        with pytest.raises(BindingError):
            rank1_classify(instantiate("w"), 2)


def _degree_two_ansatz(alg):
    virasoro = alg.virasoro_generator
    return modules._Ansatz(alg, virasoro, [g for g in alg.generators if g is not virasoro], 2)


def _probe_family(ansatz) -> SolutionFamily:
    """An affine family of ansatz coefficients that solves nothing: per
    generator, u_0_0 and u_0_1 stay free, u_1_0 = u_0_0 + 1, the rest are 0."""
    reg = ansatz.alg.registry
    free, solved = [], {}
    for g in ansatz.others:
        u00, u01, u10 = (reg.var(f"u_{g.name}_{i}_{j}")
                         for i, j in ((0, 0), (0, 1), (1, 0)))
        free += [u00, u01]
        solved[u10] = Poly.from_var(reg, u00) + 1
    for v in ansatz.unknowns:
        if v not in free:
            solved.setdefault(v, Poly.zero(reg))
    return SolutionFamily(ansatz.unknowns, solved, free)


def _record_ansatzes(monkeypatch) -> list:
    """Patch ``modules._Ansatz`` to keep every ansatz a classification builds."""
    ansatzes = []
    real = modules._Ansatz

    def recording(*args):
        ansatzes.append(real(*args))
        return ansatzes[-1]

    monkeypatch.setattr(modules, "_Ansatz", recording)
    return ansatzes


def _virasoro_actions(alg):
    """f = 0, the symbolic d + alpha*x + beta, and d + a*x + b at every grid
    point and at two off-grid rationals."""
    reg = alg.registry
    d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
    points = list(itertools.product(modules._GRID_ALPHAS, modules._GRID_BETAS))
    points += [(Fraction(1, 2), Fraction(-1, 3)), (Fraction(3), Fraction(-2))]
    return [Poly.zero(reg), d + formal(alg, "alpha") * x + formal(alg, "beta")] + \
        [d + a0 * x + b0 for a0, b0 in points]


def _row_multiset(rows) -> Counter:
    """Sparse rows as a multiset of their primitive integer multiples."""
    return Counter(tuple(sorted(solve_module._primitive(row).items())) for row in rows)


def _reference_rows(ansatz, eqs) -> Counter:
    """Residual coefficients as ``solve_system`` reads them: rows keyed by
    the unknowns' positions, as a multiset of primitive rows."""
    return _row_multiset(solve_module._affine_rows(eqs, ansatz.unknowns))


def _assert_stage_one_matches_the_residuals(alg, degree, fs):
    """The closed-form stage-one rows of each Virasoro action in ``fs`` are
    nonzero ints and, as a multiset of primitive rows, the coefficients of
    the (L, g) residuals built from the generic actions and split by
    ``_extract``."""
    virasoro = alg.virasoro_generator
    ansatz = modules._Ansatz(alg, virasoro,
                             [g for g in alg.generators if g is not virasoro], degree)
    for f in fs:
        actions = {virasoro.name: f, **ansatz.actions}
        reference = [eq for g in ansatz.others
                     for eq in modules._extract(
                         modules._rank1_residual(alg, actions, virasoro.name, g.name),
                         ansatz.unknowns)]
        rows = ansatz.stage_one(f)
        assert all(type(c) is int and c for row in rows for c in row.values())
        assert _row_multiset(rows) == _reference_rows(ansatz, reference), str(f)


_ENTRY_COEFFS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                st.builds(Fraction, st.integers(-3, 3).filter(bool),
                                          st.integers(1, 2)),
                                min_size=1, max_size=3)


def _drawn_tsv(data):
    """tsv at a = 1, b = 0 with drawn [L, Y] and [L, M] entries, each naming
    L, Y and M with rational coefficients; the (L, L) entry stays Virasoro."""
    alg = instantiate("tsv", {"a": 1, "b": 0})
    reg = alg.registry
    d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
    for g in ("Y", "M"):
        entry = {alg.gen(k): sum((c * d ** i * x ** j
                                  for (i, j), c in data.draw(_ENTRY_COEFFS).items()),
                                 Poly.zero(reg)) for k in ("L", "Y", "M")}
        alg = alg.with_entry("L", g, LambdaElement(reg, entry))
    return alg


class TestClassificationResiduals:
    @pytest.mark.parametrize("preset, bindings", STAGED_PRESETS)
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_closed_form_stage_one_matches_the_split_residuals(self, preset, bindings, degree):
        alg = instantiate(preset, bindings)
        _assert_stage_one_matches_the_residuals(alg, degree, _virasoro_actions(alg))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_closed_form_stage_one_matches_drawn_brackets(self, degree, data):
        """Drawn [L, g] entries of tsv's three generators, each naming g,
        the other non-Virasoro generator and L itself with rational
        coefficients; the (L, L) entry stays Virasoro."""
        alg = _drawn_tsv(data)
        fs = _virasoro_actions(alg)
        _assert_stage_one_matches_the_residuals(
            alg, degree, fs[:2] + [data.draw(st.sampled_from(fs[2:]))])

    # At these three bindings stage two solves some stage-one free
    # coefficients, so composing has something to substitute.
    @pytest.mark.parametrize("preset, bindings", STAGED_PRESETS + [
        ("w", {"a": 2, "b": 0}), ("wb", {"b": -1}), ("tsv", {"a": 2, "b": 0})])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_composed_families_are_canonical(self, preset, bindings, degree):
        """Every family of a classification solve equals its own
        re-elimination: substituting a stage-two family into its stage-one
        family leaves it in reduced echelon form over the generic
        coefficients."""
        alg = instantiate(preset, bindings)
        reg = alg.registry
        virasoro = alg.virasoro_generator
        ansatz = modules._Ansatz(alg, virasoro,
                                 [g for g in alg.generators if g is not virasoro], degree)
        for f in _virasoro_actions(alg):
            for fam in ansatz.solve(f):
                eqs = [Poly.from_var(reg, v) - p for v, p in fam.solved.items()]
                rows = solve_module._affine_rows(eqs, ansatz.unknowns)
                assert solve_module._echelon_family(ansatz.unknowns, rows, reg) == fam, str(f)

    def test_stage_one_multiplies_no_generic_action(self, monkeypatch):
        """A work count: building the ansatz's rows and folding them for f = 0
        and the symbolic f splits no polynomial into coefficients and
        multiplies no polynomial in the generic coefficients."""
        alg = instantiate("tsv", {"a": 1, "b": 0})
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        fs = (Poly.zero(reg), d + formal(alg, "alpha") * x + formal(alg, "beta"))
        generic = _degree_two_ansatz(alg).owner
        real_mul, real_group = Poly.__mul__, modules.group_coefficients
        products, grouped = [], []

        def mul(p, q):
            if any(v in generic for operand in (p, q) if isinstance(operand, Poly)
                   for v in operand.variables()):
                products.append((str(p), str(q)))
            return real_mul(p, q)

        def grouping(p, unknowns):
            grouped.append(str(p))
            return real_group(p, unknowns)

        monkeypatch.setattr(Poly, "__mul__", mul)
        monkeypatch.setattr(Poly, "__rmul__", mul)
        monkeypatch.setattr(modules, "group_coefficients", grouping)
        ansatz = _degree_two_ansatz(alg)
        stage_one = [ansatz.stage_one(f) for f in fs]
        assert products == [] and grouped == []
        assert all(stage_one)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([("vir", None), ("w", {"a": 1, "b": 0}), ("tsv", {"a": 1, "b": 0})]),
           _ENTRY_COEFFS, _ENTRY_COEFFS)
    def test_every_staged_virasoro_action_satisfies_its_own_pair(self, preset, a_coeffs,
                                                                 b_coeffs):
        """Stage one checks no (L, L) pair: for A and B free of d and x,
        f = d + A*x + B gives f(d,x) f(d+x,y) - f(d,y) f(d+y,x) =
        (x - y) f(d, x+y), which the (d + 2x) L bracket's term cancels."""
        alg = instantiate(*preset)
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        alpha, beta = formal(alg, "alpha"), formal(alg, "beta")
        A, B = (sum((c * alpha ** i * beta ** j for (i, j), c in coeffs.items()), Poly.zero(reg))
                for coeffs in (a_coeffs, b_coeffs))
        assert modules._rank1_residual(alg, {"L": d + A * x + B}, "L", "L").is_zero()

    def test_the_virasoro_generator_is_detected_not_inherited(self):
        """Replacing [L_x L] drops the Virasoro name, so classification
        refuses the algebra instead of trusting a stale L."""
        alg = instantiate("w", {"a": 2, "b": 0})
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        bent = alg.with_entry("L", "L", LambdaElement(reg, {alg.gen("L"): d + 3 * x}))
        assert alg.virasoro_name == "L" and bent.virasoro_name is None
        with pytest.raises(UnsupportedError, match="no generator with a Virasoro bracket"):
            rank1_classify(bent, 2)

    def test_virasoro_actions_outside_the_staged_shape_are_unsupported(self):
        alg = instantiate("w", {"a": 1, "b": 0})
        reg = alg.registry
        d, x, y = (Poly.from_var(reg, v) for v in (reg.d, reg.x, reg.y))
        alpha = formal(alg, "alpha")
        # f = s*d + A*x + B is staged only when s*f = f: s = 1, or f = 0.
        for f in (d * 2, d * d, d + x * x, d + d * x, d + y, alpha, x, alpha * x, x + 1):
            with pytest.raises(UnsupportedError, match="neither 0 nor d \\+ A\\*x \\+ B"):
                modules._slot_weights(f)
        for f in (d + alpha * alpha * x + alpha, d + Fraction(1, 2) * x, Poly.zero(reg)):
            modules._slot_weights(f)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_staged_shape_test_agrees_with_the_product(self, data):
        """With s the coefficient of d in f, ``_slot_weights`` reads s*f = f
        as f = 0 or s = 1, and rejects every f with s*f != f."""
        alg = instantiate("w", {"a": 1, "b": 0})
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        alpha = formal(alg, "alpha")
        pieces = [0, 1, -1, 2, Fraction(1, 2), alpha, x, alpha * x, x + 1, alpha + 1]
        s, a, b = (data.draw(st.sampled_from(pieces)) for _ in range(3))
        f = s * d + a * x + b
        s = f.coeff_of(reg.d, 1)
        assert (s * f != f) == (not (f.is_zero() or s == 1))
        if s * f != f:
            with pytest.raises(UnsupportedError, match="neither 0 nor d \\+ A\\*x \\+ B"):
                modules._slot_weights(f)

    @pytest.mark.parametrize("preset, bindings", STAGED_PRESETS)
    def test_specialised_residuals_match_rebuilt_ones(self, preset, bindings):
        """Substituting a point into the (L, g) residuals of the symbolic
        action gives the residuals rebuilt from the action at that point,
        and the stage-one equations of that action split them."""
        alg = instantiate(preset, bindings)
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        alpha, beta = reg.param("alpha"), reg.param("beta")
        ansatz = _degree_two_ansatz(alg)
        vname = alg.virasoro_generator.name
        symbolic = d + Poly.from_var(reg, alpha) * x + Poly.from_var(reg, beta)
        a0, b0 = Fraction(-1), Fraction(1, 2)
        rebuilt_f = d + a0 * x + b0
        assert symbolic.subs({alpha: a0, beta: b0}) == rebuilt_f
        specialised = [modules._rank1_residual(alg, {vname: symbolic, **ansatz.actions},
                                               vname, g.name).subs({alpha: a0, beta: b0})
                       for g in ansatz.others]
        rebuilt = [modules._rank1_residual(alg, {vname: rebuilt_f, **ansatz.actions},
                                           vname, g.name)
                   for g in ansatz.others]
        assert specialised == rebuilt
        assert set(_row_multiset(ansatz.stage_one(rebuilt_f))) == set(_reference_rows(
            ansatz, [eq for r in rebuilt for eq in modules._extract(r, ansatz.unknowns)]))

    @pytest.mark.parametrize("preset, bindings", STAGED_PRESETS)
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_specialised_equations_match_the_substituted_residuals(self, preset, bindings,
                                                                   degree):
        """The stage-one equations of the symbolic action's specialisation at
        a point, which a grid point solves, are the equations of
        substituting the point into each whole symbolic (L, g) residual and
        splitting it again, on the grid and off it."""
        alg = instantiate(preset, bindings)
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        alpha, beta = reg.param("alpha"), reg.param("beta")
        f = d + Poly.from_var(reg, alpha) * x + Poly.from_var(reg, beta)
        virasoro = alg.virasoro_generator
        ansatz = modules._Ansatz(alg, virasoro,
                                 [g for g in alg.generators if g is not virasoro], degree)
        actions = {virasoro.name: f, **ansatz.actions}
        residuals = [modules._rank1_residual(alg, actions, virasoro.name, g.name)
                     for g in ansatz.others]
        points = list(itertools.product(modules._GRID_ALPHAS, modules._GRID_BETAS))
        for a0, b0 in points + [(Fraction(1, 2), Fraction(-1, 3)), (Fraction(3), Fraction(-2))]:
            point = {alpha: a0, beta: b0}
            reference = [eq for r in residuals
                         for eq in modules._extract(r.subs(point), ansatz.unknowns)]
            specialised = f.subs(point)
            assert specialised == d + a0 * x + b0
            assert _row_multiset(ansatz.stage_one(specialised)) == \
                _reference_rows(ansatz, reference)

    @pytest.mark.parametrize("preset, bindings", STAGED_PRESETS)
    def test_stage_two_matches_the_substituted_generic_cross_residuals(self, preset, bindings):
        """Building the cross residuals from a family's substituted actions
        gives the equations of substituting it into the generic ones.  The
        stage-one families of these presets leave no cross equation, so a
        probe family that is not a solution is compared as well."""
        alg = instantiate(preset, bindings)
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        alpha, beta = Poly.from_var(reg, reg.param("alpha")), Poly.from_var(reg, reg.param("beta"))
        ansatz = _degree_two_ansatz(alg)
        others = [g.name for g in ansatz.others]
        for f in (Poly.zero(reg), d + alpha * x + beta):
            generic = {alg.virasoro_generator.name: f, **ansatz.actions}
            cross = [modules._rank1_residual(alg, generic, g, h)
                     for i, g in enumerate(others) for h in others[i:]]
            families = list(solve_system(ansatz.stage_one(f), ansatz.unknowns, registry=reg))
            assert families
            for fam in families + [_probe_family(ansatz)]:
                eqs = ansatz.stage_two(f, fam)
                assert eqs == [eq for r in cross
                               for eq in modules._extract(fam.substitute_into(r), fam.free)]
            assert eqs

    def test_grid_cross_check_builds_no_generic_residuals(self, monkeypatch):
        """No residual is built over the generic ansatz: stage one is
        written in closed form, and the grid points only build each
        stage-one family's small cross residuals."""
        ansatzes = _record_ansatzes(monkeypatch)
        real = modules._rank1_residual
        generic, total = [], []

        def counting(alg, actions, a, b):
            total.append((a, b))
            if any(actions.get(g) is ans.actions[g] for ans in ansatzes for g in ans.actions):
                generic.append((a, b))
            return real(alg, actions, a, b)

        monkeypatch.setattr(modules, "_rank1_residual", counting)
        alg = instantiate("tsv", {"a": 1, "b": 0})
        rank1_classify(alg, 2, cross_check=False)
        unchecked = (len(generic), len(total))
        generic.clear()
        total.clear()
        rank1_classify(alg, 2)
        # Per Virasoro action (0 and the symbolic one) the three cross pairs
        # for its one stage-one family; stage one's pairs with Y and M are
        # written in closed form, and certifying a family (check_module)
        # builds its residuals without _rank1_residual.
        assert unchecked == (0, 2 * 3) == (0, 6)
        # Each of the 8 grid points adds the three cross pairs of its family.
        assert (len(generic), len(total)) == (0, 6 + 3 * 8) == (0, 30)

    def test_grid_points_substitute_only_the_virasoro_action(self, monkeypatch):
        """A work count, not a timing: in the grid cross-check the only
        polynomial that mentions alpha or beta and gets substituted is the
        Virasoro action, once per point, and no such polynomial is split
        into coefficients."""
        real_check, real_subs, real_group = (modules._grid_cross_check, Poly.subs,
                                             modules.group_coefficients)
        in_grid, substituted, grouped = [], [], []

        def parametric(p):
            return any(v.name in ("alpha", "beta") for v in p.variables())

        def checking(*args):
            in_grid.append(True)
            try:
                return real_check(*args)
            finally:
                in_grid.pop()

        def subs(p, mapping):
            if in_grid and parametric(p):
                substituted.append(str(p))
            return real_subs(p, mapping)

        def grouping(p, unknowns):
            if in_grid and parametric(p):
                grouped.append(str(p))
            return real_group(p, unknowns)

        monkeypatch.setattr(modules, "_grid_cross_check", checking)
        monkeypatch.setattr(Poly, "subs", subs)
        monkeypatch.setattr(modules, "group_coefficients", grouping)
        rank1_classify(instantiate("tsv", {"a": 1, "b": 0}), 3)
        assert substituted == ["x*alpha + d + beta"] * 8
        assert grouped == []

    def test_stage_one_is_one_elimination_step(self, monkeypatch):
        """Stage one is affine, so the solver reduces it in one elimination
        and takes no step of its branching search."""
        ansatzes = _record_ansatzes(monkeypatch)
        real_step, real_echelon = solve_module._solve_step, solve_module.integer_echelon
        real_solve = modules.solve_system
        calls = []
        per_stage_one = []

        def counting_step(*args):
            calls.append("step")
            return real_step(*args)

        def counting_echelon(*args, **kwargs):
            calls.append("echelon")
            return real_echelon(*args, **kwargs)

        def solving(eqs, unknowns, **kwargs):
            calls.clear()
            result = real_solve(eqs, unknowns, **kwargs)
            if unknowns is ansatzes[-1].unknowns:
                per_stage_one.append(list(calls))
            return result

        monkeypatch.setattr(solve_module, "_solve_step", counting_step)
        monkeypatch.setattr(solve_module, "integer_echelon", counting_echelon)
        monkeypatch.setattr(modules, "solve_system", solving)
        rank1_classify(instantiate("tsv", {"a": 1, "b": 0}), 4)
        # Two branches and 8 grid points.
        assert per_stage_one == [["echelon"]] * 10

    def test_full_rank_stage_one_stops_reading_rows(self, monkeypatch):
        """A work count: each stage-one elimination reads (``_primitive``)
        at most the rows it is given, and one whose only solution is zero
        stops at full rank, before its last rows."""
        ansatzes = _record_ansatzes(monkeypatch)
        real_primitive, real_solve = solve_module._primitive, modules.solve_system
        read = []
        counts = []

        def primitive(row):
            read.append(True)
            return real_primitive(row)

        def solving(eqs, unknowns, **kwargs):
            read.clear()
            result = real_solve(eqs, unknowns, **kwargs)
            if unknowns is ansatzes[-1].unknowns:
                counts.append((len(eqs), len(read), [fam.dim for fam in result]))
            return result

        monkeypatch.setattr(solve_module, "_primitive", primitive)
        monkeypatch.setattr(modules, "solve_system", solving)
        rank1_classify(instantiate("tsv", {"a": 1, "b": 0}), 4)
        assert len(counts) == 10
        assert all(n_read <= given for given, n_read, _ in counts)
        full_rank = [(given, n_read) for given, n_read, dims in counts if dims == [0]]
        assert full_rank and all(n_read < given for given, n_read in full_rank)
        assert sum(n_read for _, n_read, _ in counts) < sum(given for given, _, _ in counts)

    def test_stage_one_folds_straight_into_the_elimination_rows(self, monkeypatch):
        """A work count: folding a Virasoro action's stage one builds no
        ``Poly``, neither reading its weights nor per equation, and solving
        the folded rows never calls ``_affine_rows`` and builds only the
        family's assignments."""
        alg = instantiate("tsv", {"a": 1, "b": 0})
        reg = alg.registry
        virasoro = alg.virasoro_generator
        ansatz = modules._Ansatz(alg, virasoro,
                                 [g for g in alg.generators if g is not virasoro], 3)
        real_init, real_rows = Poly.__init__, solve_module._affine_rows
        built, read = [], []

        def init(self, *args, **kwargs):
            built.append(True)
            real_init(self, *args, **kwargs)

        def reading(*args):
            read.append(True)
            return real_rows(*args)

        monkeypatch.setattr(Poly, "__init__", init)
        monkeypatch.setattr(solve_module, "_affine_rows", reading)
        for f in _virasoro_actions(alg):
            built.clear()
            modules._slot_weights(f)
            for_weights = len(built)
            built.clear()
            rows = ansatz.stage_one(f)
            assert len(built) == for_weights == 0 < len(rows), str(f)
            built.clear()
            solution = solve_system(rows, ansatz.unknowns, registry=reg)
            assert len(built) == sum(len(fam.solved) for fam in solution), str(f)
        assert read == []


    def _tamper_grid_point(self, monkeypatch, change):
        """Apply ``change`` to the stage-one solutions of the second grid
        point, (alpha, beta) = (-1, 1)."""
        real = modules.solve_system
        stage1 = []

        def tampered(eqs, unknowns, **kwargs):
            result = real(eqs, unknowns, **kwargs)
            if not stage1 or tuple(unknowns) == stage1[0]:
                stage1.append(tuple(unknowns))
                if len(stage1) == 4:  # zero branch, symbolic branch, two points
                    return SolutionSet(result.unknowns, change(result))
            return result

        monkeypatch.setattr(modules, "solve_system", tampered)

    def test_cross_check_catches_a_dropped_family(self, monkeypatch):
        self._tamper_grid_point(monkeypatch, lambda result: list(result)[:-1])
        with pytest.raises(DiscrepancyError, match=r"alpha=-1, beta=1\b"):
            rank1_classify(instantiate("w", {"a": 2, "b": 0}), 2)

    def test_cross_check_catches_an_extra_family(self, monkeypatch):
        def add_constant_action(result):
            unknowns = result.unknowns
            return list(result) + [SolutionFamily(unknowns, {
                v: Poly.const(alg.registry, 1 if v.name == "u_W_0_0" else 0)
                for v in unknowns}, ())]

        alg = instantiate("w", {"a": 2, "b": 0})
        self._tamper_grid_point(monkeypatch, add_constant_action)
        with pytest.raises(DiscrepancyError, match=r"alpha=-1, beta=1\b"):
            rank1_classify(alg, 2)

    def test_grid_check_names_the_disagreeing_families(self):
        """W acting by +-(d + alpha*x + beta) is a module at every grid point
        of wl, but its coefficients depend on alpha and beta, so the formal
        stage cannot produce it and the first grid point names both."""
        with pytest.raises(DiscrepancyError) as caught:
            rank1_classify(golden_algebra("wl.alg"), 1)
        assert str(caught.value).splitlines() == [
            "classification at alpha=-1, beta=0 disagrees with the symbolic families:",
            "  missing from the symbolic families: L -> d - x; W -> -d + x",
            "  missing from the symbolic families: L -> d - x; W -> d - x",
        ]


def _ansatz(alg, degree):
    virasoro = alg.virasoro_generator
    return modules._Ansatz(alg, virasoro,
                           [g for g in alg.generators if g is not virasoro], degree)


def _hand_rows(alg, degree):
    """Stage one's rows derived by hand, term by term, as an oracle.  With
    P_k = p_k(-(x+y), x) for each term p_k(d, x) k of [L_x g], the
    coefficient u of d^i x^j in A_g contributes to the residual of (L, g):
      - from f A_g(d+x, y) - A_g(d, y) f(d+y, x),
        C(i,e) (s d^(e+1) x^(i-e) + A d^e x^(i-e+1) + B d^e x^(i-e)) y^j
        for e < i, and -s d^i y^(j+1);
      - as a coefficient of A_k, -P_k d^i sum_t C(j,t) x^t y^(j-t), the
        bracket part.
    The term k = L adds the constant -P_L f(d, x+y).  Each row's four cells
    are scaled by the lcm of their denominators; a row whose terms all
    cancel is kept, with four empty cells."""
    reg = alg.registry
    virasoro = alg.virasoro_generator
    vname = virasoro.name
    others = [g for g in alg.generators if g is not virasoro]
    coefficients = {g.name: modules._generic_poly(reg, f"u_{g.name}", degree)[1]
                    for g in others}
    unknowns = [v for g in others for _, _, v in coefficients[g.name]]
    column = {v: k for k, v in enumerate(unknowns)}
    constant = len(unknowns)
    cells = {}

    def add(g, pqr, slot, col, c):
        cell = cells.setdefault((g, pqr), ({}, {}, {}, {}))[slot]
        cell[col] = cell.get(col, 0) + c

    shift = {reg.d: -(Poly.from_var(reg, reg.x) + Poly.from_var(reg, reg.y))}
    xi, yi = reg.x.index, reg.y.index
    for g in others:
        for i, j, v in coefficients[g.name]:
            u = column[v]
            for e in range(i):
                c = math.comb(i, e)
                add(g.name, (e + 1, i - e, j), 1, u, c)
                add(g.name, (e, i - e + 1, j), 2, u, c)
                add(g.name, (e, i - e, j), 3, u, c)
            add(g.name, (i, 0, j + 1), 1, u, -1)
        for k, p in alg.entry(vname, g.name).items():
            shifted = [(dict(m).get(xi, 0), dict(m).get(yi, 0),
                        c.numerator if c.denominator == 1 else c)
                       for m, c in p.subs(shift).terms()]
            if k.name == vname:
                for q, r, c in shifted:
                    add(g.name, (1, q, r), 1, constant, -c)
                    add(g.name, (0, q + 1, r), 2, constant, -c)
                    add(g.name, (0, q, r + 1), 2, constant, -c)
                    add(g.name, (0, q, r), 3, constant, -c)
                continue
            for i, j, v in coefficients[k.name]:
                u = column[v]
                for t in range(j + 1):
                    c = math.comb(j, t)
                    for q, r, pc in shifted:
                        add(g.name, (i, q + t, r + j - t), 0, u, -pc * c)
    rows = []
    for slots in cells.values():
        scale = math.lcm(*(c.denominator for cell in slots for c in cell.values()))
        rows.append(tuple({k: int(c * scale) for k, c in cell.items() if c} for cell in slots))
    return rows


def _cell_multiset(rows) -> Counter:
    """Rows as a multiset of their four cells, each cell's sorted items."""
    return Counter(tuple(tuple(sorted(cell.items())) for cell in row) for row in rows)


def _cells(row) -> tuple:
    """A column-major row, ``{column: (bracket, d, A, B)}``, transposed to
    its four cells ``{column: coefficient}``, zero coefficients dropped."""
    return tuple({k: entry[slot] for k, entry in row.items() if entry[slot]}
                 for slot in range(4))


def _assert_rows_match_the_hand_oracle(alg, degree):
    rows = _ansatz(alg, degree).rows
    oracle = [row for row in _hand_rows(alg, degree) if any(row)]
    assert all(row for row in rows)
    assert all(len(entry) == 4 and all(type(c) is int for c in entry) and any(entry)
               for row in rows for entry in row.values())
    assert _cell_multiset(map(_cells, rows)) == _cell_multiset(oracle)


class TestStageOneRows:
    """``_Ansatz`` reads its rows off ``_rank1_terms``; ``_hand_rows`` is the
    term-by-term derivation they replace."""

    @pytest.mark.parametrize("preset, bindings", STAGED_PRESETS + [("tsv", {"a": 2, "b": 0})])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_rows_match_the_hand_derived_oracle(self, preset, bindings, degree):
        _assert_rows_match_the_hand_oracle(instantiate(preset, bindings), degree)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_rows_match_the_hand_derived_oracle_on_drawn_brackets(self, degree, data):
        _assert_rows_match_the_hand_oracle(_drawn_tsv(data), degree)

    def test_building_the_ansatz_substitutes_and_multiplies_nothing(self, monkeypatch):
        """A work count: the rows come from the closed-form expansion, with
        no ``Poly`` substitution or product."""
        algs = [instantiate(preset, bindings) for preset, bindings in STAGED_PRESETS]
        calls = []
        for name in ("subs", "substitute", "__mul__", "__rmul__"):
            def recording(p, *args, _name=name, _real=getattr(Poly, name)):
                calls.append((_name, str(p)))
                return _real(p, *args)
            monkeypatch.setattr(Poly, name, recording)
        ansatzes = [_ansatz(alg, degree) for alg in algs for degree in (1, 3)]
        assert calls == []
        assert all(ansatz.rows for ansatz in ansatzes)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(STAGED_PRESETS), st.data())
    def test_row_order_changes_no_solution(self, preset_bindings, data):
        """The rows' order is a speed choice only: solving f = 0, the
        symbolic f and a grid point's f from permuted rows gives the same
        families."""
        alg = instantiate(*preset_bindings)
        ansatz = _degree_two_ansatz(alg)
        fs = _virasoro_actions(alg)
        grid = len(modules._GRID_ALPHAS) * len(modules._GRID_BETAS)
        fs = fs[:2] + [data.draw(st.sampled_from(fs[2:2 + grid]))]
        expected = [ansatz.solve(f) for f in fs]
        ansatz.rows = data.draw(st.permutations(ansatz.rows))
        assert [ansatz.solve(f) for f in fs] == expected


def _oracle_slot_weights(f):
    """``_slot_weights`` as it was written with ``Poly`` arithmetic, reading
    s, A and B through ``coeff_of``: the oracle for its weights, their
    order and its refusals."""
    reg = f.registry
    s = f.coeff_of(reg.d, 1)
    a, b = f.coeff_of(reg.x, 1), f.coeff_of(reg.x, 0) - s * Poly.from_var(reg, reg.d)
    if not (f.is_zero() or s == 1) or f.degree(reg.x) > 1 or \
            any(v.kind != poly_module.PARAMETER for v in a.variables() + b.variables()):
        raise UnsupportedError(f"the Virasoro action {f} is neither 0 nor d + A*x + B "
                               f"with A and B free of d and x")
    s, a, b = s.constant_value(), dict(a.terms()), dict(b.terms())
    return [(Fraction(m == ()), s * (m == ()), a.get(m, Fraction(0)), b.get(m, Fraction(0)))
            for m in dict.fromkeys([(), *a, *b])]


def _oracle_stage_one(ansatz, f):
    """``_Ansatz.stage_one`` as it was before rows kept their folds: every
    row folded afresh by every weight tuple, in one pass over its columns."""
    weights = []
    for slot_weights in _oracle_slot_weights(f):
        scale = math.lcm(*(w.denominator for w in slot_weights))
        weights.append(tuple(int(w * scale) for w in slot_weights))
    eqs = []
    for row in ansatz.rows:
        for w0, w1, w2, w3 in weights:
            folded = {k: t for k, (c0, c1, c2, c3) in row.items()
                      if (t := w0 * c0 + w1 * c1 + w2 * c2 + w3 * c3)}
            if folded:
                eqs.append(folded)
    return eqs


def _listed(rows) -> list:
    """Rows as lists of their items, so equality also compares key order."""
    return [list(row.items()) for row in rows]


def _rows_snapshot(ansatz):
    """A deep copy of every stage-one row and its stored folds."""
    return copy.deepcopy([(dict(row), row.slots, row.folds) for row in ansatz.rows])


class TestStoredFolds:
    """Each stage-one row keeps the folds no Virasoro action changes, and
    ``stage_one`` hands them to the solver uncopied; ``_oracle_stage_one``
    folds every row afresh."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_stage_one_matches_the_per_row_fold(self, degree, data):
        """Every action of a classification, two off-grid points and a
        drawn d + A*x + B with several monomials in alpha and beta and
        fractional coefficients: the same rows, entries and key order."""
        preset = data.draw(st.sampled_from(STAGED_PRESETS + [None]))
        alg = _drawn_tsv(data) if preset is None else instantiate(*preset)
        reg = alg.registry
        d, x = Poly.from_var(reg, reg.d), Poly.from_var(reg, reg.x)
        alpha, beta = formal(alg, "alpha"), formal(alg, "beta")
        A, B = (sum((c * alpha ** i * beta ** j for (i, j), c in data.draw(_ENTRY_COEFFS).items()),
                    Poly.zero(reg)) for _ in range(2))
        ansatz = _ansatz(alg, degree)
        for f in _virasoro_actions(alg) + [d + A * x + B]:
            assert modules._slot_weights(f) == _oracle_slot_weights(f), str(f)
            assert _listed(ansatz.stage_one(f)) == _listed(_oracle_stage_one(ansatz, f)), str(f)

    def test_refused_shapes_keep_their_message(self):
        alg = instantiate("w", {"a": 1, "b": 0})
        reg = alg.registry
        d, x, y, z = (Poly.from_var(reg, v) for v in (reg.d, reg.x, reg.y, reg.z))
        alpha = formal(alg, "alpha")
        for f in (d * 2, d * d, d + x * x, d + d * x, d + y, alpha, x, alpha * x, x + 1,
                  d * alpha, 2 * d, d + z, d + x * y):
            with pytest.raises(UnsupportedError) as new:
                modules._slot_weights(f)
            with pytest.raises(UnsupportedError) as old:
                _oracle_slot_weights(f)
            assert str(new.value) == str(old.value), str(f)

    @pytest.mark.parametrize("preset, bindings", STAGED_PRESETS)
    def test_a_classification_writes_to_no_row(self, preset, bindings, monkeypatch):
        """The solver reads stored folds uncopied, so after all 10 actions
        of a classification every row and fold equals its copy taken when
        the ansatz was built."""
        real_ansatz, real_solve = modules._Ansatz, modules._Ansatz.solve
        built, solved = [], []

        def recording(*args):
            ansatz = real_ansatz(*args)
            built.append((ansatz, _rows_snapshot(ansatz)))
            return ansatz

        def solving(ansatz, f):
            solved.append(str(f))
            return real_solve(ansatz, f)

        monkeypatch.setattr(modules._Ansatz, "solve", solving)
        monkeypatch.setattr(modules, "_Ansatz", recording)
        rank1_classify(instantiate(preset, bindings), 4)
        ((ansatz, before),) = built
        assert len(solved) == 10
        assert _rows_snapshot(ansatz) == before

    def test_stored_folds_are_handed_over_uncopied(self):
        """A work count, not a timing: for tsv at degree 4 the 10 actions of
        a classification hand the solver 1,930 rows from 230 ansatz rows, at
        f = 0 and at d + alpha*x + beta all of them stored folds, and at
        most 965 newly built."""
        alg = instantiate("tsv", {"a": 1, "b": 0})
        ansatz = _ansatz(alg, 4)
        stored = {id(fold) for row in ansatz.rows for fold in row.folds}
        handed = [ansatz.stage_one(f) for f in _virasoro_actions(alg)[:10]]
        new = [sum(id(eq) not in stored for eq in eqs) for eqs in handed]
        assert len(ansatz.rows) == 230
        assert sum(map(len, handed)) == 1930
        assert new[:2] == [0, 0] and sum(new) <= 965


class TestGammaCarrier:
    def test_carrier_locus(self):
        assert gamma_carrier(instantiate("w", {"a": 1, "b": 0})).name == "W"
        assert gamma_carrier(instantiate("w", {"a": 2, "b": 0})) is None
        assert gamma_carrier(instantiate("tsv", {"a": 1, "b": 0})).name == "Y"
        assert gamma_carrier(instantiate("tsv", {"a": Fraction(3, 2), "b": 0})) is None
        assert gamma_carrier(instantiate("tsvc", {"c": 1})) is None
        assert gamma_carrier(instantiate("vir")) is None


class TestSubmodules:
    def test_witness_for_degenerate_weight(self, vir):
        found = submodule_scan(vir, named_module(vir, "M_0_2"), 3)
        assert [str(w.generator) for w in found] == ["d + 2"]
        assert found[0].induced.render() == "L -> d + x + 2"
        assert found[0].render() == "p(d) = d + 2; induced: L -> d + x + 2"

    def test_witness_iff_alpha_vanishes(self, vir):
        for a0 in (0, 1, -2):
            for b0 in (0, 5):
                found = submodule_scan(vir, rank1_module(vir, a0, b0), 1)
                if a0 == 0:
                    assert [str(w.generator) for w in found] == \
                        [str(parse_poly(vir.registry, f"d + ({b0})"))]
                else:
                    assert found == []

    def test_constant_carrier_blocks_every_degree(self):
        w10 = instantiate("w", {"a": 1, "b": 0})
        action = named_module(w10, "M_0_2_1")
        for bound in (1, 2, 3, 5):
            assert submodule_scan(w10, action, bound) == []

    def test_zero_action_family_unsupported(self, vir):
        with pytest.raises(UnsupportedError):
            submodule_scan(vir, named_module(vir, "zero"), 2)

    def test_unbound_action_rejected(self, vir):
        with pytest.raises(UnsupportedError):
            submodule_scan(vir, rank1_module(vir, "alpha", "beta"), 2)

    def test_bad_bound_rejected(self, vir):
        with pytest.raises(ValueError):
            submodule_scan(vir, named_module(vir, "M_1_2"), 0)


def _sympy_expr(p, sympy):
    """The same polynomial as a sympy expression."""
    return sum((sympy.Rational(c.numerator, c.denominator) *
                sympy.prod([sympy.Symbol(p.registry.name_of(i)) ** e for i, e in mono])
                for mono, c in p.terms()), sympy.Integer(0))


def _reference_scan(action, max_degree):
    """The monic p(d) of degree 1..max_degree with every A_g(d, x) p(d + x)
    divisible by p(d), found by sympy alone, as sympy polynomials in d in the
    order ``submodules`` prints: by degree, then by rendered coefficients.

    A root r of p makes A_g(r, x) p(r + x) vanish, so it is a root of every
    x-coefficient of every A_g.  The candidates are therefore the monic
    products of (d - r) over the rational roots those coefficients share."""
    sympy = pytest.importorskip("sympy")
    d, x = sympy.symbols("d x")
    actions = [sympy.Poly(_sympy_expr(p, sympy), d, x) for _, p in action.items()]
    common = None
    for a in actions:
        for c in sympy.Poly(a.as_expr(), x).all_coeffs():
            if c != 0:
                roots = {-f.nth(0) / f.nth(1)
                         for f, _ in sympy.Poly(c, d).factor_list()[1] if f.degree() == 1}
                common = roots if common is None else common & roots
    found = []
    for k in range(1, max_degree + 1):
        for chosen in itertools.combinations_with_replacement(sorted(common), k):
            p = math.prod(sympy.Poly(d - r, d, x) for r in chosen)
            shifted = math.prod(sympy.Poly(d + x - r, d, x) for r in chosen)
            if all(sympy.div(a * shifted, p)[1].is_zero for a in actions):
                found.append(sympy.Poly(p.as_expr(), d))
    return sorted(found, key=lambda p: (p.degree(), "{%s}" % "; ".join(
        f"t{i} = {c}" for i, c in enumerate(p.all_coeffs()[:0:-1]))))


def _as_sympy_polys(polys):
    sympy = pytest.importorskip("sympy")
    return [sympy.Poly(_sympy_expr(p, sympy), sympy.Symbol("d")) for p in polys]


_PRESET_GRID = [("vir", None), ("w", {"a": 1, "b": 0}), ("w", {"a": 2, "b": 1}),
                ("wb", {"b": 0}), ("tsv", {"a": 1, "b": 0}), ("tsvc", {"c": 1})]
_MODULE_VALUES = (0, 1, -2, Fraction(1, 2), 3)


def _standard_modules(alg):
    carrier = gamma_carrier(alg) is not None
    for a0 in _MODULE_VALUES:
        for b0 in _MODULE_VALUES:
            for c0 in (_MODULE_VALUES if carrier else (None,)):
                yield rank1_module(alg, a0, b0, c0)


_ROOTS = st.lists(st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)]),
                  max_size=4)
_X_PART = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 2)),
                          st.integers(-2, 2), max_size=4)


def _drawn_action(alg, roots, unit, parts):
    """Each generator acts by prod_r (d - r) times its x-part.  The first
    x-part's x^2 coefficient is the nonzero constant ``unit``, so G is
    exactly the product of the (d - r)."""
    reg = alg.registry
    d, x = (Poly.from_var(reg, v) for v in (reg.d, reg.x))
    g0 = math.prod((d - r for r in roots), start=Poly.one(reg))
    parts = [{k: c for k, c in parts[0].items() if k[1] != 2} | {(0, 2): unit}] + parts[1:]
    return Rank1Action(alg, {
        gen.name: g0 * sum((c * d ** i * x ** j for (i, j), c in part.items()), Poly.zero(reg))
        for gen, part in zip(alg.generators, parts)})


class TestSubmoduleGcd:
    """Submodule generators are the monic divisors of the gcd G(d) of the
    action's x-coefficients; a divisor scan in sympy is the reference."""

    def test_matches_the_sympy_scan_on_the_preset_grid(self):
        checked = 0
        for preset, bindings in _PRESET_GRID:
            alg = instantiate(preset, bindings)
            for action in _standard_modules(alg):
                want = _reference_scan(action, 3)
                for bound in (1, 2, 3):
                    assert _as_sympy_polys(modules._submodule_generators(action, bound)) == \
                        [p for p in want if p.degree() <= bound], action.render()
                checked += 1
        assert checked == 450

    @settings(max_examples=150, deadline=None)
    @given(_ROOTS, st.sampled_from([1, -2, 3]),
           st.lists(_X_PART, min_size=2, max_size=2), st.integers(1, 3))
    def test_matches_the_sympy_scan_on_drawn_actions(self, roots, unit, parts, bound):
        action = _drawn_action(instantiate("w", {"a": 1, "b": 0}), roots, unit, parts)
        assert _as_sympy_polys(modules._submodule_generators(action, bound)) == \
            _reference_scan(action, bound)

    def test_no_solver_call_and_no_new_unknowns(self, vir, monkeypatch):
        calls = []
        real = modules.solve_system
        monkeypatch.setattr(modules, "solve_system",
                            lambda *args: calls.append(args) or real(*args))
        before = len(vir.registry)
        for spec in ("M_0_2", "M_1_2", "M_0_0"):
            submodule_scan(vir, named_module(vir, spec), 3)
            irreducibility_verdict(vir, named_module(vir, spec), 3)
        assert calls == []
        assert len(vir.registry) == before

    def test_irrational_factor_is_unsupported_and_named(self, vir):
        reg = vir.registry
        action = Rank1Action(vir, {"L": parse_poly(reg, "(d^2 + 1)*(d - 1)*(x + 1)")})
        with pytest.raises(UnsupportedError, match=r"d\^3 - d\^2 \+ d - 1"):
            submodule_scan(vir, action, 3)


def _reference_gcd(action):
    """G(d) by Euclid on ``Poly``s with ``monic_div_rem``: the old body of
    the scan's gcd, the oracle for ``_submodule_gcd``."""
    reg = action.algebra.registry
    d = reg.d
    g = Poly.zero(reg)
    for _, p in action.items():
        for c in group_coefficients(p, (d,)).values():
            while not c.is_zero():
                c = c / c.coeff_of(d, c.degree(d)).constant_value()
                g, c = c, monic_div_rem(g, c, d)[1]
    return g


def _reference_generators(action, max_degree):
    """The old ``_submodule_generators`` body: root multiplicities by
    ``monic_div_rem`` and each divisor a product of ``Poly``s."""
    reg = action.algebra.registry
    d, dp = reg.d, Poly.from_var(reg, reg.d)
    g = _reference_gcd(action)
    if g.is_zero():
        raise UnsupportedError("the action is zero: every monic polynomial generates a submodule")
    roots, rest = [], g
    for r in solve_module.rational_roots(
            [g.coeff_of(d, k).constant_value() for k in range(g.degree(d) + 1)]):
        while (division := monic_div_rem(rest, dp - r, d))[1].is_zero():
            roots.append(r)
            rest = division[0]
    if not rest.is_constant():
        raise UnsupportedError(f"the submodule gcd {g} has a factor with no rational root")
    divisors = {math.prod((dp - r for r in chosen), start=Poly.one(reg))
                for k in range(1, max_degree + 1) for chosen in itertools.combinations(roots, k)}
    return sorted(divisors, key=lambda p: (p.degree(d), "{%s}" % "; ".join(
        f"t{i} = {p.coeff_of(d, i)}" for i in range(p.degree(d)))))


def _reference_division(action, divisor):
    """Per generator, (g, quotient, remainder) of ``monic_div_rem(A_g *
    divisor(d + x), divisor, d)``: the old body of ``induced_action``'s
    division."""
    reg = action.algebra.registry
    d = reg.d
    shift = divisor.substitute(d, Poly.from_var(reg, d) + Poly.from_var(reg, reg.x))
    return [(g, *monic_div_rem(p * shift, divisor, d)) for g, p in action.items()]


def _outcome(fn, *args):
    """``fn(*args)``, or the text of the UnsupportedError it raises."""
    try:
        return fn(*args)
    except UnsupportedError as exc:
        return str(exc)


# x-parts c d^i x^j m, m a monomial in the module parameters alpha and beta.
_PARAM_MONOS = ["1", "alpha", "beta", "alpha*beta", "alpha^2"]
_PARAM_PART = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(_PARAM_MONOS)),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]), max_size=4)


def _param_action(alg, roots, parts):
    """Each generator acts by prod_r (d - r) times its x-part, whose terms
    may carry parameter monomials, so several lists share an x-power."""
    reg = alg.registry
    g0 = parse_poly(reg, "*".join(f"(d - ({r}))" for r in roots) or "1")
    return Rank1Action(alg, {
        gen.name: g0 * sum((c * parse_poly(reg, f"d^{i}*x^{j}*{m}")
                            for (i, j, m), c in part.items()), Poly.zero(reg))
        for gen, part in zip(alg.generators, parts)})


def _param_algebra():
    alg = instantiate("w", {"a": 1, "b": 0})
    alg.registry.params("alpha", "beta")
    return alg


class TestDenseKernel:
    """The submodule scan and the induced action divide dense coefficient
    lists in d; ``monic_div_rem`` on ``Poly``s and the old scan body are the
    oracles, on actions whose x-parts carry parameter monomials."""

    @settings(max_examples=200, deadline=None)
    @given(_ROOTS, st.lists(_PARAM_PART, min_size=2, max_size=2),
           st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 2)]),
                    min_size=1, max_size=3))
    def test_division_matches_monic_div_rem(self, roots, parts, divisor_roots):
        alg = _param_algebra()
        reg = alg.registry
        action = _param_action(alg, roots, parts)
        divisor = parse_poly(reg, "*".join(f"(d - ({r}))" for r in divisor_roots))
        monic = [divisor.coeff_of(reg.d, i).constant_value()
                 for i in range(divisor.degree(reg.d) + 1)]
        want = _reference_division(action, divisor)
        got = [(g, join_terms(reg, q), join_terms(reg, r))
               for g, q, r in modules._shifted_quotients(action, monic)]
        assert got == want
        refuted = [(g, r) for g, _, r in want if not r.is_zero()]
        if refuted:
            g, r = refuted[0]
            with pytest.raises(DivisibilityError) as caught:
                induced_action(alg, action, divisor)
            assert str(caught.value) == (f"{divisor} does not generate a submodule: the "
                                         f"action of {g} leaves remainder {r}")

    @settings(max_examples=200, deadline=None)
    @given(_ROOTS, st.lists(_PARAM_PART, min_size=2, max_size=2), st.integers(1, 3))
    def test_gcd_and_divisor_order_match_the_poly_scan(self, roots, parts, bound):
        action = _param_action(_param_algebra(), roots, parts)
        reg = action.algebra.registry
        g = _reference_gcd(action)
        assert modules._submodule_gcd(action) == \
            [g.coeff_of(reg.d, i).constant_value() for i in range(g.degree(reg.d) + 1)]
        assert _outcome(modules._submodule_generators, action, bound) == \
            _outcome(_reference_generators, action, bound)

    def test_repeated_and_fractional_roots(self):
        """G = (d + 1)^2 (d - 1/2): its divisors in print order (by degree,
        then by the rendered coefficients as strings), each dividing the
        action through the dense kernel as it does through the oracle."""
        alg = _param_algebra()
        reg = alg.registry
        action = Rank1Action(alg, {"L": parse_poly(reg, "(d + 1)^2*(d - 1/2)*(x + alpha)"),
                                   "W": parse_poly(reg, "(d + 1)^3*(d - 1/2)*beta*x^2")})
        found = modules._submodule_generators(action, 3)
        assert [str(p) for p in found] == [
            "d - 1/2", "d + 1", "d^2 + 1/2*d - 1/2", "d^2 + 2*d + 1",
            "d^3 + 3/2*d^2 - 1/2"]
        assert found == _reference_generators(action, 3)
        for divisor in found:
            monic = [divisor.coeff_of(reg.d, i).constant_value()
                     for i in range(divisor.degree(reg.d) + 1)]
            assert [(g, join_terms(reg, q), join_terms(reg, r)) for g, q, r in
                    modules._shifted_quotients(action, monic)] == \
                _reference_division(action, divisor)

    def test_non_monic_divisor_keeps_its_refusal(self, vir):
        for text, lead in (("2*d + 1", "2"), ("1/2*d^2 - d", "1/2"), ("-d", "-1")):
            with pytest.raises(NonMonicDivisorError,
                               match=re.escape(f"divisor is not monic in d: leading "
                                               f"coefficient {lead}")):
                induced_action(vir, named_module(vir, "M_0_2"), parse_poly(vir.registry, text))

    def test_no_division_or_product_of_polys(self, monkeypatch):
        """``submodule_scan``, ``irreducibility_verdict`` and
        ``induced_action`` make no ``monic_div_rem`` call and no ``Poly``
        product on vir, w, tsv and tsvc modules (built before counting)."""
        cases = []
        for preset, bindings in [("vir", None), ("w", {"a": 1, "b": 0}),
                                 ("w", {"a": 2, "b": 1}), ("tsv", {"a": 1, "b": 0}),
                                 ("tsvc", {"c": 1})]:
            alg = instantiate(preset, bindings)
            carrier = gamma_carrier(alg) is not None
            for a0, b0 in itertools.product((0, 1, Fraction(1, 2)), (0, 2, Fraction(-3, 2))):
                for c0 in ((0, 1) if carrier else (None,)):
                    cases.append((alg, rank1_module(alg, a0, b0, c0),
                                  parse_poly(alg.registry, f"d + ({b0})"),
                                  parse_poly(alg.registry, "d^2 + 7")))
        counts = Counter()
        real_div, real_mul = monic_div_rem, Poly.__mul__

        def counted_div(*args):
            counts["monic_div_rem"] += 1
            return real_div(*args)

        def counted_mul(self, other):
            counts["Poly.__mul__"] += 1
            return real_mul(self, other)

        for module in (poly_module, modules, solve_module):
            if hasattr(module, "monic_div_rem"):
                monkeypatch.setattr(module, "monic_div_rem", counted_div)
        monkeypatch.setattr(Poly, "__mul__", counted_mul)
        monkeypatch.setattr(Poly, "__rmul__", counted_mul)
        witnesses = 0
        for alg, action, divisor, non_divisor in cases:
            try:
                found = submodule_scan(alg, action, 3)
            except UnsupportedError:  # the zero action
                found = []
            witnesses += len(found)
            irreducibility_verdict(alg, action, 3)
            if found:
                induced_action(alg, action, divisor)
            with pytest.raises(DivisibilityError):
                induced_action(alg, action, non_divisor)
        assert witnesses > 0
        assert counts == Counter()


class TestInducedAction:
    def test_degenerate_weight_shifts_up(self, vir):
        for b0 in (0, 2, -1, Fraction(1, 2)):
            source = rank1_module(vir, 0, b0)
            divisor = parse_poly(vir.registry, f"d + ({b0})")
            assert induced_action(vir, source, divisor) == rank1_module(vir, 1, b0)

    def test_unit_divisor_is_identity(self, vir):
        action = named_module(vir, "M_1_2")
        assert induced_action(vir, action, parse_poly(vir.registry, "1")) is action

    def test_non_divisor_rejected(self, vir):
        with pytest.raises(DivisibilityError):
            induced_action(vir, named_module(vir, "M_1_2"),
                           parse_poly(vir.registry, "d + 7"))

    def test_non_unit_constant_rejected(self, vir):
        with pytest.raises(DefinitionError):
            induced_action(vir, named_module(vir, "M_1_2"),
                           parse_poly(vir.registry, "2"))

    def test_divisor_must_be_in_d_alone(self, vir):
        with pytest.raises(DefinitionError):
            induced_action(vir, named_module(vir, "M_0_0"),
                           parse_poly(vir.registry, "d + x"))

    def test_failing_induced_identity_is_a_discrepancy(self, vir, monkeypatch):
        source = named_module(vir, "M_0_2")
        failing = AxiomReport("module", [ReportEntry(("L", "L"), "x*d", False)])
        real = modules.check_module
        monkeypatch.setattr(modules, "check_module",
                            lambda alg, action: real(alg, action) if action is source else failing)
        with pytest.raises(DiscrepancyError, match=r"^action induced by d \+ 2 fails the module "
                                                   r"identity at pair \(L, L\) with residual x\*d"):
            induced_action(vir, source, parse_poly(vir.registry, "d + 2"))

    def test_a_source_that_is_no_module_is_blamed(self):
        """On wl, W acting by 0 is no module, since [W_x W] is nonzero."""
        wl = golden_algebra("wl.alg")
        with pytest.raises(DiscrepancyError, match=r"^the action L -> d \+ 2; W -> 0 fails the "
                                                   r"module identity at pair \(W, W\)"):
            induced_action(wl, named_module(wl, "M_0_2"), parse_poly(wl.registry, "d + 2"))

    def test_an_action_on_another_algebra_is_rejected(self):
        w10, w20 = instantiate("w", {"a": 1, "b": 0}), instantiate("w", {"a": 2, "b": 0})
        for divisor in (parse_poly(w20.registry, "d + 2"), parse_poly(w20.registry, "1")):
            with pytest.raises(DefinitionError, match="action belongs to a different algebra"):
                induced_action(w20, rank1_module(w10, 0, 2), divisor)

    def test_induced_action_is_certified(self):
        w10 = instantiate("w", {"a": 1, "b": 0})
        action = named_module(w10, "M_0_3_0")
        found = submodule_scan(w10, action, 2)
        for w in found:
            assert check_module(w10, w.induced).passed


class TestVerdicts:
    def test_reducible_with_witness(self, vir):
        v = irreducibility_verdict(vir, named_module(vir, "M_0_2"), 3)
        assert v.status == "reducible"
        assert v.certificate == "unconditional"
        assert v.irreducible is False
        assert [str(w.generator) for w in v.witnesses] == ["d + 2"]

    def test_bounded_irreducibility(self, vir):
        v = irreducibility_verdict(vir, named_module(vir, "M_1_2"), 3)
        assert v.status == "irreducible"
        assert v.certificate == "bounded"
        assert v.irreducible is True
        assert v.render() == ("irreducible-up-to-bound: no monic generator of "
                              "degree <= 3 spans a proper submodule")

    def test_constant_rule_is_unconditional(self):
        w10 = instantiate("w", {"a": 1, "b": 0})
        v = irreducibility_verdict(w10, named_module(w10, "M_0_2_1"), 3)
        assert v.status == "irreducible"
        assert v.certificate == "unconditional"
        assert v.reason == "W acts by the nonzero constant 1"

    def test_zero_action_is_reducible(self, vir):
        v = irreducibility_verdict(vir, named_module(vir, "zero"), 3)
        assert v.status == "reducible"
        assert v.certificate == "unconditional"
        assert [str(w.generator) for w in v.witnesses] == ["d"]
        assert v.witnesses[0].induced.is_zero()

    @pytest.mark.parametrize("spec", ["zero", "M_0_2_1", "M_0_2"])
    def test_an_action_on_another_algebra_is_rejected(self, spec):
        """Before every verdict: the zero action, a nonzero constant and a
        submodule scan."""
        w10, w20 = instantiate("w", {"a": 1, "b": 0}), instantiate("w", {"a": 2, "b": 0})
        with pytest.raises(DefinitionError, match="action belongs to a different algebra"):
            irreducibility_verdict(w20, named_module(w10, spec), 3)
