"""Built-in lambda-bracket tables and their standard rank-one modules.

Available presets:

* ``vir``   Virasoro: one generator L with [L_x L] = (d + 2x) L.
* ``w``     the two-parameter family W(a, b): L plus a current W with
            [L_x W] = (d + a x + b) W and [W_x W] = 0.
* ``wb``    the one-parameter slice W(1 - b, 0), declared with the single
            parameter b.
* ``tsv``   the deformed Schroedinger-Virasoro family TSV(a, b) with an odd
            generator Y (half-integer labels) and a central-type M.
* ``tsvc``  the one-parameter twisted family TSV(c).

Each preset is one row of the ``_PRESETS`` table: its generators, with the
metadata truncations need (label offsets, filtration shifts), its parameter
names, its bracket table written with the d, x and parameter polynomials,
and a closed formula for its coefficient-algebra bracket, used to
cross-check the general binomial expansion.  ``instantiate`` is the one
builder: it registers the parameters in the order listed, splits each
coefficient once with ``split_terms`` and hands the term lists to
``ConformalAlgebra``, as ``specialize`` does.  The closed formula is a
function of the structure parameters (keyword arguments by name) returning
one rule per ordered generator pair; a rule maps the labels (m, n) to
``{(target generator, shift): coefficient}`` for the target label
m + n + shift.  The rules use plain arithmetic (sums, products, division
by a rational), so they accept rational labels and parameter values as well
as the formal label polynomials of ``compare_closed_form``.  Each coefficient
is a polynomial of degree <= 2 in the labels, so ``compare_closed_form``
checks a rule as one identity in formal m and n, which holds at every label.
``rank1_module`` builds the standard modules: the Virasoro generator acts by
d + alpha*x + beta and at most one other generator can act by a constant
gamma, precisely when the module identity allows it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import BindingError, DefinitionError, ParseError, UnsupportedError
from .poly import Poly, Registry, parse_rational, split_terms
from .algebra import ConformalAlgebra, Generator, exact_rational
from .modules import Rank1Action, check_module


def _closed_form(rules):
    """Complete per-pair label rules: a missing pair is the mirrored rule
    with its labels swapped and its sign flipped."""
    out = dict(rules)
    for (g, h), rule in rules.items():
        if (h, g) not in out:
            out[(h, g)] = lambda m, n, rule=rule: {t: -c for t, c in rule(n, m).items()}
    return out


# Generators are frozen and compare by value, so the presets share them.
_L = Generator("L", Fraction(1), Fraction(0))
_W = Generator("W", Fraction(0), Fraction(0))
_Y = Generator("Y", Fraction(1, 2), Fraction(1, 2))
_M = Generator("M", Fraction(0), Fraction(0))


def _witt(m, n):
    return {("L", 0): m - n}


def _abelian(m, n):
    return {}


# A row is (generators, parameter names, table, rules).  ``table`` maps the
# d, x and parameter polynomials to {pair: {generator: coefficient}}, and
# ``rules`` maps the parameter values to one closed rule per pair given.
_PRESETS = {
    "vir": ((_L,), (), lambda d, x: {("L", "L"): {_L: d + 2 * x}},
            lambda: {("L", "L"): _witt}),
    "w": ((_L, _W), ("a", "b"), lambda d, x, a, b: {
        ("L", "L"): {_L: d + 2 * x},
        ("L", "W"): {_W: d + a * x + b},
        ("W", "W"): {},
    }, lambda a, b: {
        ("L", "L"): _witt,
        ("L", "W"): lambda m, n: {("W", 0): (a - 1) * (m + 1) - n, ("W", 1): b},
        ("W", "W"): _abelian,
    }),
    "wb": ((_L, _W), ("b",), lambda d, x, b: {
        ("L", "L"): {_L: d + 2 * x},
        ("L", "W"): {_W: d + (1 - b) * x},
        ("W", "W"): {},
    }, lambda b: {
        ("L", "L"): _witt,
        ("L", "W"): lambda m, n: {("W", 0): -b * (m + 1) - n},
        ("W", "W"): _abelian,
    }),
    "tsv": ((_L, _Y, _M), ("a", "b"), lambda d, x, a, b: {
        ("L", "L"): {_L: d + 2 * x},
        ("L", "Y"): {_Y: d + a * x + b},
        ("L", "M"): {_M: d + 2 * (a - 1) * x + 2 * b},
        ("Y", "Y"): {_M: d + 2 * x},
        ("Y", "M"): {},
        ("M", "M"): {},
    }, lambda a, b: {
        ("L", "L"): _witt,
        ("L", "Y"): lambda m, p: {("Y", 0): (a - 1) * (m + 1) - (p + Fraction(1, 2)), ("Y", 1): b},
        ("L", "M"): lambda m, n: {("M", 0): (2 * a - 3) * (m + 1) - n, ("M", 1): 2 * b},
        ("Y", "Y"): lambda p, q: {("M", 0): p - q},
        ("Y", "M"): _abelian,
        ("M", "M"): _abelian,
    }),
    "tsvc": ((_L, _Y, _M), ("c",), lambda d, x, c: {
        ("L", "L"): {_L: d + 2 * x},
        ("L", "Y"): {_Y: d + Fraction(3, 2) * x + c},
        ("L", "M"): {_M: d + 2 * c},
        ("Y", "Y"): {_M: (d + 2 * x) * (-d - 2 * c)},
        ("Y", "M"): {},
        ("M", "M"): {},
    }, lambda c: {
        ("L", "L"): _witt,
        ("L", "Y"): lambda m, p: {("Y", 0): m / 2 - p, ("Y", 1): c},
        ("L", "M"): lambda m, n: {("M", 0): -(m + 1) - n, ("M", 1): 2 * c},
        ("Y", "Y"): lambda p, q: {("M", -1): (p - q) * (p + q), ("M", 0): 2 * c * (q - p)},
        ("Y", "M"): _abelian,
        ("M", "M"): _abelian,
    }),
}

PRESET_NAMES = tuple(_PRESETS)


def instantiate(name: str, bindings: Mapping[str, Fraction | int] | None = None
                ) -> ConformalAlgebra:
    """A fresh copy of a preset, optionally with parameters bound: the
    preset's row is built once and ``specialize`` binds its stored terms."""
    if name not in _PRESETS:
        raise DefinitionError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    generators, names, table, rules = _PRESETS[name]
    reg = Registry()
    params = tuple(reg.param(p) for p in names)
    entries = table(*(Poly.from_var(reg, v) for v in (reg.d, reg.x, *params)))
    # every entry names at most one generator, so it is in ``items`` order
    terms = {pair: [(g, split_terms(c)) for g, c in e.items()] for pair, e in entries.items()}
    alg = ConformalAlgebra(name, reg, generators, terms, params,
                           closed_ann_form=lambda **values: _closed_form(rules(**values)))
    return alg if bindings is None else alg.specialize(bindings)


# ---- standard rank-one modules -------------------------------------------------


def zero_module(alg: ConformalAlgebra) -> Rank1Action:
    reg = alg.registry
    return Rank1Action(alg, {g.name: Poly.zero(reg) for g in alg.generators})


def gamma_carrier(alg: ConformalAlgebra) -> Generator | None:
    """The generator (if any) that may act by a free constant alongside the
    standard Virasoro action, decided by the module identity itself."""
    virasoro = alg.virasoro_generator
    if virasoro is None:
        raise UnsupportedError(f"{alg.name} has no generator with a Virasoro bracket")
    reg = alg.registry
    d, x = (Poly.from_var(reg, v) for v in (reg.d, reg.x))
    alpha, beta, gamma = (Poly.from_var(reg, reg.param(n)) for n in ("alpha", "beta", "gamma"))
    carriers = []
    for g in alg.generators:
        if g.name == virasoro.name:
            continue
        actions = {h.name: Poly.zero(reg) for h in alg.generators}
        actions[virasoro.name] = d + alpha * x + beta
        actions[g.name] = gamma
        if check_module(alg, actions).passed:
            carriers.append(g)
    if len(carriers) > 1:
        raise UnsupportedError(f"{alg.name} admits several constant carriers; "
                               f"name the intended module explicitly")
    return carriers[0] if carriers else None


def rank1_module(alg: ConformalAlgebra, alpha, beta, gamma=None) -> Rank1Action:
    """The standard module: the Virasoro generator acts by d + alpha*x +
    beta, the constant carrier (when one exists) acts by gamma, everything
    else by zero.

    alpha, beta, gamma may be values ``exact_rational`` accepts, or the
    strings "alpha", "beta", "gamma" for formal values.  Passing gamma to
    an algebra whose parameters admit no constant carrier is an error.
    """
    if alg.params:
        raise BindingError(f"bind the structure parameters of {alg.name} first")
    virasoro = alg.virasoro_generator
    if virasoro is None:
        raise UnsupportedError(f"{alg.name} has no generator with a Virasoro bracket")
    reg = alg.registry

    def value(token, name):
        if isinstance(token, str):
            if token != name:
                raise DefinitionError(f"formal value for {name} must be {name!r}")
            return Poly.from_var(reg, reg.param(name))
        return Poly.const(reg, exact_rational(name, token))

    d, x = (Poly.from_var(reg, v) for v in (reg.d, reg.x))
    actions = {g.name: Poly.zero(reg) for g in alg.generators}
    actions[virasoro.name] = d + value(alpha, "alpha") * x + value(beta, "beta")
    if gamma is not None:
        carrier = gamma_carrier(alg)
        if carrier is None:
            raise BindingError(
                f"{alg.name} with these parameters admits no constant carrier; "
                f"omit gamma")
        actions[carrier.name] = value(gamma, "gamma")
    return Rank1Action(alg, actions)


def named_module(alg: ConformalAlgebra, spec: str) -> Rank1Action:
    """Parse a module name: ``zero``/``trivial``, ``M_<alpha>_<beta>`` or
    ``M_<alpha>_<beta>_<gamma>`` with rational or formal components, for
    example ``M_0_2``, ``M_1/2_-1_3`` or ``M_alpha_beta_gamma``.

    A component other than its own name is read by ``parse_rational``, as
    ``--param`` values are: ``M_1.5_0`` is ``M_3/2_0`` and ``M_1e3_0`` is
    ``M_1000_0``."""
    text = spec.strip()
    if text in ("zero", "trivial"):
        return zero_module(alg)
    parts = text.split("_")
    if parts[0] != "M" or len(parts) not in (3, 4):
        raise ParseError(
            f"cannot read module name {spec!r}; use zero, M_<alpha>_<beta> or "
            f"M_<alpha>_<beta>_<gamma>")

    def token(raw, name):
        if raw == name:
            return raw
        try:
            return parse_rational(raw)
        except ValueError:
            raise ParseError(f"bad value {raw!r} for {name} in {spec!r}") from None

    alpha = token(parts[1], "alpha")
    beta = token(parts[2], "beta")
    gamma = token(parts[3], "gamma") if len(parts) == 4 else None
    return rank1_module(alg, alpha, beta, gamma)
