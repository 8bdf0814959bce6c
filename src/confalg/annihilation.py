"""Annihilation algebras of lambda-bracket tables and their truncations.

The coefficient algebra of a conformal algebra has basis symbols g_(t) for
each generator g and internal index t = 0, 1, 2, ...; its Lie bracket is

    [a_(m), b_(n)] = sum_j binom(m, j) (a_(j) b)_(m + n - j)

where a_(j) b is the j-th product and a d-power inside a coefficient reduces
by (d^e k)_(t) = (-1)^e t (t-1) ... (t-e+1) k_(t-e).  The falling factorial
vanishes for e > t, so indices never go negative.  Basis symbols are exposed
through labels (internal index minus the generator's label offset), which is
the indexing used by the closed bracket formulas.

The translation generator acts by [d, g_(t)] = -t g_(t-1); adjoining it gives
the extended algebra.  Labels minus the filtration shift grade a filtration:
brackets never decrease total degree (``filtration_check`` decides this once
per expansion term), and d lowers degree by one.  Truncating at depth N
(degrees 0 to N-1) yields a finite-dimensional Lie algebra whose solvability
is decided exactly over the rationals.

Every reader takes a table entry as ``_pair_terms`` lists it, flattened
from the algebra's ``entry_terms``, split once when it was built: one term
c x^j d^e rest k at a time, with rest a parameter monomial (empty at bound
parameters) and c an int while it is integral.  The truncation applies the
binomial and falling-factorial rule to these scalars in integer index
arithmetic; ``ann_bracket`` and ``expanded_sums`` apply the
same rule and group the sums by target symbol, sorted once per label pair.
``render_sums`` spells such a bracket from the sums, with no ``AnnElement``
and no polynomial.

A closed bracket formula is checked for every label at once: with M and N
the internal indices of g_m and h_n, an expansion term of [g_x h] with
coefficient c on x^j d^e k contributes c (M)_j (M + N - j)_e (-1)^e to
k_(M + N - j - e), where (.)_j is the falling factorial.  This is a
polynomial in the labels that vanishes exactly where the rule skips a term,
so one identity in formal labels per generator pair proves the formula.
The closed rules run on ``_LabelPoly`` labels and parameters, so both sides
of the identity are dicts of rationals and no ``Poly`` is multiplied.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import BindingError, DefinitionError, LabelError, UnsupportedError
from .poly import (PARAMETER, TEXT, Combination, Poly, Spelling, mono_mul,
                   render_terms, scaled, signed_sum)
from .algebra import ConformalAlgebra, Generator, is_exact_rational
from .solve import integer_echelon


@dataclass(frozen=True)
class AnnBasis:
    """Basis symbol g_(label) of the coefficient algebra."""

    gen: Generator
    label: Fraction

    def __post_init__(self):
        if not is_exact_rational(self.label):
            raise LabelError(f"{self.gen.name} label {self.label!r} is not an int or a Fraction")
        object.__setattr__(self, "label", Fraction(self.label))
        internal = self.label + self.gen.label_offset
        if internal.denominator != 1 or internal < 0:
            raise LabelError(
                f"{self.gen.name} label {self.label} gives internal index {internal}; "
                f"labels must be offset-shifted nonnegative integers")

    def __hash__(self) -> int:
        # the dataclass hash would rehash the generator's and the label's
        # Fractions on every dict lookup
        return hash((self.gen.name, self.label.numerator, self.label.denominator))

    @property
    def internal(self) -> int:
        return int(self.label + self.gen.label_offset)

    @property
    def degree(self) -> Fraction:
        return self.label - self.gen.filtration_shift

    def __str__(self) -> str:
        return f"{self.gen.name}_{self.label}"


_TEXT_GROUP = "({})*{}"


class AnnElement(Combination):
    """Finite rational-coefficient combination of coefficient-algebra symbols.

    Coefficients are polynomials in the declared parameters only, so bracket
    tables can be compared symbolically before parameters are bound; a
    constant may also be given as an int or a Fraction
    (``algebra.is_exact_rational``).  Terms are listed by generator name,
    then label, and rendered as a signed sum.
    """

    __slots__ = ()

    def _coefficient(self, basis: AnnBasis, c: Poly | Fraction | int) -> Poly:
        if not isinstance(c, Poly):
            if not is_exact_rational(c):
                raise DefinitionError(f"coefficient of {basis} is {c!r}, not a Poly, an int "
                                      f"or a Fraction")
            c = Poly.const(self.registry, c)
        p = super()._coefficient(basis, c)
        for v in p.variables():
            if v.kind != PARAMETER:
                raise DefinitionError(
                    f"coefficient of {basis} uses {v.name}; only parameters are allowed")
        return p

    @staticmethod
    def _order(basis: AnnBasis) -> tuple[str, Fraction]:
        return (basis.gen.name, basis.label)

    def render(self) -> str:
        return signed_sum(self.rendered_terms(group=_TEXT_GROUP))


def _as_ann_element(alg: ConformalAlgebra, value) -> AnnElement:
    if isinstance(value, AnnBasis):
        return AnnElement.of(alg.registry, value)
    if isinstance(value, AnnElement):
        return value
    raise DefinitionError(f"expected an AnnBasis or AnnElement, got {type(value).__name__}")


def _check_membership(alg: ConformalAlgebra, elem: AnnElement) -> None:
    for basis, _ in elem.items():
        if alg.gen(basis.gen.name) != basis.gen:
            raise DefinitionError(f"{basis} does not belong to {alg.name}")


def _pair_terms(alg: ConformalAlgebra, gname: str, hname: str) -> list:
    """The table entry [g_x h] as its terms (j, (kname, rest), e, c) for
    c x^j d^e rest k: kname the name of generator k, rest a monomial in
    parameters and c an int while it is integral, flattened from the entry's
    stored ``entry_terms``.  Keys hold the name, whose hash is a str's."""
    return [(j, (k.name, rest), e, c)
            for k, p_terms in alg.entry_terms(gname, hname) for e, j, rest, c in p_terms]


def _coefficient_terms(expansion, m: int, n: int) -> dict:
    """[a_(m), b_(n)] for internal indices m, n from one generator pair's
    expansion given as scalar (j, key, e, c) terms, as ``{(key, internal
    index): coefficient}``: the key is a generator position for
    ``truncated_quotient``, or a (generator name, parameter monomial) pair
    of ``_pair_terms``.  A key whose terms cancel is kept with a zero sum."""
    out = {}
    for j, k, e, c in expansion:
        t = m + n - j
        if j > m or e > t:
            continue
        # the j-th product is j! times the x^j coefficient
        term = c * (math.comb(m, j) * math.perm(t, e) * (-1) ** e * math.factorial(j))
        key = (k, t - e)
        out[key] = out[key] + term if key in out else term
    return out


def _target_sums(expansion, m: int, n: int) -> list:
    """[a_(m), b_(n)] from a pair's ``_pair_terms`` as ``[((target generator
    name, internal index), {parameter monomial: coefficient})]``, sorted as
    ``AnnElement`` lists its terms.  Zero sums are left out, and so is a
    target whose sums all cancel."""
    groups: dict = {}
    for ((kname, rest), t), c in _coefficient_terms(expansion, m, n).items():
        if c:
            groups.setdefault((kname, t), {})[rest] = c
    return sorted(groups.items(), key=lambda item: item[0])


def _coefficient_poly(reg, terms: Mapping) -> Poly:
    """The polynomial of one target's nonzero ``{parameter monomial: c}``."""
    return Poly(reg, {rest: c if type(c) is Fraction else Fraction(c)
                      for rest, c in terms.items()}, _normalized=True)


def _element(reg, sums) -> AnnElement:
    return AnnElement(reg, {target: _coefficient_poly(reg, terms) for target, terms in sums})


def render_sums(reg, sums, spelling: Spelling = TEXT, symbol=str, group: str = _TEXT_GROUP) -> str:
    """A bracket given as ``expanded_sums`` lists it, spelled as the
    ``AnnElement`` built from it renders (``symbol`` spells a target
    ``AnnBasis``, ``group`` joins a non-constant coefficient to it), with no
    ``Poly`` built: a coefficient is spelled from its sums by ``scaled`` or,
    with a parameter monomial, by ``render_terms``."""
    return signed_sum(
        scaled(terms[()], symbol(target), spelling) if len(terms) == 1 and () in terms
        else group.format(render_terms(reg, terms, spelling), symbol(target))
        for target, terms in sums)


def ann_bracket(alg: ConformalAlgebra, left, right) -> AnnElement:
    """Lie bracket in the coefficient algebra, by the binomial expansion of
    the lambda-bracket table with falling-factorial reduction of d-powers.
    A coefficient of 1 on either side, as a basis element has, is not
    multiplied by."""
    left = _as_ann_element(alg, left)
    right = _as_ann_element(alg, right)
    _check_membership(alg, left)
    _check_membership(alg, right)
    reg = alg.registry
    acc: dict[AnnBasis, Poly] = {}
    expansions: dict[tuple[str, str], list] = {}
    for abasis, ca in left.items():
        for bbasis, cb in right.items():
            factors = [p for p in (ca, cb) if p != 1]
            pair = (abasis.gen.name, bbasis.gen.name)
            if pair not in expansions:
                expansions[pair] = _pair_terms(alg, *pair)
            for (kname, t), terms in _target_sums(expansions[pair], abasis.internal,
                                                  bbasis.internal):
                k = alg.gen(kname)
                target = AnnBasis(k, Fraction(t) - k.label_offset)
                c = _coefficient_poly(reg, terms)
                for p in factors:
                    c = c * p
                acc[target] = acc[target] + c if target in acc else c
    return AnnElement(reg, acc)


def partial_action(alg: ConformalAlgebra, value) -> AnnElement:
    """Action of the translation generator: [d, g_(t)] = -t g_(t-1)."""
    elem = _as_ann_element(alg, value)
    _check_membership(alg, elem)
    reg = alg.registry
    acc: dict[AnnBasis, Poly] = {}
    for basis, c in elem.items():
        t = basis.internal
        if t == 0:
            continue
        target = AnnBasis(basis.gen, basis.label - 1)
        acc[target] = acc.get(target, Poly.zero(reg)) + c * Fraction(-t)
    return AnnElement(reg, acc)


def _label_bound(max_label) -> Fraction:
    """``max_label`` as a bound on labels; it must be ``is_exact_rational``."""
    if not is_exact_rational(max_label):
        raise LabelError(f"label bound {max_label!r} is not an int or a Fraction")
    return Fraction(max_label)


def labels_through(gen: Generator, max_label: Fraction | int) -> list[Fraction]:
    """All valid labels of ``gen`` that do not exceed ``max_label``."""
    top = math.floor(_label_bound(max_label) + gen.label_offset)
    return [Fraction(t) - gen.label_offset for t in range(top + 1)]


def _pair_sums(alg: ConformalAlgebra, g: Generator, h: Generator, expansion,
               max_label: Fraction | int):
    """Yield ``(m, n, sums)`` for all labels up to ``max_label`` from the
    ``_pair_terms`` expansion of the pair ``(g, h)``: the ``_target_sums``
    of [g_m, h_n] with each target an ``AnnBasis``, built once per pair."""
    right = [(n, int(n + h.label_offset)) for n in labels_through(h, max_label)]
    targets: dict = {}
    for m in labels_through(g, max_label):
        internal = int(m + g.label_offset)
        for n, other in right:
            sums = []
            for key, terms in _target_sums(expansion, internal, other):
                target = targets.get(key)
                if target is None:
                    kname, t = key
                    k = alg.gen(kname)
                    target = targets[key] = AnnBasis(k, t - k.label_offset)
                sums.append((target, terms))
            yield m, n, sums


def expanded_sums(alg: ConformalAlgebra, max_label: Fraction | int):
    """Yield ``(g, m, h, n, sums)`` for every ordered generator pair (in
    ``alg.ordered_pairs()`` order) and all labels up to ``max_label``, with
    [g_m, h_n] as ``[(target AnnBasis, {parameter monomial: coefficient})]``
    in ``AnnElement`` order, nonzero coefficients only.  Each pair's table
    entry is split into terms once; every label pair applies the coefficient
    rule of ``ann_bracket`` to that expansion."""
    _label_bound(max_label)
    for g in alg.generators:
        for h in alg.generators:
            for m, n, sums in _pair_sums(alg, g, h, _pair_terms(alg, g.name, h.name),
                                         max_label):
                yield g, m, h, n, sums


class _LabelPoly:
    """A polynomial in formal labels m, n and the parameters, as
    ``{(power of m, power of n, parameter monomial): coefficient}`` with int
    or Fraction coefficients, none zero.  It has the arithmetic a closed rule
    applies to its labels and unbound parameters: sums, differences,
    products and division by a rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping):
        self.terms = {key: c for key, c in terms.items() if c}

    @staticmethod
    def terms_of(value) -> dict | None:
        """The terms of a ``_LabelPoly`` or a rational; None for any other
        value."""
        if isinstance(value, _LabelPoly):
            return value.terms
        if isinstance(value, (int, Fraction)):
            return {(0, 0, ()): value} if value else {}
        return None

    def __add__(self, other):
        terms = self.terms_of(other)
        if terms is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in terms.items():
            out[key] = out.get(key, 0) + c
        return _LabelPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _LabelPoly({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        terms = self.terms_of(other)
        if terms is None:
            return NotImplemented
        return self + _LabelPoly({key: -c for key, c in terms.items()})

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = self.terms_of(other)
        if terms is None:
            return NotImplemented
        out: dict = {}
        for (i, k, rest), c in self.terms.items():
            for (i2, k2, rest2), c2 in terms.items():
                key = (i + i2, k + k2, mono_mul(rest, rest2))
                out[key] = out.get(key, 0) + c * c2
        return _LabelPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))


def _closed_rules(alg: ConformalAlgebra) -> dict:
    """The algebra's closed-form rules per ordered generator-name pair, with
    bound parameters at their values and unbound ones formal ``_LabelPoly``
    parameters."""
    if alg.closed_ann_form is None:
        raise UnsupportedError(f"{alg.name} has no closed bracket formula attached")
    values: dict = {v.name: _LabelPoly({(0, 0, ((v.index, 1),)): 1}) for v in alg.params}
    values.update(alg.param_values)
    return alg.closed_ann_form(**values)


def _rule_terms(coeff) -> dict:
    """The ``_LabelPoly`` terms of one coefficient a closed rule returned."""
    terms = _LabelPoly.terms_of(coeff)
    if terms is None:
        raise DefinitionError(f"closed-form coefficient {coeff!r} is neither a rational nor a "
                              f"polynomial in the labels and parameters")
    return terms


def _closed_bracket(alg: ConformalAlgebra, rule, m: Fraction, n: Fraction) -> AnnElement:
    """[g_m, h_n] from the pair's closed ``rule`` at rational labels."""
    reg = alg.registry
    terms = {}
    for (kname, shift), coeff in rule(m, n).items():
        coeffs = {rest: c for (_, _, rest), c in _rule_terms(coeff).items()}
        if coeffs:
            terms[AnnBasis(alg.gen(kname), m + n + shift)] = _coefficient_poly(reg, coeffs)
    return AnnElement(reg, terms)


def _integral(q: Fraction) -> int | Fraction:
    """``q`` as an int when it is integral, so that sums and products with
    it, and hashes of keys holding it, stay in int arithmetic."""
    return q.numerator if q.denominator == 1 else q


def _falling(value, k: int):
    """The falling factorial value (value - 1) ... (value - k + 1) of k factors."""
    return math.prod((value - i for i in range(k)), start=1)


def _identity_holds(alg: ConformalAlgebra, g: Generator, h: Generator, expansion,
                    rule) -> bool:
    """Whether one pair's ``_pair_terms`` expansion equals its closed rule as
    polynomials in formal labels m and n, compared as rationals keyed by
    (target, shift, power of m, power of n, parameter monomial) with target
    label m + n + shift.  The rule's terms are read once, and the label
    factor of each (j, e) is formed once from its linear factors."""
    m, n = _LabelPoly({(1, 0, ()): 1}), _LabelPoly({(0, 1, ()): 1})
    left = m + _integral(g.label_offset)
    total = left + n + _integral(h.label_offset)
    base = _integral(g.label_offset + h.label_offset)
    diff: dict = {}
    for (kname, shift), coeff in rule(m, n).items():
        for (i, k, rest), c in _rule_terms(coeff).items():
            key = (kname, shift, i, k, rest)
            diff[key] = diff.get(key, 0) - c
    factors: dict = {}
    offsets = {k.name: _integral(k.label_offset) for k in alg.generators}
    for j, (kname, rest), e, c in expansion:
        factor = factors.get((j, e))
        if factor is None:
            factor = factors[j, e] = _LabelPoly.terms_of(
                _falling(left, j) * _falling(total - j, e) * (-1) ** e)
        shift = base - j - e - offsets[kname]
        for (i, power, _), v in factor.items():
            key = (kname, shift, i, power, rest)
            diff[key] = diff.get(key, 0) + c * v
    return not any(diff.values())


def compare_closed_form(alg: ConformalAlgebra, max_label: Fraction | int = 10) -> list[str]:
    """Check the expanded bracket against the algebra's closed formulas.

    Each ordered generator pair is expanded once and compared with its closed
    rule as one polynomial identity in formal labels m and n: an expansion
    term c x^j d^e k of [g_x h] gives c (M)_j (M + N - j)_e (-1)^e at target
    k and shift off_g + off_h - j - e - off_k, with M = m + off_g,
    N = n + off_h and (.)_j the falling factorial.  At nonnegative internal
    indices the falling factorials vanish exactly where the expansion skips a
    term, so a pair whose identity holds matches at every label.  Only a pair
    whose identity fails is compared label by label, up to ``max_label`` in
    ``expanded_sums`` order, and if none of those labels disagrees, one
    line names the pair and the bound.  Returns those lines, empty exactly
    when the formulas match; ``max_label`` bounds only which mismatches are
    listed.  The rules are built once per call.
    """
    _label_bound(max_label)
    rules = _closed_rules(alg)
    reg = alg.registry
    mismatches = []
    for g in alg.generators:
        for h in alg.generators:
            expansion = _pair_terms(alg, g.name, h.name)
            rule = rules[(g.name, h.name)]
            if _identity_holds(alg, g, h, expansion, rule):
                continue
            listed = len(mismatches)
            for m, n, sums in _pair_sums(alg, g, h, expansion, max_label):
                got = _element(reg, sums)
                want = _closed_bracket(alg, rule, m, n)
                if got != want:
                    mismatches.append(f"[{g.name}_{m}, {h.name}_{n}]: expansion {got.render()} "
                                      f"!= closed form {want.render()}")
            if len(mismatches) == listed:
                mismatches.append(f"[{g.name}_x {h.name}]: expansion != closed form "
                                  f"at a label above {max_label}")
    return mismatches


def filtration_check(alg: ConformalAlgebra) -> list[str]:
    """Verify the degree filtration, one inequality per expansion term.

    With off the label offset and sh the filtration shift, a term c x^j d^e k
    of [g_x h] sends g_m, h_n to k at degree deg(g_m) + deg(h_n) + drop, with
    drop = off_g + sh_g + off_h + sh_h - off_k - sh_k - j - e at every label.
    Its contribution c (M)_j (M + N - j)_e (-1)^e is nonzero at all large
    enough internal indices M, N, and terms with the same target and j + e
    have different degrees e in N, so they cannot cancel at every label.
    Returns one violation per target k, j and e with drop < 0, however many
    parameter monomials its coefficient has, in ``ordered_pairs`` order and
    then by the name of k, j and e."""
    violations = []
    levels = {k.name: k.label_offset + k.filtration_shift for k in alg.generators}
    for gname, hname in alg.ordered_pairs():
        base = levels[gname] + levels[hname]
        drops = {(kname, j, e, base - levels[kname] - j - e)
                 for j, (kname, _), e, _ in _pair_terms(alg, gname, hname)}
        violations += [f"[{gname}_x {hname}] term x^{j} d^{e} {kname}: drop {drop}"
                       for kname, j, e, drop in sorted(drops) if drop < 0]
    return violations


# ---- finite quotients -------------------------------------------------------


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _nonzeros(vector: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """The (index, coeff) pairs of the nonzero entries of a dense vector."""
    return [(i, c) for i, c in enumerate(vector) if c]


class FiniteLie:
    """A finite-dimensional Lie algebra over Q given by structure constants.

    The basis is a sequence of (generator name, label) pairs.  Brackets are
    given for index pairs i < j.  Labels and structure constants must be
    ``is_exact_rational``, so a float, bool or str is a ``DefinitionError``
    rather than a rational read by ``Fraction``'s own rules.  The table is
    kept once, in integers: with D the lcm of the denominators of all
    structure constants, ``_ad[i][j]`` is ``{k: D * coeff}`` for both orders
    of every nonzero pair (the reversed one negated), so D [e_i, e_j] is one
    lookup.  Serialization, equality and ``bracket_vectors`` divide by D on
    the way out.

    Scaling the bracket by D changes no span, and it multiplies every
    Jacobiator by D^2, so the Jacobi re-check and the derived and lower
    central series run on the integer table alone: vectors are sparse
    (index, coeff) pairs with integer entries, and each span is reduced by
    ``integer_echelon``.  Both touch only brackets that can be nonzero: the
    Jacobi re-check walks the stored pairs and the rows of their targets,
    so a triple whose double brackets all vanish is never formed, and both
    series read [g, g] off the stored rows without bracketing basis pairs.
    A later step brackets rows of an echelon basis, and two rows of one
    entry each, as in every series of the presets' truncations, bracket to
    a stored row times the product of their entries: the row itself, not a
    copy, when that product is 1.  The table's rows are therefore read-only
    to every reader, ``integer_echelon`` included.  In any bilinear
    algebra each term of the derived and of the lower central series lies
    in the one before it (by induction, without the Jacobi identity), so a
    series step stops reading brackets once its rank reaches the dimension
    of the space it started from: that space is then reached again and the
    series is stable.

    The labels, scaled by the lcm of their denominators, grade the basis in
    integers deg_i, and delta is the least deg_k - deg_i - deg_j over the
    stored nonzero constants c_ij^k, read off the table itself.  With F_p
    the span of the basis vectors of degree >= p, every table then has
    [F_p, F_q] in F_{p+q+delta}, whether or not it respects a filtration.
    So two vectors whose lowest degrees sum to more than max(deg) - delta
    bracket to zero: a series step sorts its rows by lowest degree and
    brackets each row only with the rows below that bound.
    """

    def __init__(self, basis: Sequence[tuple[str, Fraction]],
                 brackets: Mapping[tuple[int, int], Mapping[int, Fraction]]):
        basis = tuple(basis)
        for name, label in basis:
            if not isinstance(name, str):
                raise DefinitionError(f"basis generator name {name!r} is not a string")
            if not is_exact_rational(label):
                raise DefinitionError(
                    f"basis label {label!r} of {name} is not an int or a Fraction")
        self.basis = tuple((name, Fraction(label)) for name, label in basis)
        if len(set(self.basis)) != len(self.basis):
            raise DefinitionError("duplicate basis symbols")
        dim = len(self.basis)
        table = {}
        for (i, j), terms in brackets.items():
            if not (_is_index(i) and _is_index(j) and 0 <= i < j < dim):
                raise DefinitionError(
                    f"bracket indices ({i!r},{j!r}) must be integers with 0 <= i < j < dim")
            for k, c in terms.items():
                if not is_exact_rational(c):
                    raise DefinitionError(f"bracket ({i},{j}) has coefficient {c!r} at {k!r}, "
                                          f"not an int or a Fraction")
            cleaned = {k: c for k, c in terms.items() if c}
            for k in cleaned:
                if not (_is_index(k) and 0 <= k < dim):
                    raise DefinitionError(f"bracket ({i},{j}) targets invalid index {k!r}")
            if cleaned:
                table[(i, j)] = cleaned
        # an int has numerator and denominator too, so no constant is
        # converted to a Fraction on its way into the integer table
        scale = math.lcm(*(c.denominator for terms in table.values() for c in terms.values()))
        ad: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for (i, j), terms in table.items():
            ints = {k: c.numerator * (scale // c.denominator) for k, c in terms.items()}
            ad[i][j] = ints
            ad[j][i] = {k: -c for k, c in ints.items()}
        self._scale = scale
        self._ad = ad
        unit = math.lcm(*(label.denominator for _, label in self.basis))
        degrees = [label.numerator * (unit // label.denominator) for _, label in self.basis]
        delta = min((degrees[k] - degrees[i] - degrees[j]
                     for (i, j), terms in table.items() for k in terms), default=0)
        self._degrees = degrees
        # two vectors whose lowest degrees sum past this bracket to zero
        self._reach = max(degrees, default=0) - delta

    @property
    def dim(self) -> int:
        return len(self.basis)

    def symbol(self, index: int) -> str:
        name, label = self.basis[index]
        return f"{name}_{label}"

    def nonzero_brackets(self) -> list[tuple[tuple[int, int], list[tuple[int, Fraction]]]]:
        """Stored bracket table as ((i, j), [(k, coeff), ...]) rows, sorted."""
        scale = self._scale
        return [((i, j), [(k, Fraction(c, scale)) for k, c in sorted(row[j].items())])
                for i, row in enumerate(self._ad) for j in sorted(row) if i < j]

    def _bracket(self, u, v) -> dict:
        """D [u, v] for vectors given as (index, coeff) pairs; zero entries
        are dropped from the result.

        For two one-entry vectors, the shape of every bracket in the
        presets' series, D [c e_i, c' e_j] is c c' times the stored row
        ``_ad[i][j]``: that row itself when c c' is 1, which the caller must
        not write to (the series only hand it to ``integer_echelon``, which
        writes to no input), and a scaled copy otherwise."""
        if len(u) == 1 and len(v) == 1:
            (i, ci), = u
            (j, cj), = v
            terms = self._ad[i].get(j)
            cij = ci * cj
            if not terms or not cij:
                return {}
            return terms if cij == 1 else {k: cij * c for k, c in terms.items()}
        out = {}
        for i, ci in u:
            row = self._ad[i]
            if not row:
                continue
            for j, cj in v:
                terms = row.get(j)
                if terms:
                    cij = ci * cj
                    for k, c in terms.items():
                        out[k] = out.get(k, 0) + cij * c
        return {k: c for k, c in out.items() if c}

    def bracket_vectors(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for k, c in self._bracket(_nonzeros(u), _nonzeros(v)).items():
            out[k] = Fraction(c, self._scale)
        return out

    def check_jacobi(self) -> list[str]:
        """Basis triples whose Jacobiator [x,[y,z]] + [y,[z,x]] + [z,[x,y]]
        is nonzero, in sorted order, read off the integer table as D^2 times
        the Jacobiator.

        Every term of a Jacobiator is a double bracket [e_x, [e_y, e_z]] with
        y < z and x neither, and it is zero unless [e_y, e_z] is stored and
        one of its targets m has [e_x, e_m] stored.  So one pass over the
        stored pairs, their targets and the row of each target visits each
        nonzero term once, and a triple none of whose terms is nonzero is
        never formed.  The term enters the triple's sum with sign -1 exactly
        when y < x < z, where it is -[e_j, [e_k, e_i]] of the sorted triple
        i < j < k; otherwise it is [e_i, [e_j, e_k]] or [e_k, [e_i, e_j]].
        """
        ad = self._ad
        totals: dict[tuple[int, int, int], dict[int, int]] = {}
        for y, row in enumerate(ad):
            for z, inner in row.items():
                if z < y:
                    continue
                for m, c in inner.items():
                    # c [e_x, e_m] = -c [e_m, e_x], read off the row of m
                    for x, outer in ad[m].items():
                        if x < y:
                            key, sign = (x, y, z), -c
                        elif y < x < z:
                            key, sign = (y, x, z), c
                        elif z < x:
                            key, sign = (y, z, x), -c
                        else:
                            continue  # x is y or z
                        total = totals.setdefault(key, {})
                        for n, e in outer.items():
                            total[n] = total.get(n, 0) + sign * e
        return [f"({self.symbol(i)}, {self.symbol(j)}, {self.symbol(k)})"
                for (i, j, k), total in sorted(totals.items()) if any(total.values())]

    # ---- span arithmetic ----

    def _by_lowest_degree(self, space) -> tuple[list[int], list]:
        """The lowest degrees of the rows of ``space`` in ascending order,
        and the rows in that order."""
        degrees = self._degrees
        graded = sorted(((min(degrees[i] for i, _ in row), row) for row in space),
                        key=itemgetter(0))
        return [low for low, _ in graded], [row for _, row in graded]

    def _series_dims(self, step) -> list[int]:
        """Dimensions of g, [g, g] and the spaces reached from it by repeating
        ``step``, which maps a basis of sparse integer rows to brackets
        spanning the next space, a subspace of the current one.

        [g, g] is spanned by the brackets of basis pairs i < j, since
        [e_i, e_i] = 0 and [e_j, e_i] = -[e_i, e_j], and every nonzero one is
        a stored row of the table.  So the first term is one elimination of
        the table's rows and brackets nothing."""
        size = self.dim
        rows = (terms for i, row in enumerate(self._ad) for j, terms in row.items() if i < j)
        dims = [size]
        while True:
            current = [list(row.items()) for row in integer_echelon(rows, rank_bound=size)]
            dims.append(len(current))
            if not current or len(current) == size:
                return dims
            size = len(current)
            rows = filter(None, step(current))

    def derived_series(self) -> list[int]:
        """Dimensions of g, [g,g], [[g,g],[g,g]], ... until zero or stable."""
        def step(space):
            lows, rows = self._by_lowest_degree(space)
            for a, u in enumerate(rows):
                # rows from ``end`` on have lowest degrees too high to meet u's
                end = bisect_right(lows, self._reach - lows[a])
                if end <= a + 1:
                    return  # and so for every later row, whose bound is no higher
                for v in rows[a + 1:end]:
                    yield self._bracket(u, v)
        return self._series_dims(step)

    def lower_central_series(self) -> list[int]:
        """Dimensions of g, [g,g], [g,[g,g]], ... until zero or stable."""
        degrees = self._degrees
        basis = sorted(range(self.dim), key=degrees.__getitem__)

        def step(space):
            lows, rows = self._by_lowest_degree(space)
            for i in basis:
                end = bisect_right(lows, self._reach - degrees[i])
                if not end:
                    return  # and so for every later basis vector
                for v in rows[:end]:
                    yield self._bracket(((i, 1),), v)
        return self._series_dims(step)

    def is_solvable(self) -> tuple[bool, int | None]:
        """Whether the derived series reaches zero, and in how many steps."""
        dims = self.derived_series()
        if dims[-1] == 0:
            return True, len(dims) - 1
        return False, None

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1] == 0

    # ---- serialization ----

    def to_json(self) -> dict:
        brackets = [{"i": i, "j": j, "terms": [{"k": k, "coeff": str(c)} for k, c in terms]}
                    for (i, j), terms in self.nonzero_brackets()]
        return {
            "basis": [{"gen": name, "label": str(label)} for name, label in self.basis],
            "brackets": brackets,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteLie):
            return NotImplemented
        return (self.basis == other.basis and self._scale == other._scale
                and self._ad == other._ad)

    def __repr__(self) -> str:
        return f"FiniteLie(dim={self.dim})"


def truncated_quotient(alg: ConformalAlgebra, depth: int) -> FiniteLie:
    """Quotient of the nonnegative part of the coefficient algebra by the
    part of filtration degree >= depth, as a FiniteLie.

    Each generator contributes basis labels shift, shift+1, ..., shift+depth-1.
    Parameters must be bound beforehand, by ``specialize``.  Structure
    constants come from one ``_pair_terms`` expansion per generator pair,
    all scalar at bound parameters, fed to the same rule as ``ann_bracket``
    on plain internal indices.  A term c x^p d^e k of the
    pair's entry sends internal indices m, n to degree m + n - p - e - base_k,
    with base_k the internal index of k at degree 0, so a label pair whose
    m + n is at least depth + max(p + e + base_k) has every term at degree
    >= depth: its bracket is zero in the quotient and is not expanded.  Such
    a pair holds no term of negative degree either, so a table that lowers
    the filtration is still refused at its first offending pair.  The Jacobi
    identity of the result is re-checked after truncation.
    """
    if not _is_index(depth):
        raise ValueError(f"truncation depth must be an int, not {depth!r}")
    if depth < 1:
        raise ValueError("truncation depth must be at least 1")
    if alg.params:
        raise BindingError(f"{alg.name} has unbound parameters "
                           f"{sorted(v.name for v in alg.params)}")
    gens = alg.generators
    symbols = [AnnBasis(g, g.filtration_shift + k) for g in gens for k in range(depth)]
    # symbols[pos * depth + s] is generator ``pos`` at degree s, with internal
    # index base[pos] + s.
    internal = [s.internal for s in symbols]
    base = internal[::depth]
    position = {g.name: pos for pos, g in enumerate(gens)}
    expansions: dict[tuple[int, int], tuple[list, int]] = {}
    brackets = {}
    for i, a in enumerate(symbols):
        for j in range(i + 1, len(symbols)):
            pair = (i // depth, j // depth)
            if pair not in expansions:
                g, h = (gens[pos].name for pos in pair)
                expansion = [(p, position[kname], e, c)
                             for p, (kname, _), e, c in _pair_terms(alg, g, h)]
                # a term lands at degree m + n - (p + e + base[k]), so every
                # term is at degree >= depth once m + n reaches this bound (an
                # empty entry brackets to zero at every m + n >= 0)
                bound = max((depth + p + e + base[k] for p, k, e, _ in expansion), default=0)
                expansions[pair] = expansion, bound
            expansion, bound = expansions[pair]
            if internal[i] + internal[j] >= bound:
                continue
            raw = _coefficient_terms(expansion, internal[i], internal[j])
            terms = {}
            low = []
            for (k, t), c in raw.items():
                degree = t - base[k]
                if not c or degree >= depth:
                    continue
                if degree < 0:
                    low.append(AnnBasis(gens[k], Fraction(t) - gens[k].label_offset))
                else:
                    terms[k * depth + degree] = c
            if low:
                # the first offending term in AnnElement order, as ann_bracket lists them
                basis = min(low, key=AnnElement._order)
                raise DefinitionError(
                    f"[{a}, {symbols[j]}] has term {basis} of negative degree {basis.degree}")
            if terms:
                brackets[(i, j)] = terms
    finite = FiniteLie([(s.gen.name, s.label) for s in symbols], brackets)
    bad = finite.check_jacobi()
    if bad:
        raise DefinitionError(f"truncation broke the Jacobi identity at {bad[:3]}")
    return finite
