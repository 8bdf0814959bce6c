"""Finite Lie conformal algebras presented by lambda-bracket tables.

An algebra is a free C[d]-module over finitely many generators together with
a table of lambda-brackets [g_x h], one per ordered generator pair, each a
finite sum of generators with coefficients polynomial in d (the translation
generator), x (the bracket variable lambda) and declared parameters.  The
table must give every diagonal pair and every other pair in at least one
order; a missing order is completed by skew-symmetry, which in the
commutative polynomial model is the substitution x -> -x - d followed by
negation.  A pair given in both orders is kept as given, so a disagreement
shows up as a skew-symmetry residual.

Axioms checked here, with residuals reported per pair or triple:

* skew-symmetry      [g_x h] + ([h_x g] with x -> -x - d)  = 0
* Jacobi identity    [g_x [h_y k]] - [[g_x h]_{x+y} k] - [h_y [g_x k]] = 0

Both residuals are computed in closed form, with no ``Poly`` product or
substitution.  Table coefficients use only d, x and parameters, so each is
kept as terms c d^i x^j m (m a parameter monomial, c an int while it is
integral, see ``poly.split_terms``).  The skew image of a term is
-c d^i (-(x + d))^j, expanded by C(j, t); each double bracket of the Jacobi
identity is a product of two coefficients with some variables shifted, and
expands by binomials term by term (``_jacobi_residual`` lists the three).
The middle one's terms -p(-(x+y), x) r(d, x+y) are also the bracket term
of the rank-one module identity, so ``add_bracket_term`` writes them for
both; the outer two stay apart, as the module identity merges its pair into
one loop that skips the terms that cancel.  The terms add into one dict per
generator keyed by the exponents of d, x and y and the parameter monomial,
and ``poly.join_terms`` turns the nonzero ones into the same canonical
``Poly`` that substituting and multiplying would give.

The table is kept only as these term lists, one per ordered pair
(``entry_terms``).  A given entry is split into them once, when the
algebra is built; a skew completion is written straight as terms
(``_skew_terms``), and ``specialize`` binds parameters on the stored terms
and hands its term lists to the constructor, so neither splits anything.  Both axiom checks, the module
identity in ``modules`` and the expansions in ``annihilation`` read those
lists; ``entry`` and ``full_table`` join them into ``LambdaElement``s only
for a caller that prints or compares one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import BindingError, DefinitionError, ParseError
from .poly import (PARAMETER, Combination, Poly, Registry, Var, group_coefficients, is_name,
                   join_terms, mono_mul, parse_expression, parse_rational, split_terms)

_ALLOWED_OFFSETS = (Fraction(0), Fraction(1, 2), Fraction(1))
_ALLOWED_SHIFTS = (Fraction(0), Fraction(1, 2))


@dataclass(frozen=True)
class Generator:
    """A basis generator of the free C[d]-module.

    ``label_offset`` relates coefficient-algebra labels to internal indices
    (internal index = label + offset); ``filtration_shift`` relates labels to
    filtration degrees (degree = label - shift).  The standard relabelings use
    offset 1 for Virasoro-type generators, 1/2 for odd generators indexed by
    half-integers, and 0 otherwise.  Both must be ``is_exact_rational``, and
    the name must be a str that ``poly.is_name`` accepts, as ``parse_algebra``
    demands of a ``gen`` line.
    """

    name: str
    label_offset: Fraction = Fraction(0)
    filtration_shift: Fraction = Fraction(0)

    def __post_init__(self):
        if not (isinstance(self.name, str) and is_name(self.name)):
            raise DefinitionError(f"generator name {self.name!r} is not an identifier")
        for field in ("label_offset", "filtration_shift"):
            value = getattr(self, field)
            if not is_exact_rational(value):
                raise DefinitionError(f"generator {self.name}: {field.replace('_', ' ')} "
                                      f"{value!r} is not an int or a Fraction")
            object.__setattr__(self, field, Fraction(value))
        if self.label_offset not in _ALLOWED_OFFSETS:
            raise DefinitionError(f"generator {self.name}: label offset must be 0, 1/2, or 1")
        if self.filtration_shift not in _ALLOWED_SHIFTS:
            raise DefinitionError(f"generator {self.name}: filtration shift must be 0 or 1/2")

    def __hash__(self) -> int:
        # equal generators share their name; hashing the name alone skips
        # rehashing two Fractions on every dict lookup
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


class LambdaElement(Combination):
    """A finite sum of generators with polynomial coefficients.

    Coefficients may involve d, x and parameters.  Elements whose
    coefficients are free of x play the role of plain module elements
    (values of j-th products); the same class covers both since the
    invariants differ only in which variables appear.  Terms are listed
    by generator name and rendered joined by " + ".
    """

    __slots__ = ()

    @staticmethod
    def _order(g: Generator) -> str:
        return g.name

    def render(self) -> str:
        return " + ".join(self.rendered_terms()) or "0"


@dataclass(frozen=True)
class ReportEntry:
    key: tuple[str, ...]
    residual: str
    ok: bool


class AxiomReport:
    """Outcome of an axiom check: one residual per pair or triple."""

    def __init__(self, kind: str, entries: Sequence[ReportEntry]):
        self.kind = kind
        self.entries = tuple(entries)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if not e.ok]

    def __repr__(self) -> str:
        return f"AxiomReport({self.kind}, passed={self.passed})"


class ConformalAlgebra:
    """A finite Lie conformal algebra given by its lambda-bracket table.

    Each entry of ``table`` is a ``LambdaElement`` or a list as
    ``entry_terms`` returns one.  ``virasoro_name`` is detected from the
    table, never declared: it names the first generator g with
    [g_x g] = (d + 2x) g, or is None.
    """

    def __init__(self, name: str, registry: Registry, generators: Sequence[Generator],
                 table: Mapping[tuple[str, str], "LambdaElement | list"],
                 params: Sequence[Var] = (), *, closed_ann_form=None,
                 param_values: Mapping[str, Fraction] | None = None):
        self.name = name
        self.registry = registry
        self.generators = tuple(generators)
        self.params = tuple(params)
        self.closed_ann_form = closed_ann_form
        #: Rational values substituted for the declared parameters, when bound.
        self.param_values = dict(param_values or {})
        if len({g.name for g in self.generators}) != len(self.generators):
            raise DefinitionError("duplicate generator names")
        for v in self.params:
            if v.kind != PARAMETER:
                raise DefinitionError(f"{v.name} is not a parameter variable")
        self._by_name = {g.name: g for g in self.generators}
        self._terms = self._build_terms(table)
        self.virasoro_name = self._detect_virasoro()

    # ---- construction helpers -----------------------------------------

    def _validate_entry(self, pair, terms) -> None:
        allowed = {v.index for v in self.params}
        for g, p_terms in terms:
            if g.name not in self._by_name or self._by_name[g.name] != g:
                raise DefinitionError(f"bracket {pair} uses foreign generator {g.name}")
            # split_terms leaves every variable but d and x in the monomial
            foreign = {k for _, _, rest, _ in p_terms for k, _ in rest if k not in allowed}
            if foreign:
                raise DefinitionError(
                    f"bracket {pair} coefficient uses {self.registry.name_of(min(foreign))}; "
                    f"only d, x and declared parameters are allowed")

    def _build_terms(self, given):
        """Validate ``given`` and complete each pair given in one order only
        by its skew image; see the module docstring.  Returns every entry
        as ``entry_terms`` lists it: a ``LambdaElement`` is split once, a
        term list is kept as given."""
        names = [g.name for g in self.generators]
        terms = {}
        for (a, b), elem in given.items():
            if a not in self._by_name or b not in self._by_name:
                raise DefinitionError(f"bracket ({a},{b}) names an undeclared generator")
            if isinstance(elem, LambdaElement):
                elem = [(g, split_terms(p)) for g, p in elem.items()]
            elif not isinstance(elem, list):
                raise DefinitionError(f"bracket ({a},{b}) is not a LambdaElement")
            self._validate_entry((a, b), elem)
            terms[(a, b)] = elem
        for i, a in enumerate(names):
            for b in names[i:]:
                if (a, b) not in terms:
                    if a == b or (b, a) not in terms:
                        raise DefinitionError(f"missing bracket entry ({a},{b})")
                    terms[(a, b)] = _skew_terms(terms[(b, a)])
                elif (b, a) not in terms:
                    terms[(b, a)] = _skew_terms(terms[(a, b)])
        return terms

    def _detect_virasoro(self) -> str | None:
        d_2x = {(1, 0, ()): 1, (0, 1, ()): 2}
        for g in self.generators:
            entry = self._terms[(g.name, g.name)]
            if len(entry) == 1 and entry[0][0] == g and \
                    {(i, j, rest): c for i, j, rest, c in entry[0][1]} == d_2x:
                return g.name
        return None

    def _joined(self, terms) -> LambdaElement:
        """The ``LambdaElement`` of terms listed as ``entry_terms`` lists
        them; terms with the same generator and monomial add."""
        reg, accs = self.registry, {}
        for g, p_terms in terms:
            acc = accs.setdefault(g, {})
            for i, j, rest, c in p_terms:
                acc[i, j, 0, rest] = acc.get((i, j, 0, rest), 0) + c
        return LambdaElement(reg, {g: join_terms(reg, acc) for g, acc in accs.items()})

    # ---- basic access ----------------------------------------------------

    def gen(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise DefinitionError(f"no generator named {name!r} in {self.name}") from None

    @property
    def virasoro_generator(self) -> Generator | None:
        return self._by_name.get(self.virasoro_name) if self.virasoro_name else None

    def entry(self, a: "Generator | str", b: "Generator | str") -> LambdaElement:
        """The entry [a_x b], joined from its ``entry_terms`` on each call."""
        a = a.name if isinstance(a, Generator) else a
        b = b.name if isinstance(b, Generator) else b
        return self._joined(self.entry_terms(a, b))

    def entry_terms(self, a: str, b: str) -> list[tuple[Generator, list]]:
        """The entry [a_x b] as (generator, ``split_terms`` of its
        coefficient) pairs in ``items`` order: the table's one stored form.
        A given entry was split once when the algebra was built; a skew
        image or a bound entry was written as terms.  Readers must not
        change the lists."""
        if (a, b) not in self._terms:
            raise DefinitionError(f"no bracket entry ({a},{b})")
        return self._terms[(a, b)]

    def full_table(self) -> dict[tuple[str, str], LambdaElement]:
        return {pair: self._joined(terms) for pair, terms in self._terms.items()}

    def ordered_pairs(self) -> list[tuple[str, str]]:
        names = [g.name for g in self.generators]
        return [(a, b) for a in names for b in names]

    def upper_pairs(self) -> list[tuple[str, str]]:
        names = [g.name for g in self.generators]
        return [(names[i], names[j]) for i in range(len(names)) for j in range(i, len(names))]

    def with_entry(self, a: str, b: str, elem: LambdaElement) -> "ConformalAlgebra":
        """Copy of the algebra with one table entry replaced verbatim (no skew
        completion), for perturbation experiments."""
        table = dict(self._terms)
        table[(a, b)] = elem
        return ConformalAlgebra(self.name, self.registry, self.generators, table,
                                self.params, closed_ann_form=self.closed_ann_form,
                                param_values=self.param_values)

    # ---- parameter binding -------------------------------------------------

    def specialize(self, bindings: Mapping[str, Fraction | int] | None) -> "ConformalAlgebra":
        """Bind declared parameters to rational values.

        Every declared parameter must be bound exactly once, to a value
        ``exact_rational`` accepts; binding an undeclared name is an error.
        Each stored term c d^i x^j m of ``entry_terms`` becomes
        c m(values) d^i x^j; terms with the same d^i x^j add, and the bound
        term lists go to the constructor as they are, with no ``Poly``,
        ``LambdaElement`` or second split.
        """
        bindings = dict(bindings or {})
        declared = {v.name for v in self.params}
        unknown = sorted(set(bindings) - declared)
        if unknown:
            raise BindingError(f"{self.name} does not declare parameter(s) {unknown}")
        missing = sorted(declared - set(bindings))
        if missing:
            raise BindingError(f"{self.name} needs binding(s) for {missing}")
        if not self.params:
            return self
        bound = {v.index: exact_rational(v.name, bindings[v.name]) for v in self.params}
        # an integral value binds as an int, so products stay in int arithmetic
        scalars = {k: q.numerator if q.denominator == 1 else q for k, q in bound.items()}
        table = {}
        for pair, terms in self._terms.items():
            entry = []
            for g, p_terms in terms:
                acc: dict[tuple[int, int, tuple], int | Fraction] = {}
                get = acc.get
                for i, j, rest, c in p_terms:
                    for k, e in rest:
                        c *= scalars[k] ** e
                    # a term bound to zero adds no key, as in ``Poly.subs``,
                    # so the terms keep the order substitution gives them
                    if c:
                        key = (i, j, ())
                        acc[key] = get(key, 0) + c
                bound_terms = _nonzero_terms(acc)
                if bound_terms:
                    entry.append((g, bound_terms))
            table[pair] = entry
        values = {**self.param_values, **{v.name: bound[v.index] for v in self.params}}
        return ConformalAlgebra(self.name, self.registry, self.generators, table, (),
                                closed_ann_form=self.closed_ann_form, param_values=values)

    # ---- axiom checks -----------------------------------------------------------

    def check_skew(self) -> AxiomReport:
        """Residual [g_x h] + ([h_x g] with x -> -x - d) per ordered pair."""
        entries = []
        for a, b in self.ordered_pairs():
            residual = self._joined(self._terms[(a, b)] + _skew_terms(self._terms[(b, a)], 1))
            entries.append(ReportEntry((a, b), residual.render(), residual.is_zero()))
        return AxiomReport("skew-symmetry", entries)

    def _jacobi_residual(self, a: str, b: str, c: str) -> LambdaElement:
        """The Jacobi residual of (a, b, c) in closed form, from the stored
        ``entry_terms`` of the table.  With r, q, p terms c d^i x^j of the coefficients in the
        brackets named below, each double bracket expands by binomials into
        one dict per output generator, keyed like ``join_terms``:
          - [a_x [b_y c]] adds r(d, x) q(d+x, y) for q k in [b_x c] and r in
            [a_x k]: c_r c_q C(k, e) d^(i+e) x^(j+k-e) y^l for a term
            d^k x^l of q;
          - -[[a_x b]_{x+y} c] adds -p(-(x+y), x) r(d, x+y) for p k in
            [a_x b] and r in [k_x c], by ``add_bracket_term``;
          - -[b_y [a_x c]] adds -q(d, y) r(d+y, x) for r k in [a_x c] and q
            in [b_x k]: -c_r c_q C(i, e) d^(k+e) x^j y^(l+i-e) for a term
            d^i x^j of r and d^k x^l of q.
        Coefficients add as ints while they are integral; only the surviving
        terms become ``Fraction``s."""
        comb, terms = math.comb, self._terms
        accs: dict[Generator, dict] = {}
        for k, q_terms in terms[(b, c)]:
            for m, r_terms in terms[(a, k.name)]:
                acc = accs.setdefault(m, {})
                get = acc.get
                for i, j, rr, cr in r_terms:
                    for k2, l, rq, cq in q_terms:
                        rest, coef = mono_mul(rr, rq), cr * cq
                        for e in range(k2 + 1):
                            key = (i + e, j + k2 - e, l, rest)
                            acc[key] = get(key, 0) + coef * comb(k2, e)
        for k, p_terms in terms[(a, b)]:
            for m, r_terms in terms[(k.name, c)]:
                add_bracket_term(accs.setdefault(m, {}), p_terms, r_terms)
        for k, r_terms in terms[(a, c)]:
            for m, q_terms in terms[(b, k.name)]:
                acc = accs.setdefault(m, {})
                get = acc.get
                for i, j, rr, cr in r_terms:
                    for k2, l, rq, cq in q_terms:
                        rest, coef = mono_mul(rr, rq), cr * cq
                        for e in range(i + 1):
                            key = (k2 + e, j, l + i - e, rest)
                            acc[key] = get(key, 0) - coef * comb(i, e)
        reg = self.registry
        return LambdaElement(reg, {m: join_terms(reg, acc) for m, acc in accs.items()})

    def check_jacobi(self) -> AxiomReport:
        """Residual [a_x [b_y c]] - [[a_x b]_{x+y} c] - [b_y [a_x c]] per triple."""
        names = [g.name for g in self.generators]
        entries = []
        for a in names:
            for b in names:
                for c in names:
                    residual = self._jacobi_residual(a, b, c)
                    entries.append(ReportEntry((a, b, c), residual.render(), residual.is_zero()))
        return AxiomReport("jacobi", entries)

    def __repr__(self) -> str:
        return f"ConformalAlgebra({self.name}, generators={[g.name for g in self.generators]})"


def _nonzero_terms(acc: Mapping[tuple[int, int, tuple], int | Fraction]) -> list:
    """The nonzero sums of ``acc``, keyed by (i, j, rest), as ``split_terms``
    lists them: (i, j, rest, c) in ``acc`` order, c an int while integral."""
    return [(i, j, rest, c.numerator if c.denominator == 1 else c)
            for (i, j, rest), c in acc.items() if c]


def _skew_terms(terms, sign: int = -1) -> list[tuple[Generator, list]]:
    """``sign`` times an entry with x -> -(x + d), the entry and the result
    listed as ``entry_terms`` lists one, in closed form: a term c d^i x^j
    becomes sign (-1)^j c C(j, t) d^(i+j-t) x^t for t = 0..j.  The default
    sign gives the skew image.  A generator whose terms all cancel is left
    out."""
    comb = math.comb
    out = []
    for g, p_terms in terms:
        acc: dict[tuple[int, int, tuple], int | Fraction] = {}
        get = acc.get
        for i, j, rest, c in p_terms:
            signed = -sign * c if j % 2 else sign * c
            for t in range(j + 1):
                key = (i + j - t, t, rest)
                acc[key] = get(key, 0) + signed * comb(j, t)
        image = _nonzero_terms(acc)
        if image:
            out.append((g, image))
    return out


def add_bracket_term(acc: dict, p_terms, r_terms) -> None:
    """Add -p(-(x+y), x) r(d, x+y) into ``acc``, keyed like ``join_terms``,
    from the ``split_terms`` of p and r: a term c d^i x^j of p becomes
    (-1)^i C(i, s) c x^(s+j) y^(i-s), and one of r becomes
    C(j, t) c d^i x^t y^(j-t).  Coefficients add as ints while integral."""
    comb, get = math.comb, acc.get
    for i, j, rp, cp in p_terms:
        sign = cp if i % 2 else -cp
        for i2, j2, rr, cr in r_terms:
            rest, coef = mono_mul(rp, rr), sign * cr
            for s in range(i + 1):
                cs = coef * comb(i, s)
                for t in range(j2 + 1):
                    key = (i2, s + j + t, i - s + j2 - t, rest)
                    acc[key] = get(key, 0) + cs * comb(j2, t)


def jth_product_of(br: LambdaElement, j: int) -> LambdaElement:
    """j! times the x^j coefficient of the bracket value ``br``."""
    lam = br.registry.x
    fact = math.factorial(j)
    return br.map_coeffs(lambda p: p.coeff_of(lam, j) * fact)


def locality_order_of(br: LambdaElement) -> int:
    """Max x-degree + 1 of the bracket value ``br``, 0 when it is zero."""
    lam = br.registry.x
    return max((p.degree(lam) + 1 for _, p in br.items()), default=0)


# ---- textual algebra definitions ----------------------------------------------


def is_exact_rational(value) -> bool:
    """Whether ``value`` is an int that is not a bool, or a Fraction: the
    values read as exact rationals, with no float, bool or str syntax."""
    return isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool))


def exact_rational(name: str, value) -> Fraction:
    """``value`` as parameter ``name``'s binding; it must be ``is_exact_rational``."""
    if is_exact_rational(value):
        return Fraction(value)
    raise BindingError(f"{name} must be bound to an int or a Fraction, not {value!r}")


def format_params(values: Mapping[str, Fraction]) -> dict[str, str]:
    """Parameter bindings as name -> rational string, sorted by name."""
    return {k: str(v) for k, v in sorted(values.items())}


def parse_algebra(text: str) -> ConformalAlgebra:
    """Parse the plain-text algebra format.

    Line oriented::

        # comment
        algebra W params a b
        gen L offset=1 shift=0
        gen W
        [L,L] = (d + 2*x) L
        [L,W] = (d + a*x + b) W
        [W,W] = 0

    The header declares the name and distinct parameters; ``gen`` lines
    declare generators in order (offset/shift default to 0).  Parameter and
    generator names are identifiers.  Bracket lines must
    give every diagonal pair and every other pair in at least one order; a
    missing order is completed by skew-symmetry.  A bracket value is 0 or a
    polynomial in d, x, the declared parameters, rational literals and the
    generators that, once expanded, is linear in the generators with no
    generator-free term.  Every error is a ParseError naming its line.
    """
    registry = Registry()
    name = None
    params: list[Var] = []
    generators: list[Generator] = []
    table: dict[tuple[str, str], LambdaElement] = {}
    gen_names: set[str] = set()

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "algebra":
            if name is not None:
                raise ParseError("duplicate algebra header", line=lineno)
            if len(parts) < 2:
                raise ParseError("algebra header needs a name", line=lineno)
            name = parts[1]
            rest = parts[2:]
            if rest:
                if rest[0] != "params":
                    raise ParseError("expected 'params' after the algebra name", line=lineno)
                for pname in rest[1:]:
                    if pname in ("d", "x", "y", "z"):
                        raise ParseError(f"{pname} is a reserved formal variable", line=lineno)
                    if not is_name(pname):
                        raise ParseError(f"invalid variable name {pname!r}", line=lineno)
                    if registry.has_name(pname):
                        raise ParseError(f"duplicate parameter {pname!r}", line=lineno)
                    params.append(registry.param(pname))
            continue
        if name is None:
            raise ParseError("the file must start with an 'algebra' header", line=lineno)
        if parts[0] == "gen":
            if len(parts) < 2:
                raise ParseError("generator line needs a name", line=lineno)
            gname = parts[1]
            if not is_name(gname):
                raise ParseError(f"generator name {gname!r} is not an identifier", line=lineno)
            if registry.has_name(gname):
                raise ParseError(f"generator name {gname!r} clashes with a variable",
                                 line=lineno)
            if gname in gen_names:
                raise ParseError(f"duplicate generator {gname!r}", line=lineno)
            options = {"offset": Fraction(0), "shift": Fraction(0)}
            for opt in parts[2:]:
                if "=" not in opt:
                    raise ParseError(f"malformed generator option {opt!r}", line=lineno)
                key, _, value = opt.partition("=")
                try:
                    fvalue = parse_rational(value)
                except ValueError:
                    raise ParseError(f"malformed rational {value!r}", line=lineno) from None
                if key not in options:
                    raise ParseError(f"unknown generator option {key!r}", line=lineno)
                options[key] = fvalue
            try:
                generators.append(Generator(gname, options["offset"], options["shift"]))
            except DefinitionError as exc:
                raise ParseError(str(exc), line=lineno) from None
            gen_names.add(gname)
            continue
        if line.startswith("["):
            head, eq, rhs = line.partition("=")
            if not eq:
                raise ParseError("bracket line needs '='", line=lineno)
            head = head.strip()
            if not (head.startswith("[") and head.endswith("]")):
                raise ParseError("bracket line must start with [A,B]", line=lineno)
            inner = head[1:-1]
            if inner.count(",") != 1:
                raise ParseError("bracket head must name two generators", line=lineno)
            a, b = (s.strip() for s in inner.split(","))
            for gname in (a, b):
                if gname not in gen_names:
                    raise ParseError(f"undeclared generator {gname!r}", line=lineno)
            elem = _parse_bracket_rhs(rhs.strip(), registry, params,
                                      {g.name: g for g in generators}, lineno)
            if (a, b) in table:
                raise ParseError(f"duplicate bracket [{a},{b}]", line=lineno)
            table[(a, b)] = elem
            continue
        raise ParseError(f"unrecognized line {line!r}", line=lineno)

    if name is None:
        raise ParseError("empty algebra definition", line=1)
    try:
        return ConformalAlgebra(name, registry, generators, table, params)
    except DefinitionError as exc:
        raise ParseError(str(exc), line=len(text.splitlines()) or 1) from None


def _parse_bracket_rhs(textval: str, registry: Registry, params: Sequence[Var],
                       gens: Mapping[str, Generator], lineno: int) -> LambdaElement:
    # The value is read as a polynomial in a scratch registry that repeats
    # ``registry`` (d, x, y, z, then the parameters) and appends one variable
    # per generator, so each generator's coefficient already has the
    # algebra's variable indices.
    scratch = Registry()
    scratch.params(*(v.name for v in params))

    def atom(name: str, col: int) -> Poly:
        if name in gens:
            return Poly.from_var(scratch, scratch.param(name))
        if name in ("y", "z"):
            raise ParseError("bracket coefficients may only use d, x and parameters",
                             line=lineno, column=col)
        if scratch.has_name(name):
            return Poly.from_var(scratch, scratch.var(name))
        raise ParseError(f"unknown name {name!r} (declare parameters in the header)",
                         line=lineno, column=col)

    value = parse_expression(textval, atom, lineno)
    if isinstance(value, Fraction):
        if value != 0:
            raise ParseError("bracket value must be a generator combination or 0",
                             line=lineno)
        return LambdaElement(registry)
    by_gen = group_coefficients(value, scratch.all_vars()[:len(registry)])
    if any(sum(e for _, e in mono) > 1 for mono in by_gen):
        raise ParseError("bracket values must be linear in the generators", line=lineno)
    if () in by_gen:
        raise ParseError("bracket value has a stray scalar term", line=lineno)
    return LambdaElement(registry, {
        gens[scratch.name_of(index)]: Poly(registry, dict(coeff.terms()))
        for ((index, _),), coeff in by_gen.items()})
