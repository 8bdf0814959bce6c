"""Conformal modules over lambda-bracket algebras and their classification.

A module action on a free rank-one C[d]-module C[d]v assigns to each
generator g a polynomial A_g(d, x) with g_x v = A_g(d, x) v, extended by
g_x (q(d) v) = q(d + x) g_x v.  The defining identity, per generator pair,

    a_x (b_y v) - b_y (a_x v) - [a_x b]_{x+y} v = 0

unfolds into the polynomial residual

    A_a(d, x) A_b(d+x, y) - A_b(d, y) A_a(d+y, x)
        - sum_k p_k(-(x+y), x) A_k(d, x+y)

where [a_x b] = sum_k p_k(d, x) k.  Everything here reduces to exact
polynomial identities: verifying a proposed action, classifying all actions
of bounded degree, locating rank-one submodules, and deciding
irreducibility for the families that come out of the classification.
Actions and bracket coefficients use only d, x and parameters, so the
residual is bilinear in the terms of A_a and A_b and linear in those of the
A_k: ``_rank1_terms`` expands each pair of terms by binomials into one dict
of coefficients, with no ``Poly`` product or substitution; its bracket part
is ``algebra.add_bracket_term``, shared with the Jacobi identity.
Submodules need no solving: a monic nonconstant p(d) generates one iff p
divides G(d), the gcd in Q[d] of all x-coefficients of all A_g (p(r + x) is
nonzero at a root r of p), so C[d]v is irreducible iff G is a nonzero constant.
That work is univariate in d, so it runs on dense coefficient lists
(constant first) divided by ``solve.dense_div_rem``, the division behind
the Sturm search: G by Euclid, its roots' multiplicities, each divisor, and
the induced action's quotients of A_g(d, x) p(d + x) by p(d), one list per
x-power and parameter monomial.  ``Poly``s are built only for what is
returned or named in an error.

Classification is staged.  The Virasoro generator acts by f = 0 or by
f = d + alpha*x + beta (the completeness of this list is itself checkable
through ``vir_completeness``).  With alpha and beta kept as formal symbols,
the remaining generators get generic polynomial actions of bounded degree
and the residuals become linear systems.  Stage two substitutes each
solution family of that first stage into the small ansatz actions and builds
the cross relations among the non-Virasoro generators from them; they are
quadratic in the family's free coefficients and close the search.  For a
fixed Virasoro action the generic coefficients are the action coefficients,
so families are compared as canonical solution families over them and
become actions only for output.  Because the formal treatment only finds
actions valid for every (alpha, beta), a rational grid of (alpha, beta)
values is re-solved independently and any family on one side only raises
DiscrepancyError.  Stage one is never built by multiplying polynomials: the
residual of the Virasoro generator with each other generator is linear in
the generic coefficients and in f = s*d + A*x + B, so ``_Ansatz`` reads it
once off the same expansion as ``_rank1_residual``, with f's three terms
tagged by the slot they fill, into one operator: sparse rows, one per
generator and monomial in d, x and y, keyed by column (a generic
coefficient's position among the unknowns, the constant last), each column
holding four integers: its coefficient in the bracket part of the equation,
which does not depend on f, and in the parts that multiply s, A and B.
Every Virasoro action, f = 0 (s = 0), the symbolic one and each grid
point's, folds those rows with its own integer weights straight into the
integer rows the solver's one elimination reads, and solves them on its
own.  The folds no action changes (f = 0, the constant monomial of
d + A*x + B, and the A- and B-parts alone) are built once per row and
handed over as they are.  The Virasoro generator's own pair needs no
check: it is detected by its (d + 2x) bracket, and
f(d,x) f(d+x,y) - f(d,y) f(d+y,x) = (x - y) f(d, x+y) for f = 0 and for
every f = d + A*x + B with A and B free of d and x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import (BindingError, DefinitionError, DiscrepancyError, DivisibilityError,
                     NonMonicDivisorError, UnsupportedError)
from .algebra import (AxiomReport, ConformalAlgebra, Generator, ReportEntry,
                      add_bracket_term, is_exact_rational, parse_algebra)
from .poly import (PARAMETER, Mono, Poly, Registry, Var, group_coefficients, join_terms,
                   mono_mul, split_terms)
from .solve import SolutionFamily, SolutionSet, dense_div_rem, rational_roots, solve_system


class Rank1Action:
    """An action of every generator on a free rank-one module C[d]v.

    Action polynomials may involve d, x and parameters (both structure
    parameters of the algebra and module parameters such as alpha, beta,
    gamma), so whole families can be certified symbolically.
    """

    __slots__ = ("algebra", "_actions")

    def __init__(self, algebra: ConformalAlgebra, actions: Mapping[str, Poly]):
        self.algebra = algebra
        names = [g.name for g in algebra.generators]
        if set(actions) != set(names):
            raise DefinitionError(
                f"action must cover exactly the generators {names}, got {sorted(actions)}")
        reg = algebra.registry
        cleaned = {}
        for name in names:
            p = actions[name]
            if not isinstance(p, Poly):
                if not is_exact_rational(p):
                    raise DefinitionError(f"action of {name} is {p!r}, not a Poly, an int or a "
                                          f"Fraction")
                p = Poly.const(reg, p)
            if p.registry is not reg:
                raise DefinitionError("action polynomial from a different registry")
            for v in p.variables():
                if v is reg.d or v is reg.x:
                    continue
                if v.kind != PARAMETER:
                    raise DefinitionError(
                        f"action of {name} uses {v.name}; only d, x and parameters are allowed")
            cleaned[name] = p
        self._actions = cleaned

    def action(self, name: str) -> Poly:
        if name not in self._actions:
            raise DefinitionError(f"no generator named {name!r}")
        return self._actions[name]

    def items(self) -> list[tuple[str, Poly]]:
        return [(g.name, self._actions[g.name]) for g in self.algebra.generators]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self._actions.values())

    def free_params(self) -> list[str]:
        seen = {}
        for _, p in self.items():
            for v in p.variables():
                if v.kind == PARAMETER:
                    seen[v.index] = v.name
        return [seen[i] for i in sorted(seen)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rank1Action):
            return NotImplemented
        return self.algebra is other.algebra and self._actions == other._actions

    def __hash__(self) -> int:
        return hash((id(self.algebra), tuple(sorted((g, p) for g, p in self._actions.items()))))

    def render(self) -> str:
        return "; ".join(f"{g} -> {p}" for g, p in self.items())

    def __repr__(self) -> str:
        return f"Rank1Action({self.render()})"


def _rank1_terms(alg: ConformalAlgebra, terms_of: Callable[[str], list],
                 aname: str, bname: str) -> dict[tuple[int, int, int, tuple], int | Fraction]:
    """The residual of the pair (a, b) in closed form, as the dict
    ``join_terms`` reads, from ``terms_of(g)``, the ``split_terms`` of the
    action of g, for a, b and every generator in [a_x b], and from the
    stored ``entry_terms`` of [a_x b], which it does not split again.  With
    their terms written a_ij d^i x^j and b_kl d^k x^l, the three parts
    expand by binomials:
      - A_a(d, x) A_b(d+x, y) adds a_ij b_kl C(k,e) d^(i+e) x^(j+k-e) y^l;
      - -A_b(d, y) A_a(d+y, x) adds -a_ij b_kl C(i,e) d^(k+e) x^j y^(l+i-e),
        whose term e = i cancels the first part's term e = k, so neither is
        added;
      - each term p_k k of [a_x b] adds -p_k(-(x+y), x) A_k(d, x+y), by
        ``add_bracket_term``.
    Coefficients add as ints while they are integral, keyed by the exponents
    of d, x and y and the term's monomial in everything else; zero sums stay
    in the dict."""
    comb = math.comb
    acc: dict[tuple[int, int, int, tuple], int | Fraction] = {}
    get = acc.get
    b_terms = terms_of(bname)
    for i, j, ra, ca in terms_of(aname):
        for k, l, rb, cb in b_terms:
            rest, c = mono_mul(ra, rb), ca * cb
            for e in range(k):
                key = (i + e, j + k - e, l, rest)
                acc[key] = get(key, 0) + c * comb(k, e)
            for e in range(i):
                key = (k + e, j, l + i - e, rest)
                acc[key] = get(key, 0) - c * comb(i, e)
    for gen, p_terms in alg.entry_terms(aname, bname):
        add_bracket_term(acc, p_terms, terms_of(gen.name))
    return acc


def _rank1_residual(alg: ConformalAlgebra, actions: Mapping[str, Poly],
                    aname: str, bname: str) -> Poly:
    """The residual of the pair (a, b), built by ``_rank1_terms`` with no
    ``Poly`` product or substitution."""
    return join_terms(alg.registry, _rank1_terms(alg, lambda g: split_terms(actions[g]),
                                                 aname, bname))


def _require_own_action(alg: ConformalAlgebra, action: "Rank1Action") -> None:
    # The closed form reads an action's variable indices in alg's registry.
    if action.algebra is not alg:
        raise DefinitionError("action belongs to a different algebra")


def check_module(alg: ConformalAlgebra, module) -> AxiomReport:
    """Verify the rank-one module identity for every ordered generator pair.

    Accepts a Rank1Action or a plain mapping of generator names to action
    polynomials, which must use only d, x and parameters as a Rank1Action's
    do; each entry carries the residual polynomial of its pair.  Each
    action is split into terms once, for all the pairs.
    """
    if isinstance(module, Mapping):
        if set(module) != {g.name for g in alg.generators}:
            raise DefinitionError("module actions do not match the algebra's generators")
        module = Rank1Action(alg, module)
    elif not isinstance(module, Rank1Action):
        raise DefinitionError(f"cannot check a {type(module).__name__}")
    _require_own_action(alg, module)
    terms = {g: split_terms(p) for g, p in module.items()}
    entries = []
    for a, b in alg.ordered_pairs():
        res = join_terms(alg.registry, _rank1_terms(alg, terms.__getitem__, a, b))
        entries.append(ReportEntry((a, b), str(res), res.is_zero()))
    return AxiomReport("module", entries)


# ---- classification ------------------------------------------------------


def _generic_poly(reg: Registry, prefix: str,
                  max_degree: int) -> tuple[Poly, list[tuple[int, int, Var]]]:
    """Sum of u * d^i * x^j over 0 <= i, j <= max_degree with fresh unknowns,
    and its terms' (i, j, u) in the order the unknowns are registered."""
    d, x = reg.d.index, reg.x.index
    coefficients = [(i, j, reg.param(f"{prefix}_{i}_{j}"))
                    for i in range(max_degree + 1) for j in range(max_degree + 1)]
    terms = {tuple(t for t in ((d, i), (x, j), (v.index, 1)) if t[1]): Fraction(1)
             for i, j, v in coefficients}
    return Poly(reg, terms, _normalized=True), coefficients


def _extract(poly: Poly, unknowns: Sequence[Var]) -> list[Poly]:
    return list(group_coefficients(poly, unknowns).values())


def vir_completeness(max_degree: int) -> list[Poly]:
    """Solve the rank-one module identity for the Virasoro bracket with a
    fully generic action of bidegree at most ``max_degree``.

    Returns the canonical action polynomials of all solution families, free
    coefficients renamed to alpha and beta.  The expected outcome is exactly
    [0, d + alpha*x + beta] for every bound.
    """
    _require_degree(max_degree)
    if not 1 <= max_degree <= 3:
        raise UnsupportedError("completeness search is supported for degree bounds 1 to 3")
    vir = parse_algebra("algebra vir\ngen L\n[L,L] = (d + 2*x) L\n")
    reg = vir.registry
    f, coefficients = _generic_poly(reg, "c", max_degree)
    unknowns = [v for _, _, v in coefficients]
    residual = _rank1_residual(vir, {"L": f}, "L", "L")
    families = solve_system(_extract(residual, unknowns), unknowns)
    carriers = {v: (i + j, i, j) for i, j, v in coefficients}

    results = []
    for fam in families:
        action = fam.substitute_into(f)
        frees = sorted((v for v in action.variables() if v in carriers),
                       key=lambda v: carriers[v], reverse=True)
        names = ["alpha", "beta", "gamma", "delta"]
        if len(frees) > len(names):
            raise UnsupportedError("solution family has too many free coefficients")
        sub = {v: Poly.from_var(reg, reg.param(names[k])) for k, v in enumerate(frees)}
        results.append(action.subs(sub))
    results.sort(key=lambda p: (p.total_degree(), str(p)))
    return results


def _slot_weights(f: Poly) -> list[tuple[int | Fraction, ...]]:
    """How a stage-one row's four slot equations fold into equations for
    the Virasoro action f = s*d + A*x + B, A and B free of d and x: per
    monomial m in f's parameters, the weights (1 if m = 1 else 0, s if m = 1
    else 0, the coefficient of m in A, the coefficient of m in B), ints
    while integral, m = 1 first, then A's monomials, then B's others, each
    in ``Poly.terms`` order.  The staged shapes are those with s*f = f,
    that is f = 0 (s = 0) and f = d + A*x + B (s = 1), since (s - 1)*f = 0
    only when f = 0 or s = 1; any other f is unsupported.  The weights are
    read off f's terms in that order, so no ``Poly`` is built: a staged f
    has only the term d, terms x*m and terms m, with m a monomial in
    parameters."""
    reg = f.registry
    d, x = ((reg.d.index, 1),), ((reg.x.index, 1),)
    # A monomial's first index is its least, and the formal variables come
    # first in the registry, so m is free of them when its first one is.
    variables = reg.all_vars()
    s, a, b, staged = 0, {}, {}, True
    for m, c in f.terms():
        c = c.numerator if c.denominator == 1 else c
        if m == d and c == 1:
            s = 1
        elif m[:1] == x and (len(m) == 1 or variables[m[1][0]].kind == PARAMETER):
            a[m[1:]] = c
        elif not m or variables[m[0][0]].kind == PARAMETER:
            b[m] = c
        else:
            staged = False
    if not (staged and (s or f.is_zero())):
        raise UnsupportedError(f"the Virasoro action {f} is neither 0 nor d + A*x + B "
                               f"with A and B free of d and x")
    return [(int(m == ()), s if m == () else 0, a.get(m, 0), b.get(m, 0))
            for m in dict.fromkeys([(), *a, *b])]


# f = s*d + A*x + B enters ``_rank1_terms`` as three terms, each carrying a
# one-entry marker monomial of negative index that names its slot: it sorts
# before every unknown and registers no variable.
_MARKED_F = [(1, 0, ((-3, 1),), 1), (0, 1, ((-2, 1),), 1), (0, 0, ((-1, 1),), 1)]
_SLOTS = {-3: 1, -2: 2, -1: 3}


# The weight tuples whose folds no Virasoro action changes, in the order a
# row keeps its folds: f = 0, the constant monomial of f = d + A*x + B, and
# a lone monomial of A or of B with coefficient 1, as in d + alpha*x + beta.
_STORED_WEIGHTS = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _restricted(weights: tuple[int, ...], slots: int) -> tuple[int, ...]:
    """``weights`` with the weight of each slot whose bit is clear in
    ``slots`` set to 0."""
    w0, w1, w2, w3 = weights
    return (w0 if slots & 1 else 0, w1 if slots & 2 else 0,
            w2 if slots & 4 else 0, w3 if slots & 8 else 0)


# Per set of slots a row fills, each stored weight tuple restricted to it,
# mapped to the position of its fold in ``_Row.folds``.
_STORED_BY_SLOTS = [{_restricted(w, slots): i for i, w in enumerate(_STORED_WEIGHTS)}
                    for slots in range(16)]


class _Row(dict):
    """A stage-one row, ``{column: (bracket, d, A, B)}``, with the folds of
    ``_STORED_WEIGHTS``, built in one pass over its columns.  Bit i of
    ``slots`` is set when some column's slot i is nonzero, so a row's fold
    by any weights equals its fold by the weights restricted to ``slots``.
    ``folds`` holds {k: c0}, {k: c0 + c1}, {k: c2} and {k: c3}, zeros
    dropped, in the row's column order.  They are attributes of the row, so
    reordering the rows carries them along."""

    __slots__ = ("slots", "folds")

    def __init__(self, entries: Mapping[int, tuple[int, int, int, int]]):
        super().__init__(entries)
        bracket, constant, a_part, b_part = {}, {}, {}, {}
        d_part = False
        for k, (c0, c1, c2, c3) in self.items():
            if c0:
                bracket[k] = c0
            if c1:
                d_part = True
            if c0 + c1:
                constant[k] = c0 + c1
            if c2:
                a_part[k] = c2
            if c3:
                b_part[k] = c3
        self.folds = (bracket, constant, a_part, b_part)
        self.slots = bool(bracket) | d_part << 1 | bool(a_part) << 2 | bool(b_part) << 3


class _Ansatz:
    """Generic bounded-degree actions of the non-Virasoro generators, built
    once per classification and shared by every Virasoro action.  ``owner``
    maps each generic coefficient to the generator whose action carries it,
    and ``coefficients`` lists each generator's (i, j, u) for its terms
    u * d^i * x^j.

    Stage one is never built from the generic actions: the residual of the
    pair (L, g) is linear in the generic coefficients and in f, so
    ``__init__`` reads it once, whatever f is, off ``_rank1_terms`` of
    (L, g), the expansion behind ``_rank1_residual``, with f = s*d + A*x + B
    entered as its three terms tagged by their slot (``_MARKED_F``).  An
    output key (p, q, r, rest) names the row, one per generator and monomial
    d^p x^q y^r; rest's marker names the slot, the d-, A- or B-part of f, or
    with no marker the bracket part, which does not depend on f; and rest's
    generic coefficient names the column, its position in ``unknowns``, or
    with none the constant at ``len(unknowns)``.  A row is thus sparse in
    columns, keyed as ``solve_system`` reads affine rows, and each column
    holds its four slot coefficients (bracket, d, A, B) as integers.  A row
    holding a ``Fraction`` is scaled by the lcm of its denominators, which
    scales its folded equations and spans the same ones.  Each row is a
    ``_Row``, which also keeps, in the same pass, its folds for f = 0, for
    the constant monomial of f = d + A*x + B and for the A- and B-parts
    alone; they travel with the row.  ``rows`` runs by generator, then by
    (p, q, r) descending; the solver reads its rows sparsest first, so this
    order only breaks ties between rows of one size, and the solutions
    depend on neither.  ``stage_one(f)`` turns each row, by each weight
    tuple of ``_slot_weights(f)``, into one of the solver's rows: a stored
    fold when the weights select one, else a fold in ints, with no
    ``Poly`` per equation.

    The pair (L, L) needs no equation: the Virasoro generator is detected
    by [L_x L] = (d + 2x) L, and for A and B free of d and x,
    f(d,x) f(d+x,y) - f(d,y) f(d+y,x) = (x - y) f(d, x+y), so every action
    ``_slot_weights`` accepts satisfies it."""

    def __init__(self, alg: ConformalAlgebra, virasoro: Generator,
                 others: Sequence[Generator], max_degree: int):
        self.alg, self.virasoro, self.others = alg, virasoro, others
        self.actions: dict[str, Poly] = {}
        self.unknowns: list[Var] = []
        self.owner: dict[Var, str] = {}
        self.coefficients: dict[str, list[tuple[int, int, Var]]] = {}
        for g in others:
            poly, coefficients = _generic_poly(alg.registry, f"u_{g.name}", max_degree)
            self.actions[g.name] = poly
            self.coefficients[g.name] = coefficients
            for _, _, v in coefficients:
                self.unknowns.append(v)
                self.owner[v] = g.name

        vname = virasoro.name
        column = {v.index: k for k, v in enumerate(self.unknowns)}
        constant = len(self.unknowns)
        split = {vname: _MARKED_F, **{g: split_terms(p) for g, p in self.actions.items()}}
        self.rows = []
        for g in others:
            grouped: dict[tuple[int, int, int], dict[int, list]] = {}
            for (p, q, r, rest), c in _rank1_terms(alg, split.__getitem__, vname,
                                                   g.name).items():
                if not c:
                    continue
                slot = 0
                if rest and rest[0][0] < 0:
                    slot, rest = _SLOTS[rest[0][0]], rest[1:]
                row = grouped.get((p, q, r)) or grouped.setdefault((p, q, r), {})
                col = column[rest[0][0]] if rest else constant
                entry = row.get(col) or row.setdefault(col, [0, 0, 0, 0])
                entry[slot] = c
            for pqr in sorted(grouped, reverse=True):
                row = {k: tuple(entry) for k, entry in grouped[pqr].items()}
                denominators = [c.denominator for entry in row.values() for c in entry
                                if type(c) is Fraction]
                if denominators:
                    scale = math.lcm(*denominators)
                    row = {k: tuple(int(c * scale) for c in entry) for k, entry in row.items()}
                self.rows.append(_Row(row))

    def stage_one(self, f: Poly) -> list[dict[int, int]]:
        """The stage-one equations of the Virasoro action f as integer rows
        keyed by column: each row folded by each monomial's weights from
        ``_slot_weights(f)`` scaled by the lcm of their denominators, empty
        equations skipped.  When the weights, restricted to the slots the
        row fills, equal a stored weight tuple so restricted, the row hands
        over that stored fold uncopied, which ``integer_echelon`` allows, as
        it writes to no input row: every row at f = 0 and at the symbolic
        action, and at a grid point every row the point's A and B do not
        reach.  Any other row is folded in one pass over its columns, zero
        sums dropped.  The fold is int arithmetic and builds no ``Poly``."""
        weights = []
        for slot_weights in _slot_weights(f):
            scale = math.lcm(*(w.denominator for w in slot_weights))
            ws = tuple(int(w * scale) for w in slot_weights)
            weights.append((ws, [stored.get(_restricted(ws, slots))
                                 for slots, stored in enumerate(_STORED_BY_SLOTS)]))
        eqs = []
        for row in self.rows:
            folds, slots = row.folds, row.slots
            for (w0, w1, w2, w3), picks in weights:
                pick = picks[slots]
                if pick is None:
                    folded = {k: t for k, (c0, c1, c2, c3) in row.items()
                              if (t := w0 * c0 + w1 * c1 + w2 * c2 + w3 * c3)}
                else:
                    folded = folds[pick]
                if folded:
                    eqs.append(folded)
        return eqs

    def family_actions(self, f: Poly, fam: SolutionFamily) -> dict[str, Poly]:
        """The actions of a solution family under the Virasoro action f.  The
        coefficient u of d^i x^j becomes its value in the family, a
        polynomial in parameters only, so each of its terms moves to
        d^i x^j unchanged and no ``Poly.subs`` is needed."""
        actions = {self.virasoro.name: f}
        for g in self.others:
            terms = {}
            for i, j, v in self.coefficients[g.name]:
                head = tuple(t for t in ((0, i), (1, j)) if t[1])
                value = fam.solved.get(v)
                if value is None:
                    terms[head + ((v.index, 1),)] = Fraction(1)
                else:
                    terms.update((head + m, c) for m, c in value._terms.items())
            actions[g.name] = Poly(self.alg.registry, terms, _normalized=True)
        return actions

    def stage_two(self, f: Poly, fam: SolutionFamily) -> list[Poly]:
        """The cross-pair equations of a stage-one family under the Virasoro
        action f, in the family's free coefficients.

        The cross residuals are built from the substituted actions, which
        equals substituting the family into the generic cross residuals."""
        actions = self.family_actions(f, fam)
        eqs = []
        for i, g in enumerate(self.others):
            for h in self.others[i:]:
                eqs += _extract(_rank1_residual(self.alg, actions, g.name, h.name), fam.free)
        return eqs

    def solve(self, f: Poly) -> SolutionSet:
        """All bounded-degree actions extending the Virasoro action f, as
        canonical solution families over the generic coefficients.

        Stage one solves the Virasoro pair residuals, which are linear in the
        generic coefficients.  Stage two substitutes each solution family into
        the ansatz actions, builds the cross residuals from them and solves
        the relations among the family's free coefficients; each stage-two
        family is composed with its stage-one family by substitution.
        """
        # A family is in reduced echelon form exactly when each solved
        # unknown is written in free unknowns later in the unknown order.
        # fam.free keeps that order, so substituting a stage-two family into
        # fam.solved keeps the form.  Stage one is affine, so it has at most
        # one family, and stage two's families are already deduplicated and
        # absorbed, so the composed families need no second elimination.
        families = []
        for fam in solve_system(self.stage_one(f), self.unknowns,
                                registry=self.alg.registry):
            for sub in solve_system(self.stage_two(f, fam), fam.free):
                solved = {v: p.subs(sub.solved) for v, p in fam.solved.items()} | sub.solved
                families.append(SolutionFamily(self.unknowns, solved, sub.free))
        return SolutionSet(self.unknowns, families)

    def named_actions(self, f: Poly, fam: SolutionFamily) -> dict[str, Poly]:
        """The actions of a solution family under the Virasoro action f, its
        free coefficients renamed to gamma (or gamma_<generator> when several
        remain)."""
        reg = self.alg.registry
        frees = sorted(fam.free, key=lambda v: v.index)
        sub = {}
        if len(frees) == 1:
            sub[frees[0]] = Poly.from_var(reg, reg.param("gamma"))
        else:
            per_owner: dict[str, int] = {}
            for v in frees:
                owner = self.owner[v]
                count = per_owner.get(owner, 0)
                name = f"gamma_{owner}" if count == 0 else f"gamma_{owner}_{count}"
                per_owner[owner] = count + 1
                sub[v] = Poly.from_var(reg, reg.param(name))
        return {g: p.subs(sub) for g, p in self.family_actions(f, fam).items()}


def rank1_classify(alg: ConformalAlgebra, max_degree: int = 4,
                   cross_check: bool = True) -> list[Rank1Action]:
    """All rank-one module actions with polynomial degree at most
    ``max_degree`` in each of d and x, as symbolic families.

    The algebra's structure parameters must be bound.  Families are returned
    with the Virasoro action written as d + alpha*x + beta (or zero) and any
    remaining freedom renamed to gamma.  When ``cross_check`` is set, the
    classification is re-run over a rational grid of (alpha, beta) values
    and any discrepancy with the symbolic families is an error.  A negative
    ``max_degree`` leaves no ansatz term and is refused.
    """
    _require_degree(max_degree)
    if max_degree < 0:
        raise ValueError(f"degree bound must be at least 0, not {max_degree}")
    if alg.params:
        raise BindingError(f"{alg.name} has unbound structure parameters; "
                           f"call specialize first")
    virasoro = alg.virasoro_generator
    if virasoro is None:
        raise UnsupportedError(f"{alg.name} has no generator with a Virasoro bracket")
    others = [g for g in alg.generators if g.name != virasoro.name]
    for g in others:
        if not alg.entry_terms(virasoro.name, g.name):
            raise UnsupportedError(
                f"{g.name} brackets to zero with {virasoro.name}; the staged "
                f"search needs every generator coupled to the Virasoro one")
    reg = alg.registry
    d, x = (Poly.from_var(reg, v) for v in (reg.d, reg.x))
    alpha = Poly.from_var(reg, reg.param("alpha"))
    beta = Poly.from_var(reg, reg.param("beta"))
    affine = d + alpha * x + beta

    ansatz = _Ansatz(alg, virasoro, others, max_degree)
    zero = Poly.zero(reg)
    at_zero, at_affine = ansatz.solve(zero), ansatz.solve(affine)
    families = [ansatz.named_actions(zero, fam) for fam in at_zero] + \
        [ansatz.named_actions(affine, fam) for fam in at_affine]
    families.sort(key=lambda fam: (0 if all(p.is_zero() for p in fam.values()) else 1,
                                   "; ".join(str(fam[g.name]) for g in alg.generators)))

    result = [Rank1Action(alg, fam) for fam in families]
    for action in result:
        report = check_module(alg, action)
        if not report.passed:
            raise DiscrepancyError(
                f"classified family {action.render()} fails the module identity")
    if cross_check:
        _grid_cross_check(ansatz, affine, at_affine)
    return result


_GRID_ALPHAS = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))
_GRID_BETAS = (Fraction(0), Fraction(1))


def _grid_cross_check(ansatz: _Ansatz, affine: Poly, expected: SolutionSet):
    """Re-solve the classification at rational (alpha, beta) points and
    demand the families of the symbolic Virasoro action ``affine``; sporadic
    extras would invalidate the formal stage.  Each point folds the stage-one
    rows with its own action (rows its A and B do not reach hand over their
    stored folds) and solves them from scratch: one stage-one elimination,
    then one stage-two solve per family.  The expected families are made a
    set once, and each point's found families once.  A disagreement names
    every family found on one side only, rendered as actions at the grid
    point."""
    alg = ansatz.alg
    alpha, beta = alg.registry.param("alpha"), alg.registry.param("beta")
    families = set(expected)
    for a0 in _GRID_ALPHAS:
        for b0 in _GRID_BETAS:
            f = affine.subs({alpha: a0, beta: b0})
            found = set(ansatz.solve(f))
            if found == families:
                continue
            lines = sorted(
                f"\n  missing from {where}: "
                f"{Rank1Action(alg, ansatz.named_actions(f, fam)).render()}"
                for where, fams in (("the symbolic families", found - families),
                                    ("the grid point", families - found))
                for fam in fams)
            raise DiscrepancyError(
                f"classification at alpha={a0}, beta={b0} disagrees with the "
                f"symbolic families:" + "".join(lines))


# ---- submodules and irreducibility -------------------------------------------


@dataclass(frozen=True)
class SubmoduleWitness:
    """A monic polynomial generating a proper submodule, with the action
    induced on that submodule."""

    generator: Poly
    induced: Rank1Action

    def render(self) -> str:
        return f"p(d) = {self.generator}; induced: {self.induced.render()}"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an irreducibility decision.

    ``certificate`` is "unconditional" when a witness or the constant-action
    argument settles every degree and "bounded" for an empty submodule scan,
    which reads G(d) = 1 and so also settles every degree: it is conservative.
    """

    status: str
    reason: str
    witnesses: tuple[SubmoduleWitness, ...] = ()
    certificate: str = "unconditional"

    @property
    def irreducible(self) -> bool | None:
        if self.status == "irreducible":
            return True
        if self.status == "reducible":
            return False
        return None

    def render(self) -> str:
        head = self.status
        if self.status == "irreducible" and self.certificate == "bounded":
            head = "irreducible-up-to-bound"
        lines = [f"{head}: {self.reason}"]
        lines += [f"  {w.render()}" for w in self.witnesses]
        return "\n".join(lines)


def _require_degree(max_degree) -> None:
    if isinstance(max_degree, bool) or not isinstance(max_degree, int):
        raise ValueError(f"degree bound must be an int, not {max_degree!r}")


def _require_bound_action(action: Rank1Action) -> None:
    stray = action.free_params()
    if stray:
        raise UnsupportedError(f"bind module parameters {stray} before scanning")


def _d_lists(p: Poly) -> dict[tuple[int, Mono], list]:
    """``p``, which uses no formal variable but d and x, as dense lists in d
    (constant first, ints while integral, no trailing zeros) keyed by
    (x-power, parameter monomial): the coefficients ``_extract(p, (d,))``
    reads as ``Poly``s."""
    lists: dict[tuple[int, Mono], list] = {}
    for i, j, rest, c in split_terms(p):
        row = lists.get((j, rest)) or lists.setdefault((j, rest), [])
        row.extend([0] * (i + 1 - len(row)))
        row[i] = c
    return lists


def _d_poly(reg: Registry, coeffs: Sequence) -> Poly:
    """The polynomial in d with the dense coefficient list ``coeffs``."""
    return join_terms(reg, {(i, 0, 0, ()): c for i, c in enumerate(coeffs)})


def _shifted_quotients(action: Rank1Action, monic: list):
    """Per generator g, A_g(d, x) p(d + x) divided by the monic p(d) with
    dense coefficient list ``monic``: (g, quotient, remainder), both dicts
    ``join_terms`` reads.  p(d + x) is expanded by binomials once, as lists
    in d keyed by x-power; each term c d^i x^j m of A_g adds c d^i times
    each of them into the product's list keyed by (x-power, parameter
    monomial m).  A divisor in d alone divides each list on its own, so
    ``dense_div_rem`` on each gives the quotient and remainder
    ``monic_div_rem`` gives on the whole product."""
    comb, n = math.comb, len(monic) - 1
    shift = [[comb(i + k, k) * monic[i + k] for i in range(n + 1 - k)] for k in range(n + 1)]
    for g, a in action.items():
        products: dict[tuple[int, Mono], list] = {}
        for i, j, rest, c in split_terms(a):
            for k, column in enumerate(shift):
                row = products.get((j + k, rest)) or products.setdefault((j + k, rest), [])
                row.extend([0] * (i + len(column) - len(row)))
                for e, s in enumerate(column):
                    row[i + e] += c * s
        quotient, remainder = {}, {}
        for (j, rest), row in products.items():
            while row and row[-1] == 0:
                row.pop()
            q, r = dense_div_rem(row, monic)
            quotient.update(((i, j, 0, rest), c) for i, c in enumerate(q))
            remainder.update(((i, j, 0, rest), c) for i, c in enumerate(r))
        yield g, quotient, remainder


def induced_action(alg: ConformalAlgebra, action: Rank1Action,
                   divisor: Poly) -> Rank1Action:
    """Action induced on the submodule generated by ``divisor``(d) v.

    For each generator the product A_g(d, x) divisor(d + x) must be
    divisible by divisor(d); the quotients form the induced action, which is
    re-certified before being returned.  When it fails, the source action is
    checked too, and a source that is no module is named as the culprit.
    The division runs on dense coefficient lists in d
    (``_shifted_quotients``); ``Poly``s are built only for the quotients
    and for a remainder that refutes the divisor.
    """
    _require_own_action(alg, action)
    reg = alg.registry
    if divisor.registry is not reg:
        raise DefinitionError("divisor from a different registry")
    if any(v is not reg.d for v in divisor.variables()):
        raise DefinitionError("divisor must be a polynomial in d alone")
    if divisor.is_constant():
        if divisor.constant_value() != 1:
            raise DefinitionError("a constant divisor must be the unit 1")
        return action
    (monic,) = _d_lists(divisor).values()
    if monic[-1] != 1:
        raise NonMonicDivisorError(
            f"divisor is not monic in d: leading coefficient {monic[-1]}")
    quotients = {}
    for g, quotient, remainder in _shifted_quotients(action, monic):
        if remainder:
            raise DivisibilityError(
                f"{divisor} does not generate a submodule: the action of {g} "
                f"leaves remainder {join_terms(reg, remainder)}")
        quotients[g] = join_terms(reg, quotient)
    induced = Rank1Action(alg, quotients)
    failures = check_module(alg, induced).failures()
    if failures:
        # A source action that is no module is the input at fault.
        source = check_module(alg, action).failures()
        what = f"the action {action.render()}" if source else f"action induced by {divisor}"
        bad = (source or failures)[0]
        raise DiscrepancyError(
            f"{what} fails the module identity at pair "
            f"({', '.join(bad.key)}) with residual {bad.residual}")
    return induced


def _submodule_gcd(action: Rank1Action) -> list:
    """G(d), the monic gcd in Q[d] of every x-coefficient of every action,
    as a dense coefficient list; the empty list when the action is zero.
    Euclid runs on each action's ``_d_lists``, keeping the running gcd
    monic; the monic gcd is unique, so the order of the lists is free."""
    g: list = []
    for _, p in action.items():
        for c in _d_lists(p).values():
            while c:
                if c[-1] != 1:
                    scale = Fraction(1) / c[-1]
                    c = [v * scale for v in c]
                g, c = c, dense_div_rem(g, c)[1]
    return g


def _submodule_generators(action: Rank1Action, max_degree: int) -> list[Poly]:
    """The monic divisors of G(d) of degree 1..max_degree, from G's rational roots,
    in the order ``submodules`` prints: by degree, then by rendered coefficients.

    G, each root's multiplicity (by division by d - r) and each divisor are
    dense coefficient lists in d, and the sort key is read off the lists;
    each divisor's ``Poly`` is made straight from its list, with no product."""
    reg = action.algebra.registry
    g = _submodule_gcd(action)
    if not g:
        raise UnsupportedError("the action is zero: every monic polynomial generates a submodule")
    roots, rest = [], g
    for r in rational_roots(g):
        while not (division := dense_div_rem(rest, [-r, 1]))[1]:
            roots.append(r)
            rest = division[0]
    if len(rest) > 1:
        raise UnsupportedError(
            f"the submodule gcd {_d_poly(reg, g)} has a factor with no rational root")
    divisors = []
    for chosen in dict.fromkeys(c for k in range(1, max_degree + 1)
                                for c in itertools.combinations(roots, k)):
        p = [1]  # the product of d - r over the chosen roots r
        for r in chosen:
            p = [0] + p
            for k in range(len(p) - 1):
                p[k] -= r * p[k + 1]
        divisors.append(p)
    divisors.sort(key=lambda p: (len(p) - 1, "{%s}" % "; ".join(
        f"t{i} = {c}" for i, c in enumerate(p[:-1]))))
    return [_d_poly(reg, p) for p in divisors]


def submodule_scan(alg: ConformalAlgebra, action: Rank1Action,
                   max_degree: int = 3) -> list[SubmoduleWitness]:
    """All monic p(d) of degree 1..max_degree with p(d) v generating a
    submodule, each with its induced action.

    They are the monic divisors of G(d), each re-certified by ``induced_action``;
    G = 0 (the zero action) or a factor of G with no rational root is unsupported.
    """
    _require_own_action(alg, action)
    _require_bound_action(action)
    _require_degree(max_degree)
    if max_degree < 1:
        raise ValueError("scan degree must be at least 1")
    return [SubmoduleWitness(p, induced_action(alg, action, p))
            for p in _submodule_generators(action, max_degree)]


def irreducibility_verdict(alg: ConformalAlgebra, action: Rank1Action,
                           max_degree: int = 3) -> Verdict:
    """Decide irreducibility of a bound rank-one action.

    The zero action is reducible outright.  A generator acting by a nonzero
    constant c rules out any proper submodule for every degree: p(d) would
    have to divide c p(d + x), forcing deg p = 0.  Otherwise a hit of
    ``submodule_scan`` is a reducibility witness; an empty scan means G = 1,
    irreducible at every degree, under the conservative certificate "bounded".
    """
    _require_own_action(alg, action)
    _require_bound_action(action)
    _require_degree(max_degree)
    if action.is_zero():
        witness = SubmoduleWitness(Poly.from_var(alg.registry, alg.registry.d), action)
        return Verdict("reducible", "the action is zero, so every ideal of"
                       " the polynomial ring is a submodule", (witness,))
    for g, p in action.items():
        if p.is_constant() and not p.is_zero():
            return Verdict("irreducible",
                           f"{g} acts by the nonzero constant {p.constant_value()}")
    found = submodule_scan(alg, action, max_degree)
    if found:
        return Verdict("reducible",
                       f"monic submodule generators exist (scanned through "
                       f"degree {max_degree})", tuple(found))
    return Verdict("irreducible",
                   f"no monic generator of degree <= {max_degree} spans a "
                   f"proper submodule", certificate="bounded")
