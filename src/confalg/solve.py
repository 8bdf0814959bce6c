"""Exact solver for small polynomial systems over the rationals.

Input: polynomials whose variables all come from a declared unknown list
(formal variables must already be eliminated by coefficient extraction and
algebra parameters must already be bound).  Output: the solution variety as a
finite union of affine-parametrized families, each written as assignments of
affine expressions in the remaining free unknowns, or the empty union when
the system is inconsistent.

There is one exact elimination, ``integer_echelon``, and one
back-substitution that reads each of its pivot rows as an assignment.  Every
family is the reduced echelon form of affine equations in the canonical
order of the unknowns.  An affine system, every term a constant or one
unknown to the first power, is that elimination directly: its result is the
system's one family, or the empty union when a row keeps only the constant,
and it takes no branch depth.  A caller that has the system's integer or
rational rows already (one sparse row per equation, keyed by the unknowns'
positions with the constant last, as classification stage one folds them)
passes those rows instead of ``Poly``s, and they enter the same
elimination.  It reads the rows sparsest first, and a homogeneous system
stops reading at full rank, where its only solution is zero; neither
changes the family.  Any other system goes through a branching search that
returns each component as the affine equations cutting it out, which then
go through the same elimination.  Each step of the search sorts its
equations and makes exactly one move, chosen by their shape:

- Affine: every equation of total degree at most 1 is reduced in one
  elimination, on the same rows as a family's and pivoting as a family does
  on each row's first unknown in the order of the unknowns; a row with only
  a constant means the system is inconsistent.  All pivots are substituted
  into the nonlinear remainder in one pass, and the affine equations join
  each component of its solution.
- Tier 1: a univariate equation in v branches on its rational roots r (a
  single-term one on its only root, 0); each branch adds v - r.
- Tier 2: an equation with monomial content branches on each variable v of
  the content being 0, adding v, and on the cofactor, which joins the
  system (a single-term equation is all content, so its cofactor branch is
  inconsistent).
- Tier 3: a total-degree-2 equation that factors into two affine forms over
  Q branches on the two factors, each joining the system.

Anything else raises UnsupportedSystemError naming the offending equation.

The base field is Q throughout: only rational roots of univariate residuals
are kept, so solution components with irrational or complex coordinates are
intentionally outside the reported variety.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import UnsupportedSystemError
from .poly import Poly, Var, monic_div_rem

_MAX_BRANCH_DEPTH = 400


class SolutionFamily:
    """One affine-parametrized component of a solution set.

    ``solved`` maps unknowns to affine polynomials in the ``free`` unknowns;
    unknowns not in ``solved`` are exactly the free ones.  Families produced
    by :func:`solve_system` are in a canonical form (reduced row echelon over
    the unknown order), so equal components compare equal.
    """

    __slots__ = ("unknowns", "solved", "free")

    def __init__(self, unknowns: Sequence[Var], solved: Mapping[Var, Poly], free: Sequence[Var]):
        self.unknowns = tuple(unknowns)
        self.solved = dict(solved)
        self.free = tuple(free)

    @property
    def dim(self) -> int:
        return len(self.free)

    def substitute_into(self, p: Poly) -> Poly:
        """Apply the family's assignments to ``p`` (free unknowns stay)."""
        return p.subs(self.solved)

    def point(self, free_values: Mapping[Var, Fraction] | None = None) -> dict[Var, Fraction]:
        """A concrete rational point of the family (free unknowns default 0)."""
        free_values = dict(free_values or {})
        binding = {v: Fraction(free_values.get(v, 0)) for v in self.free}
        out = dict(binding)
        for v, expr in self.solved.items():
            out[v] = expr.subs(binding).constant_value()
        return out

    def _signature(self):
        return (
            tuple(sorted(((v.index, p) for v, p in self.solved.items()))),
            tuple(v.index for v in self.free),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolutionFamily):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def render(self) -> str:
        parts = [f"{v.name} = {p}" for v, p in sorted(self.solved.items(), key=lambda kv: kv[0].index)]
        if self.free:
            parts.append("free: " + ", ".join(v.name for v in self.free))
        return "{" + "; ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"SolutionFamily{self.render()}"


class SolutionSet:
    """A finite union of affine families, each in canonical form and none
    containing another; empty means inconsistent."""

    __slots__ = ("unknowns", "families")

    def __init__(self, unknowns: Sequence[Var], families: Sequence[SolutionFamily]):
        self.unknowns = tuple(unknowns)
        self.families = tuple(families)

    @property
    def inconsistent(self) -> bool:
        return not self.families

    def __iter__(self):
        return iter(self.families)

    def __len__(self) -> int:
        return len(self.families)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolutionSet):
            return NotImplemented
        return set(self.families) == set(other.families)

    def __hash__(self) -> int:
        return hash(frozenset(self.families))

    def verify(self, eqs: Iterable[Poly]) -> bool:
        """Substitute every family back into every equation; True if all vanish."""
        for eq in eqs:
            for fam in self.families:
                if not fam.substitute_into(eq).is_zero():
                    return False
        return True

    def render(self) -> str:
        if not self.families:
            return "inconsistent"
        return " union ".join(f.render() for f in self.families)

    def __repr__(self) -> str:
        return f"SolutionSet[{self.render()}]"


# ---- helpers ---------------------------------------------------------------


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of sum(coeffs[k] * u**k), exact, sorted.

    After the zero roots are split off, a linear remainder is solved exactly;
    any higher degree goes through the Sturm search of ``_integer_roots``, in
    time polynomial in the size of the coefficients.  Complete for rational
    roots at any degree; irrational and complex roots are deliberately not
    produced.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("the zero polynomial has every root")
    if len(coeffs) == 1:
        return []
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints and ints[0] == 0:
            ints.pop(0)
    if len(ints) <= 1:
        return sorted(set(roots))
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if len(ints) == 2:
        roots.append(Fraction(-ints[0], ints[1]))
    else:
        roots += _integer_roots(ints)
    return sorted(set(roots))


def dense_div_rem(p: Sequence[Fraction | int],
                  q: Sequence[Fraction | int]) -> tuple[list, list]:
    """Quotient and remainder of dense coefficient lists in one variable
    (constant first, ints or Fractions, no trailing zeros, q nonzero); the
    zero polynomial is the empty list.  A monic q is never divided by, so
    int lists divided by a monic int q stay ints."""
    rem, n = list(p), len(q) - 1
    scale = None if q[-1] == 1 else Fraction(1) / q[-1]
    quot = [0] * max(len(rem) - n, 0)
    while len(rem) > n:
        c = rem.pop() if scale is None else rem.pop() * scale
        shift = len(rem) - n
        quot[shift] = c
        for k in range(n):
            rem[shift + k] -= c * q[k]
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _value(p: list, t):
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _integer_roots(ints: list[int]) -> list[Fraction]:
    """The rational roots of an integer polynomial p (constant term first).

    With leading coefficient a and degree n, p becomes the monic integer
    polynomial a^(n-1) p(y / a), whose rational roots are integers inside its
    Cauchy bound 1 + max |coefficient|.  The Sturm sequence of that
    polynomial and its derivative counts its distinct real roots between two
    half-integers, which are never roots, repeated factors or not; so
    bisecting the bound down to unit intervals that still hold a root costs
    O(n log bound) counts, and each unit interval's one integer is then
    tested.
    """
    lead, n = ints[-1], len(ints) - 1
    monic = [c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    sturm = [[Fraction(c) for c in monic], [Fraction(c) for c in _derivative(monic)]]
    while True:
        rem = dense_div_rem(sturm[-2], sturm[-1])[1]
        if not rem:
            break
        sturm.append([-c for c in rem])

    # Each q as the integer polynomial 2^deg(q) * m * q(t / 2), m > 0, which
    # has q's sign at t / 2.
    halves = []
    for q in sturm:
        m = math.lcm(*(c.denominator for c in q))
        halves.append([int(c * m) << (len(q) - 1 - i) for i, c in enumerate(q)])
    variations: dict[int, int] = {}

    def below(k: int) -> int:
        """Sign changes of the Sturm sequence at k + 1/2."""
        if k not in variations:
            signs = [v > 0 for v in (_value(h, 2 * k + 1) for h in halves) if v]
            variations[k] = sum(a != b for a, b in zip(signs, signs[1:]))
        return variations[k]

    bound = 1 + max(abs(c) for c in monic[:-1])
    found, todo = [], [(-bound - 1, bound)]  # (lo, hi): the integers lo+1..hi
    while todo:
        lo, hi = todo.pop()
        if below(lo) == below(hi):
            continue
        if hi - lo == 1:
            if _value(monic, hi) == 0:
                found.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        todo += [(lo, mid), (mid, hi)]
    return found


def _fraction_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    pn = math.isqrt(c.numerator)
    pd = math.isqrt(c.denominator)
    if pn * pn == c.numerator and pd * pd == c.denominator:
        return Fraction(pn, pd)
    return None


def _affine_sqrt(p: Poly) -> Poly | None:
    """An affine E with E**2 == p, or None.

    E is unique up to sign.  Its first variable v, the first one squared in
    p, gets the positive coefficient sqrt(c), c the coefficient of v**2 in p.
    Then E = sqrt(c)*v + L with L free of v, and 2*sqrt(c)*L is p's
    coefficient of v, which reads L off.
    """
    for v in p.variables():
        c = p.coeff_of(v, 2)
        if not c.is_zero():
            break
    else:
        r = _fraction_sqrt(p.constant_value()) if p.is_constant() else None
        return None if r is None else Poly.const(p.registry, r)
    r = _fraction_sqrt(c.constant_value()) if c.is_constant() else None
    if r is None:
        return None
    e = Poly.from_var(p.registry, v) * r + p.coeff_of(v, 1) * (1 / (2 * r))
    return e if e * e == p else None


def _equation_key(eq: Poly):
    return eq.total_degree(), len(eq._terms), tuple(eq.terms())


def _normalized_eqs(eqs: Iterable[Poly]) -> tuple[Poly, ...]:
    """The nonzero equations, deduplicated and sorted by ``_equation_key``,
    so a step's move does not depend on the order its equations came in."""
    return tuple(sorted({eq: None for eq in eqs if not eq.is_zero()}, key=_equation_key))


# ---- core search ------------------------------------------------------------
#
# _solve is purely functional: it maps an equation tuple to a list of
# branches, each a tuple of affine equations that cuts out one component of
# the variety.  A move adds the affine equations it splits on to each branch
# of the system it recurses into.


def _solve(eqs: Iterable[Poly], unknowns: Sequence[Var],
           depth: int) -> list[tuple[Poly, ...]]:
    eqs = _normalized_eqs(eqs)
    for eq in eqs:
        if eq.is_constant():
            return []
    if not eqs:
        return [()]
    if depth <= 0:
        raise UnsupportedSystemError("branch depth exhausted while triangularizing",
                                     min(eqs, key=_equation_key))
    return _solve_step(eqs, unknowns, depth)


def _solve_step(eqs: tuple[Poly, ...], unknowns: Sequence[Var],
                depth: int) -> list[tuple[Poly, ...]]:
    registry = eqs[0].registry
    variables = registry.all_vars()

    # Affine: eliminate every affine equation at once, substitute all pivots
    # into the nonlinear rest and solve that.
    affine = tuple(eq for eq in eqs if eq.total_degree() <= 1)
    if affine:
        assign = _pivot_assignments(_affine_rows(affine, unknowns), unknowns, registry)
        if assign is None:
            return []
        rest = [eq.subs(assign) for eq in eqs if eq.total_degree() > 1]
        return [affine + branch for branch in _solve(rest, unknowns, depth - 1)]

    def substituted(v: Var, value: Poly):
        return [e.substitute(v, value) for e in eqs]

    # Tier 1: univariate equations branch on their rational roots.
    for eq in eqs:
        vs = eq.variables()
        if len(vs) == 1:
            v = vs[0]
            coeffs = [eq.coeff_of(v, k).constant_value() for k in range(eq.degree(v) + 1)]
            out = []
            for r in rational_roots(coeffs):
                value = Poly.const(registry, r)
                root = Poly.from_var(registry, v) - value
                out += [(root,) + branch
                        for branch in _solve(substituted(v, value), unknowns, depth - 1)]
            return out
    # Tier 2: split off a common monomial factor; a single-monomial equation
    # is all content, so it branches on its variables and the constant
    # cofactor branch is inconsistent.
    for eq in eqs:
        content = None
        for m in eq._terms:
            exps = dict(m)
            if content is None:
                content = exps
            else:
                content = {i: min(e, content[i]) for i, e in exps.items() if i in content}
            if not content:
                break
        if content:
            cofactor = eq
            out = []
            zero = Poly.zero(registry)
            for idx in sorted(content):
                v = variables[idx]
                vp = Poly.from_var(registry, v)
                cofactor, _ = monic_div_rem(cofactor, vp ** content[idx], v)
                out += [(vp,) + branch
                        for branch in _solve(substituted(v, zero), unknowns, depth - 1)]
            rest = [e2 for e2 in eqs if e2 is not eq]
            out += _solve(rest + [cofactor], unknowns, depth - 1)
            return out
    # Tier 3: a degree-2 equation that factors into two affine forms.
    for eq in eqs:
        if eq.total_degree() != 2:
            continue
        for u in eq.variables():
            if eq.degree(u) != 2:
                continue
            a = eq.coeff_of(u, 2)
            if not a.is_constant():
                continue
            disc = eq.coeff_of(u, 1) ** 2 - a * eq.coeff_of(u, 0) * 4
            root = _affine_sqrt(disc)
            if root is None:
                continue
            up = Poly.from_var(registry, u)
            rest = [e2 for e2 in eqs if e2 is not eq]
            out = []
            for factor in (up * (a * 2) + eq.coeff_of(u, 1) - root,
                           up * (a * 2) + eq.coeff_of(u, 1) + root):
                out += _solve(rest + [factor], unknowns, depth - 1)
            return out
    raise UnsupportedSystemError(
        "system outside the supported shape (cannot factor or branch)", eqs[0]
    )


def _pivot_assignments(rows: Iterable[Mapping[int, Fraction | int]], unknowns: Sequence[Var],
                       registry) -> dict[Var, Poly] | None:
    """Eliminate ``rows``, keyed as ``_affine_rows`` writes them, by
    ``integer_echelon`` and solve each pivot row for its pivot, the row's
    first unknown in ``unknowns`` order: ``{pivot: -(rest of row) / pivot}``.
    Returns None when a row keeps only the constant, that is when the rows
    are inconsistent.

    The rows are read sparsest first (a stable sort by entry count), and a
    homogeneous system, no row with a nonzero constant, stops reading at
    rank ``len(unknowns)``: its pivots are all unknowns, so at that rank
    every later row is in the span.  Neither changes the result, since the
    reduced echelon form is unique and each pivot row is divided by its
    pivot entry; a system with a constant anywhere reads every row.
    """
    n = len(unknowns)
    rows = sorted(rows, key=len)
    bound = None if any(row.get(n) for row in rows) else n
    assign = {}
    for row in integer_echelon(rows, bound):
        lead = min(row)
        if lead == n:
            return None
        assign[unknowns[lead]] = Poly(registry, {
            () if k == n else ((unknowns[k].index, 1),): Fraction(-c, row[lead])
            for k, c in row.items() if k != lead}, _normalized=True)
    return assign


# ---- canonicalization --------------------------------------------------------


def _content_free(ints: dict) -> dict:
    """A nonempty integer row divided by the gcd of its entries."""
    g = math.gcd(*ints.values())
    return ints if g == 1 else {k: c // g for k, c in ints.items()}


def _primitive(row: Mapping[Hashable, Fraction | int]) -> dict | None:
    """The primitive integer multiple of a sparse rational row, zero entries
    dropped, or None for the zero row.  A one-entry row {k: c} is
    {k: sign(c)}; an all-int row is only divided by its gcd."""
    if len(row) == 1:
        (k, c), = row.items()
        return {k: 1 if c > 0 else -1} if c else None
    row = {k: c for k, c in row.items() if c}
    if not row:
        return None
    if all(type(c) is int for c in row.values()):
        return _content_free(row)
    scale = math.lcm(*(c.denominator for c in row.values()))
    return _content_free({k: c.numerator * (scale // c.denominator) for k, c in row.items()})


def _cancel(row: dict, pivot: dict, col) -> dict:
    """The integer combination ``p * row - c * pivot`` that is zero at
    ``col``, p = pivot[col] and c = row[col]; a pivot entry of 1 multiplies
    nothing."""
    p, c = pivot[col], row[col]
    out = dict(row) if p == 1 else {k: p * a for k, a in row.items()}
    for k, b in pivot.items():
        v = out.get(k, 0) - c * b
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def integer_echelon(rows: Iterable[Mapping[Hashable, Fraction | int]],
                    rank_bound: int | None = None) -> list[dict[Hashable, int]]:
    """Reduced echelon basis of the rational span of sparse ``rows``, as
    primitive integer rows ordered by pivot column.

    A row maps column keys (any mutually sortable values; the smallest key of
    a row is its leading column) to coefficients, and absent keys are zero.
    Each row is scaled to a primitive integer vector and reduced fraction-free
    against the pivot rows found so far (cross-multiplying, then dividing out
    the integer content); a surviving row becomes a new pivot and is cleared
    from the earlier ones.  Every pivot column is zero in the other rows, and
    no row holds a zero entry.  When the rank reaches ``rank_bound`` no
    further row is read, so a caller that knows the span lies in a space of
    that dimension gets a basis of that space without reducing the rest; a
    bound of 0 reads no row at all.  No input row is written to or kept, so
    a caller may pass rows it shares with others.

    Most rows the callers pass are unit rows, with one nonzero entry, and
    most of those are already spanned.  A unit row {k: c} whose column k has
    a unit pivot row {k: ±1} is dropped before it is scaled.  A unit pivot
    {k: ±1} reduces a row by deleting the row's entry at k and, for -1,
    negating the row, so a row's hits on unit pivots are cleared in one pass
    that deletes those columns and negates the row once if an odd number of
    them are -1; only wider pivots are cross-multiplied, and a pivot entry
    of 1 cancels without multiplying.  The output is the one the general
    reduction gives, signs and key order included: no pivot row holds
    another pivot's column, so deletions, negations and cross-multiplication
    commute, and none of them reorders the keys that remain.
    """
    if rank_bound == 0:
        return []
    pivots: dict = {}
    for row in rows:
        if len(row) == 1 and len(pivots.get(next(iter(row)), ())) == 1:
            continue  # spanned by the unit pivot on its column
        vec = _primitive(row)  # a new dict, so it may be written to
        if vec is None:
            continue
        hits = [k for k in vec if k in pivots]
        if hits:  # else vec is as primitive as _primitive made it
            negate = False
            wide = []
            for col in hits:
                pivot = pivots[col]
                if len(pivot) == 1:
                    del vec[col]
                    negate ^= pivot[col] < 0
                else:
                    wide.append(col)
            for col in wide:
                vec = _cancel(vec, pivots[col], col)
            if not vec:
                continue
            if negate:
                vec = {k: -c for k, c in vec.items()}
            vec = _content_free(vec)
        lead = min(vec)
        for col, prow in pivots.items():
            if lead in prow:
                pivots[col] = _content_free(_cancel(prow, vec, lead))
        pivots[lead] = vec
        if len(pivots) == rank_bound:
            break
    return [pivots[col] for col in sorted(pivots)]


def _echelon_family(unknowns: Sequence[Var], rows: Iterable[Mapping[int, Fraction | int]],
                    registry) -> SolutionFamily | None:
    """The affine space cut out by ``rows``, keyed as ``_affine_rows`` writes
    them, in reduced row echelon form over the unknown order, or None when
    the rows are inconsistent."""
    solved = _pivot_assignments(rows, unknowns, registry)
    if solved is None:
        return None
    return SolutionFamily(unknowns, solved, [v for v in unknowns if v not in solved])


def _affine_rows(eqs: Sequence[Poly], unknowns: Sequence[Var]) -> list[dict] | None:
    """One sparse row per equation, keyed by the unknowns' positions with the
    constant at ``len(unknowns)``, or None unless every term of every
    equation is a constant or one of the ``unknowns`` to the first power."""
    if not eqs:
        return []
    registry = eqs[0].registry
    if not all(registry.has(v) for v in unknowns):
        return None
    position = {v.index: i for i, v in enumerate(unknowns)}
    n = len(unknowns)
    rows = []
    for eq in eqs:
        if eq.registry is not registry:
            return None
        row = {}
        for m, c in eq._terms.items():
            if not m:
                row[n] = c
            elif len(m) == 1 and m[0][1] == 1 and m[0][0] in position:
                row[position[m[0][0]]] = c
            else:
                return None
        rows.append(row)
    return rows


def _union(unknowns: Sequence[Var], families: Iterable[SolutionFamily],
           registry) -> SolutionSet:
    """The union of canonical ``families``: deduplicated, with contained
    components absorbed and families sorted by (dim, render)."""
    uniq = list(dict.fromkeys(families))
    # Distinct canonical families are distinct affine spaces, so no two
    # contain each other.
    kept = [fam for fam in uniq
            if not any(other is not fam and _family_contains(other, fam, registry)
                       for other in uniq)]
    kept.sort(key=lambda f: (f.dim, f.render()))
    return SolutionSet(unknowns, kept)


def _family_contains(big: SolutionFamily, small: SolutionFamily, registry) -> bool:
    """True if every point of ``small`` lies in ``big``."""
    if small.dim > big.dim:
        return False
    param = dict(small.solved)
    for v, expr in big.solved.items():
        lhs = param.get(v)
        if lhs is None:
            lhs = Poly.from_var(registry, v)
        if not (lhs - expr.subs(param)).is_zero():
            return False
    return True


def solve_system(eqs: Sequence[Poly] | Sequence[Mapping[int, Fraction | int]],
                 unknowns: Sequence[Var], *, registry=None) -> SolutionSet:
    """Solve a polynomial system exactly over Q.

    Every equation must be a polynomial purely in the listed unknowns (extract
    formal-variable coefficients and bind algebra parameters first).  Returns
    the full variety as a union of affine families; an empty union means the
    system is inconsistent.  An affine system is one elimination in the
    canonical order of ``unknowns``, whose reduced echelon form is its one
    family; it takes no branch depth.  The elimination reads the rows
    sparsest first and stops a homogeneous one at rank ``len(unknowns)``,
    so a system whose only solution is zero leaves its last rows unread.
    Any other system goes through the branching search, whose branches of
    affine equations each go through the same elimination, and raises
    UnsupportedSystemError when the bounded search cannot triangularize it.

    An affine system may also be given as its rows, keyed as ``_affine_rows``
    writes them (each unknown's position in ``unknowns``, the constant at
    ``len(unknowns)``) with int or ``Fraction`` entries, together with the
    ``registry`` of the unknowns, in which the family's ``Poly``s are built.
    With ``registry`` set, ``eqs`` are such rows; they go straight into the
    same elimination, so both forms give the same canonical family.
    """
    unknowns = list(unknowns)
    eqs = list(eqs)
    if registry is None:
        rows = _affine_rows(eqs, unknowns)
        registry = eqs[0].registry if eqs else None
    else:
        rows = eqs
    if rows is not None:
        family = _echelon_family(unknowns, rows, registry)
        return SolutionSet(unknowns, () if family is None else (family,))
    unknown_set = set(unknowns)
    for eq in eqs:
        stray = [v.name for v in eq.variables() if v not in unknown_set]
        if stray:
            raise UnsupportedSystemError(
                f"equation mentions non-unknown variables {stray}", eq
            )
    branches = _solve(eqs, unknowns, _MAX_BRANCH_DEPTH)
    if len(branches) > 512:
        raise UnsupportedSystemError(
            f"solution decomposition exploded into {len(branches)} components", eqs[0]
        )
    families = []
    for branch in branches:
        family = _echelon_family(unknowns, _affine_rows(branch, unknowns), registry)
        if family is None:
            raise UnsupportedSystemError("solver branch is inconsistent",
                                         "{" + "; ".join(map(str, branch)) + "}")
        families.append(family)
    return _union(unknowns, families, registry)
