"""Exact multivariate polynomials over the rationals.

Everything downstream computes with four fixed formal variables, written in
ASCII as ``d`` (the translation generator, TeX \\partial), ``x`` (the bracket
variable \\lambda), ``y`` (the auxiliary bracket variable \\mu) and ``z``
(reserved, \\nu), plus any number of named parameters (``a``, ``b``,
``alpha``, ...).  Variables live in an append-only :class:`Registry`;
polynomials that interact must share one.

A :class:`Poly` is an immutable sparse map from exponent monomials to
:class:`fractions.Fraction` coefficients, always in canonical form: no zero
coefficients, exponent maps sorted by variable index, and term order graded
lexicographic over the registry order (d < x < y < z < parameters in
registration order).  Canonical form makes rendering deterministic, so equal
polynomials print identically byte for byte.

Parameters are ordinary polynomial variables and never appear in
denominators; the only divisions performed anywhere are by nonzero rational
constants and by divisors that are monic in the division variable.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .errors import DefinitionError, NonMonicDivisorError, ParseError, RegistryError

Scalar = Union[int, Fraction]
#: Exponent map: ((variable index, exponent), ...) sorted by index, exponents > 0.
Mono = tuple

FORMAL = "formal"
PARAMETER = "parameter"

_FORMAL_NAMES = ("d", "x", "y", "z")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Var:
    """A registered variable.  Identity (the object itself) is the key; two
    registries never share Var instances."""

    __slots__ = ("name", "kind", "index")

    def __init__(self, name: str, kind: str, index: int):
        self.name = name
        self.kind = kind
        self.index = index

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.kind})"


def is_name(text: str) -> bool:
    """Whether ``text`` is a name the expression grammar reads as one atom."""
    return _NAME_RE.match(text) is not None


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` for ASCII text without whitespace (``3``, ``-1/2``,
    ``1.5``, ``1e3``); other text, or a zero denominator, raises ValueError."""
    try:
        if text.isascii() and not any(c.isspace() for c in text):
            return Fraction(text)
    except ZeroDivisionError:
        pass
    raise ValueError(f"not a rational number: {text!r}")


class Registry:
    """Append-only table of variables shared by interacting polynomials.

    The first four slots always hold the formal variables ``d, x, y, z``;
    parameters are appended in registration order.  The index order fixes the
    graded-lexicographic term order used everywhere.  Registration and lookup
    are guarded by a lock so a registry can be shared across threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._vars: list[Var] = []
        self._by_name: dict[str, Var] = {}
        for name in _FORMAL_NAMES:
            self._append(name, FORMAL)
        self.d, self.x, self.y, self.z = self._vars

    def _append(self, name: str, kind: str) -> Var:
        v = Var(name, kind, len(self._vars))
        self._vars.append(v)
        self._by_name[name] = v
        return v

    def param(self, name: str) -> Var:
        """Return the parameter named ``name``, registering it if new."""
        if not is_name(name):
            raise RegistryError(f"invalid variable name {name!r}")
        with self._lock:
            v = self._by_name.get(name)
            if v is not None:
                if v.kind != PARAMETER:
                    raise RegistryError(f"{name!r} is a formal variable, not a parameter")
                return v
            return self._append(name, PARAMETER)

    def params(self, *names: str) -> tuple[Var, ...]:
        return tuple(self.param(n) for n in names)

    def var(self, name: str) -> Var:
        """Look up an existing variable by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise RegistryError(f"unknown variable {name!r}") from None

    def has_name(self, name: str) -> bool:
        return name in self._by_name

    def has(self, v: Var) -> bool:
        return 0 <= v.index < len(self._vars) and self._vars[v.index] is v

    def all_vars(self) -> tuple[Var, ...]:
        return tuple(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def name_of(self, index: int) -> str:
        return self._vars[index].name


def mono_mul(a: Mono, b: Mono) -> Mono:
    """The product of two exponent maps."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for idx, e in b:
        out[idx] = out.get(idx, 0) + e
    return tuple(sorted(out.items()))


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Mono):
    # Graded lex: total degree first, then the exponent vector read along
    # increasing variable index.  Sparse maps never store trailing zeros, so
    # tuple comparison of the dense prefixes is well defined.
    if not m:
        return (0, ())
    arr = [0] * (m[-1][0] + 1)
    for idx, e in m:
        arr[idx] = e
    return (_mono_degree(m), tuple(arr))


def _mentions(terms: Iterable[Mono], indices) -> bool:
    """Whether some monomial uses a variable whose index is in ``indices``."""
    for m in terms:
        for idx, _ in m:
            if idx in indices:
                return True
    return False


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


# ---- rendering terms ---------------------------------------------------------


class Spelling(NamedTuple):
    """How rendered terms spell their parts: a variable name, a power of a
    spelled base, the product sign between factors (and after a coefficient),
    and a rational coefficient."""

    var: Callable[[str], str]
    power: Callable[[str, int], str]
    times: str
    coeff: Callable[[Fraction], str]


TEXT = Spelling(var=str, power="{}^{}".format, times="*", coeff=str)


def scaled(coeff: Fraction, atom: str, spelling: Spelling = TEXT) -> str:
    """``coeff`` times ``atom`` with a coefficient of 1 or -1 left out.  An
    empty atom stands for 1, so a constant is its spelled coefficient."""
    if not atom:
        return spelling.coeff(coeff)
    if coeff == 1:
        return atom
    if coeff == -1:
        return "-" + atom
    return spelling.coeff(coeff) + spelling.times + atom


def signed_sum(pieces: Iterable[str]) -> str:
    """Join rendered terms as ``a + b - c``: a piece with a leading '-' is
    subtracted.  The empty sum is "0"."""
    out = []
    for piece in pieces:
        if not out:
            out.append(piece)
        elif piece.startswith("-"):
            out.append("- " + piece[1:])
        else:
            out.append("+ " + piece)
    return " ".join(out) or "0"


def render_terms(registry: Registry, terms: Mapping[Mono, Scalar],
                 spelling: Spelling = TEXT) -> str:
    """``{monomial: nonzero coefficient}`` as ``Poly.render`` spells the
    polynomial: the terms in canonical order as a signed sum.  Coefficients
    may be ints or Fractions; an int is spelled as its Fraction would be."""
    def factor(index: int, exp: int) -> str:
        base = spelling.var(registry.name_of(index))
        return base if exp == 1 else spelling.power(base, exp)

    return signed_sum(scaled(c, spelling.times.join(factor(i, e) for i, e in m), spelling)
                      for m, c in sorted(terms.items(), key=lambda t: _mono_key(t[0]),
                                         reverse=True))


class Poly:
    """Immutable exact polynomial in canonical sparse form."""

    __slots__ = ("registry", "_terms", "_hash")

    def __init__(self, registry: Registry, terms: Mapping[Mono, Fraction], *, _normalized=False):
        self.registry = registry
        if _normalized:
            self._terms = dict(terms)
        else:
            self._terms = {m: c for m, c in terms.items() if c != 0}
        self._hash = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def const(cls, registry: Registry, value: Scalar) -> "Poly":
        c = _as_fraction(value)
        return cls(registry, {(): c} if c else {}, _normalized=True)

    @classmethod
    def zero(cls, registry: Registry) -> "Poly":
        return cls(registry, {}, _normalized=True)

    @classmethod
    def one(cls, registry: Registry) -> "Poly":
        return cls.const(registry, 1)

    @classmethod
    def from_var(cls, registry: Registry, v: Var) -> "Poly":
        if not registry.has(v):
            raise RegistryError(f"variable {v.name!r} does not belong to this registry")
        return cls(registry, {((v.index, 1),): Fraction(1)}, _normalized=True)

    # ---- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_constant():
            return self._terms[()]
        raise ValueError(f"not a constant polynomial: {self}")

    def terms(self) -> list[tuple[Mono, Fraction]]:
        """Term list in canonical (graded lex, descending) order."""
        return sorted(self._terms.items(), key=lambda t: _mono_key(t[0]), reverse=True)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((_mono_degree(m) for m in self._terms), default=-1)

    def degree(self, v: Var) -> int:
        """Degree in ``v``; -1 for the zero polynomial."""
        self._check_var(v)
        if not self._terms:
            return -1
        best = 0
        for m in self._terms:
            for idx, e in m:
                if idx == v.index and e > best:
                    best = e
        return best

    def variables(self) -> tuple[Var, ...]:
        """Variables with nonzero exponent, in registry order."""
        seen = set()
        for m in self._terms:
            for idx, _ in m:
                seen.add(idx)
        return tuple(self.registry._vars[i] for i in sorted(seen))

    def _check_var(self, v: Var) -> None:
        if not self.registry.has(v):
            raise RegistryError(f"variable {v.name!r} does not belong to this registry")

    # ---- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.registry is not self.registry:
                raise RegistryError("polynomials from different registries cannot be combined")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.registry, other)
        return None

    def __add__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in q._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.registry, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.registry, {m: -c for m, c in self._terms.items()}, _normalized=True)

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly.zero(self.registry)
            return Poly(self.registry, {m: v * c for m, v in self._terms.items()}, _normalized=True)
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in q._terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(self.registry, out, _normalized=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        # Division by a nonzero rational constant only.
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if n == 0:
            return Poly.one(self.registry)
        out = None
        base = self
        k = n
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.registry is other.registry and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((id(self.registry), frozenset(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ---- structural operations ------------------------------------------

    def coeff_of(self, v: Var, k: int) -> "Poly":
        """Coefficient of ``v**k``, a polynomial free of ``v``."""
        self._check_var(v)
        out: dict[Mono, Fraction] = {}
        for m, c in self._terms.items():
            e = 0
            rest = []
            for idx, exp in m:
                if idx == v.index:
                    e = exp
                else:
                    rest.append((idx, exp))
            if e == k:
                out[tuple(rest)] = out.get(tuple(rest), Fraction(0)) + c
        return Poly(self.registry, out)

    def substitute(self, v: Var, replacement: "Poly | Scalar") -> "Poly":
        """Substitute ``replacement`` for ``v`` (single pass, so occurrences of
        ``v`` inside the replacement are not rewritten again)."""
        return self.subs({v: replacement})

    def subs(self, mapping: Mapping[Var, "Poly | Scalar"]) -> "Poly":
        """Simultaneous substitution of several variables.

        Returns ``self`` itself when no mapped variable occurs, so untouched
        polynomials keep their cached hash.
        """
        if not mapping:
            return self
        repl: dict[int, Poly] = {}
        for v, r in mapping.items():
            self._check_var(v)
            p = r if isinstance(r, Poly) else Poly.const(self.registry, r)
            if p.registry is not self.registry:
                raise RegistryError("replacement polynomial from a different registry")
            repl[v.index] = p
        if not _mentions(self._terms, repl):
            return self
        # Each distinct replaced part of a monomial, e.g. d^2 x under
        # {d: d + x, x: y}, expands once; every term then scatters its
        # coefficient times that expansion into one accumulator.
        powers: dict[tuple[int, int], Poly] = {}
        expansions: dict[Mono, dict[Mono, Fraction]] = {}
        out: dict[Mono, Fraction] = {}
        for m, c in self._terms.items():
            rest = []
            hit = []
            for idx, e in m:
                (hit if idx in repl else rest).append((idx, e))
            key = tuple(hit)
            expansion = expansions.get(key)
            if expansion is None:
                prod = None
                for factor in key:
                    power = powers.get(factor)
                    if power is None:
                        power = powers[factor] = repl[factor[0]] ** factor[1]
                    prod = power if prod is None else prod * power
                expansion = expansions[key] = {(): Fraction(1)} if prod is None else prod._terms
            rest = tuple(rest)
            for fm, fc in expansion.items():
                mono = mono_mul(rest, fm)
                out[mono] = out.get(mono, 0) + c * fc
        return Poly(self.registry, out)

    # ---- rendering -------------------------------------------------------

    def render(self, spelling: Spelling = TEXT) -> str:
        """The terms in canonical order as a signed sum, spelled by
        ``spelling`` (plain text by default)."""
        return render_terms(self.registry, self._terms, spelling)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---- sums of symbols with polynomial coefficients ------------------------------


class Combination:
    """A finite sum of symbols with :class:`Poly` coefficients.

    The shared core of lambda-bracket values (``LambdaElement``) and
    coefficient-algebra elements (``AnnElement``).  A subclass chooses which
    coefficients it accepts (``_coefficient``), the order in which ``items``
    lists the symbols (``_order``), and how ``render`` joins the terms.
    """

    __slots__ = ("registry", "_coeffs")

    def __init__(self, registry: Registry, coeffs: Mapping | None = None):
        self.registry = registry
        self._coeffs = {}
        for symbol, c in (coeffs or {}).items():
            p = self._coefficient(symbol, c)
            if not p.is_zero():
                self._coeffs[symbol] = p

    def _coefficient(self, symbol, c) -> Poly:
        if c.registry is not self.registry:
            raise DefinitionError("coefficient polynomial from a different registry")
        return c

    @staticmethod
    def _order(symbol):
        raise NotImplementedError

    @classmethod
    def of(cls, registry: Registry, symbol):
        return cls(registry, {symbol: Poly.one(registry)})

    def coeff(self, symbol) -> Poly:
        return self._coeffs.get(symbol, Poly.zero(self.registry))

    def items(self) -> list[tuple[object, Poly]]:
        return [(s, self._coeffs[s]) for s in sorted(self._coeffs, key=self._order)]

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._coeffs)
        for s, p in other._coeffs.items():
            out[s] = out.get(s, Poly.zero(self.registry)) + p
        return type(self)(self.registry, out)

    def __neg__(self):
        return self.map_coeffs(lambda p: -p)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: "Poly | Scalar"):
        return self.map_coeffs(lambda p: p * factor)

    def map_coeffs(self, fn):
        return type(self)(self.registry, {s: fn(p) for s, p in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.registry is other.registry and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((id(self.registry), frozenset(self._coeffs.items())))

    def rendered_terms(self, spelling: Spelling = TEXT, symbol: Callable = str,
                       group: str = "({}) {}") -> list[str]:
        """Each term in ``items`` order: a constant coefficient through
        :func:`scaled`, any other as ``group`` filled with the polynomial
        and the symbol, all spelled by ``spelling``."""
        return [scaled(p.constant_value(), symbol(s), spelling) if p.is_constant()
                else group.format(p.render(spelling), symbol(s)) for s, p in self.items()]

    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


# ---- closed-form term dicts ---------------------------------------------------


def split_terms(p: Poly) -> list[tuple[int, int, Mono, Scalar]]:
    """The terms c*d^i*x^j*rest of ``p``, which uses no formal variable but d
    and x, as (i, j, rest, c): rest a monomial in parameters only and c an
    int while it is integral."""
    out = []
    for m, c in p._terms.items():
        i = j = 0
        if m and m[0][0] == 0:
            i, m = m[0][1], m[1:]
        if m and m[0][0] == 1:
            j, m = m[0][1], m[1:]
        out.append((i, j, m, c.numerator if c.denominator == 1 else c))
    return out


def join_terms(registry: Registry, acc: Mapping[tuple[int, int, int, Mono], Scalar]) -> Poly:
    """The sum of c*d^p*x^q*y^r*rest over ``acc``, the dict a closed-form
    expansion adds into, keyed by (p, q, r, rest) with rest a monomial in
    parameters only.  Zero coefficients are dropped and the others become
    ``Fraction``s, so the result is canonical."""
    terms = {}
    for (p, q, r, rest), c in acc.items():
        if c:
            mono = tuple(t for t in ((0, p), (1, q), (2, r)) if t[1]) + rest
            terms[mono] = c if isinstance(c, Fraction) else Fraction(c)
    return Poly(registry, terms, _normalized=True)


# ---- division ------------------------------------------------------------


def monic_div_rem(p: Poly, divisor: Poly, v: Var) -> tuple[Poly, Poly]:
    """Exact division of ``p`` by a divisor monic in ``v``.

    Returns (quotient, remainder) with ``p == quotient*divisor + remainder``
    and ``remainder`` of strictly smaller ``v``-degree than the divisor.
    Monicity means the leading ``v``-coefficient is the constant 1, so the
    algorithm never divides by anything.
    """
    if divisor.registry is not p.registry:
        raise RegistryError("dividend and divisor use different registries")
    dd = divisor.degree(v)
    if dd < 0:
        raise NonMonicDivisorError("division by the zero polynomial")
    lead = divisor.coeff_of(v, dd)
    if not (lead.is_constant() and lead.constant_value() == 1):
        raise NonMonicDivisorError(
            f"divisor is not monic in {v.name}: leading coefficient {lead}"
        )
    vp = Poly.from_var(p.registry, v)
    q = Poly.zero(p.registry)
    r = p
    while True:
        dr = r.degree(v)
        if dr < dd or r.is_zero():
            break
        t = r.coeff_of(v, dr) * vp ** (dr - dd)
        q = q + t
        r = r - t * divisor
    return q, r


def group_coefficients(p: Poly, unknowns: Iterable[Var]) -> dict[Mono, Poly]:
    """Split ``p`` by the exponents of everything except ``unknowns``.

    Returns a map from monomials in the non-unknown variables to polynomial
    coefficients in the unknowns.  Demanding that ``p`` vanish identically in
    the non-unknowns is demanding that every returned value be zero, which is
    how bracket and module residuals become equation systems.
    """
    unknown_idx = set()
    for v in unknowns:
        if not p.registry.has(v):
            raise RegistryError(f"variable {v.name!r} does not belong to this registry")
        unknown_idx.add(v.index)
    out: dict[Mono, dict[Mono, Fraction]] = {}
    for m, c in p._terms.items():
        outer = tuple((i, e) for i, e in m if i not in unknown_idx)
        inner = tuple((i, e) for i, e in m if i in unknown_idx)
        bucket = out.setdefault(outer, {})
        bucket[inner] = bucket.get(inner, Fraction(0)) + c
    return {
        outer: Poly(p.registry, inner, _normalized=True)
        for outer, inner in sorted(out.items(), key=lambda kv: _mono_key(kv[0]))
    }


# ---- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/])"
)


def _tokenize(text: str, line: int | None = None) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line=line, column=pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser for the shared expression grammar.

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor (['*'] factor)*          juxtaposition multiplies
    factor  := primary ['^' integer]
    primary := integer ['/' integer] | name | '(' expr ')'

    ``atom`` resolves names to ring elements; integers become Fractions.
    Every value must support +, binary and unary -, * and ** with integer
    exponents.
    """

    def __init__(self, tokens, atom: Callable[[str, int], object], line: int | None = None):
        self.tokens = tokens
        self.atom = atom
        self.line = line
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, message: str, column=None):
        raise ParseError(message, line=self.line, column=column)

    def parse(self):
        value = self.expr()
        kind, text, col = self.peek()
        if kind is not None:
            self.error(f"unexpected {text!r}", col)
        return value

    def expr(self):
        sign = 1
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.take()
            sign = -1 if text == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.take()
                value = value * self.factor()
            elif kind in ("int", "name") or (kind == "op" and text == "("):
                value = value * self.factor()
            else:
                return value

    def factor(self):
        value = self.primary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            kind, text, col = self.take()
            if kind != "int":
                self.error("exponent must be a nonnegative integer", col)
            value = value ** int(text)
        return value

    def primary(self):
        kind, text, col = self.take()
        if kind == "int":
            value = Fraction(int(text))
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "/":
                self.take()
                dkind, dtext, dcol = self.take()
                if dkind != "int" or int(dtext) == 0:
                    self.error("rational literals need a positive integer denominator", dcol)
                value = Fraction(int(text), int(dtext))
            return value
        if kind == "name":
            try:
                return self.atom(text, col)
            except RegistryError as exc:
                self.error(str(exc), col)
        if kind == "op" and text == "(":
            value = self.expr()
            kind, text, col = self.take()
            if not (kind == "op" and text == ")"):
                self.error("expected ')'", col)
            return value
        if kind == "op" and text == "/":
            self.error("'/' is only allowed between integer literals", col)
        self.error("expected a number, name, or '('", col)


def parse_expression(text: str, atom: Callable[[str, int], object], line: int | None = None):
    """Parse ``text`` with names resolved through ``atom``; see _ExprParser."""
    return _ExprParser(_tokenize(text, line), atom, line).parse()


def parse_poly(registry: Registry, text: str) -> Poly:
    """Parse the polynomial grammar against an existing registry.

    Names must already be registered (the formal variables always are);
    unknown names raise a ParseError naming them.
    """
    def atom(name: str, _col: int) -> Poly:
        return Poly.from_var(registry, registry.var(name))

    value = parse_expression(text, atom)
    if isinstance(value, Fraction):
        return Poly.const(registry, value)
    return value
