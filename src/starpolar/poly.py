"""Sparse homogeneous forms in the primal ring S = k[x0..xn] and the dual
ring T = k[y0..yn], with the contraction action of T on S.

A monomial is an exponent tuple of length ``num_vars``; a form stores a
map from monomials to nonzero coefficients.  The canonical monomial order
is lexicographic with x0 > x1 > ... > xn inside a fixed total degree, so
the degree-d basis starts at x0^d.  Contraction lets y_j act as the true
partial derivative d/dx_j (falling-factorial multiplicities appear), so
an operator of degree e sends a degree-d form to a degree d-e form and
annihilates everything whenever e exceeds d.

Contraction reads F through index rows (`contraction_row`), cached per
(num_vars, beta, d - e) like `shift_table`: for the operator term y^beta
and each degree-(d - e) monomial gamma, the monomial beta + gamma and the
falling factorial (beta + gamma)!/gamma!.  An operator term walks the
shorter of its row and F's terms, so no dense table is ever built.

Over F_p a form holds its prime and one map of int residues in [1, p),
as the mod-p kernels of `linalg` do; `Form.terms` shows them as `Fp`s,
built on first read.  The forms this module derives (sums, negations,
scalar multiples, products, powers, contractions, `form_from_vector`)
are built on residues by `Form._trusted`, with no check and no `Fp`:
their exponent tuples are valid by construction, and zero coefficients
are dropped as they are formed.  `field_terms` hands the loops the maps
of forms over their common field.  `Form(...)` validates every exponent
tuple and degree, as outside input needs, and reduces every coefficient
to a residue once when any of them is an `Fp`.

The values of the degree-t monomials at a set of points come as one
array (`monomial_table`): int64 residues over F_p, exact scalars over Z
and Q.  The ideal layer hands it straight to `linalg`, and
`linear_power_table` multiplies it by the multinomials, cached per
(num_vars, degree, p), for the coefficients of the powers of linear
forms that the Jacobian and the Waring solve read.

Text grammar (whitespace-insensitive)::

    expr    :=  ['+'|'-'] term { ('+'|'-') term }
    term    :=  factor { '*' factor }
    factor  :=  primary [ '^' integer ]
    primary :=  integer [ '/' integer ] | variable | '(' expr ')'

where a variable is ``x<k>`` or ``y<k>`` (primal/dual may not be mixed).
Arbitrary parenthesized arithmetic is accepted: the parser expands it
with `Form` products over ``Fraction`` coefficients, one form per total
degree, and sums merge term maps, so a long sum parses in linear time;
homogeneity is checked on the expanded result.  The canonical
printed format uses explicit ``*`` and ``^`` with terms in canonical
order, e.g. ``x0^3 - x1^2*x2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

import numpy as np

from .field import Fp, residue, residue_array

PRIMAL = "x"
DUAL = "y"
# parser limits: x0^e expands in time linear in e; an index sets term width;
# one parse's term-pair products (cubic in e for (x0+x1+x2)^e) bound its work
MAX_EXPONENT = 1000
MAX_VARIABLE_INDEX = 1000
MAX_TERM_PRODUCTS = 50_000


@lru_cache(maxsize=None)
def monomial_basis(num_vars: int, degree: int):
    """All exponent tuples of the given total degree, in canonical order."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")

    def gen(k, d):
        if k == 1:
            yield (d,)
            return
        for e in range(d, -1, -1):
            for rest in gen(k - 1, d - e):
                yield (e,) + rest

    return tuple(gen(num_vars, degree))


@lru_cache(maxsize=None)
def basis_index(num_vars: int, degree: int):
    """Monomial -> position map for the canonical basis."""
    return {m: i for i, m in enumerate(monomial_basis(num_vars, degree))}


@lru_cache(maxsize=None)
def shift_table(num_vars: int, shift: int, degree: int):
    """Where multiplying by a monomial sends each basis monomial, as a
    read-only int64 array.

    One row per degree-``shift`` monomial m, in canonical order; entry i is
    the position of m * b_i in the degree-(shift + degree) basis, where b_i
    is the i-th degree-``degree`` basis monomial.
    """
    idx = basis_index(num_vars, shift + degree)
    basis = monomial_basis(num_vars, degree)
    table = np.array([[idx[tuple(a + e for a, e in zip(m, b))] for b in basis]
                      for m in monomial_basis(num_vars, shift)], dtype=np.int64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def contraction_row(num_vars: int, beta: tuple, degree: int):
    """How the operator y^beta reads a form of degree |beta| + ``degree``.

    One entry per degree-``degree`` basis monomial gamma, in canonical order:
    the monomial beta + gamma, whose coefficient in F lands on gamma, and
    the falling factorial (beta + gamma)! / gamma!.  Returned as the pair
    (monomials, factors); F's terms are looked up by monomial, so no index
    of F's whole degree is built.
    """
    alphas = tuple(tuple(map(add, beta, gamma))
                   for gamma in monomial_basis(num_vars, degree))
    return alphas, tuple(math.prod(map(math.perm, a, beta)) for a in alphas)


def field_terms(*forms):
    """(p, term maps) of the forms, as the loops of this module read them.

    p is the forms' common prime, None when no form has one; two primes
    raise ``ValueError``.  Over F_p a form of that prime gives its own
    residue map, not a copy, and a form with no prime gives its int or
    `Fraction` coefficients reduced mod p (`field.residue`), nonzero ones
    only.  With p None each map is the form's own scalars.  Callers only
    read the maps.
    """
    p = None
    for f in forms:
        q = f.prime
        if q is not None and q != p:
            if p is not None:
                raise ValueError(f"mixed prime-field moduli {p} and {q}")
            p = q
    if p is None:
        return None, [f._map for f in forms]
    return p, [f._map if f.prime == p else _residue_map(f._map, p) for f in forms]


def _residue_map(terms: dict, p: int) -> dict:
    """The nonzero residues mod p of a term map's coefficients."""
    out = {}
    for mono, c in terms.items():
        v = residue(c, p)
        if v is None:
            raise TypeError(f"cannot read a {type(c).__name__} coefficient in F_{p}")
        if v:
            out[mono] = v
    return out


def _term_products(left: dict, right: dict, p) -> dict:
    """The term map of the product of two term maps of `field_terms`
    values, each sum reduced mod p over F_p and dropped once it is zero."""
    terms = {}
    get = terms.get
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            mono = tuple(map(add, m1, m2))
            s = get(mono, 0) + c1 * c2
            if p is not None:
                s %= p
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
    return terms


def multinomial(d: int, exponents) -> int:
    out = math.factorial(d)
    for e in exponents:
        out //= math.factorial(e)
    return out


class Form:
    """A homogeneous form: ring tag, variable count, degree, sparse terms.

    Zero coefficients are never stored; the zero form has an empty term
    map but keeps its declared degree.  Over F_p the form holds its
    ``prime`` and one map of int residues in [1, p); `terms` shows them as
    `Fp`s.  Over Z and Q ``prime`` is None and the map holds the scalars
    as given.  A form with no terms has no prime.  Forms are immutable by
    convention.
    """

    __slots__ = ("ring", "num_vars", "degree", "prime", "_map", "_view")

    def __init__(self, ring: str, num_vars: int, degree: int, terms: dict):
        if ring not in (PRIMAL, DUAL):
            raise ValueError(f"unknown ring tag {ring!r}")
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean, p = {}, None
        for mono, c in terms.items():
            if not c:
                continue
            if len(mono) != num_vars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono} for {num_vars} variables")
            if sum(mono) != degree:
                raise ValueError(
                    f"term {mono} has degree {sum(mono)}, expected {degree}")
            if p is None and isinstance(c, Fp):
                p = c.p
            clean[mono] = c
        if p is not None:
            clean = _residue_map(clean, p)
        self._set(ring, num_vars, degree, clean, p)

    def _set(self, ring, num_vars, degree, terms, p):
        self.ring, self.num_vars, self.degree = ring, num_vars, degree
        self.prime = p if terms else None
        self._map, self._view = terms, None

    @property
    def terms(self) -> dict:
        """The term map: the coefficients as given over Z and Q; over F_p
        their `Fp`s, built on first read and kept.  Read only."""
        if self.prime is None:
            return self._map
        if self._view is None:
            p = self.prime
            self._view = {m: Fp(v, p) for m, v in self._map.items()}
        return self._view

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, ring: str, num_vars: int, degree: int, terms: dict,
                 p=None) -> "Form":
        """A form from parts already known valid, with no check: nonzero
        coefficients on exponent tuples of ``num_vars`` entries summing to
        ``degree``, residues in [1, p) with a prime p, else scalars of Z or
        Q.  Only forms this module derives from valid forms or from a
        canonical basis are built this way (module docstring)."""
        f = object.__new__(cls)
        f._set(ring, num_vars, degree, terms, p)
        return f

    @classmethod
    def zero(cls, ring: str, num_vars: int, degree: int = 0) -> "Form":
        return cls(ring, num_vars, degree, {})

    @classmethod
    def monomial(cls, ring: str, exponents, coeff=1) -> "Form":
        exponents = tuple(exponents)
        return cls(ring, len(exponents), sum(exponents), {exponents: coeff})

    @classmethod
    def linear(cls, ring: str, coeffs) -> "Form":
        coeffs = list(coeffs)
        n = len(coeffs)
        return cls(ring, n, 1, {tuple(int(j == k) for j in range(n)): c
                                for k, c in enumerate(coeffs) if c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._map

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        try:
            # beside an F_p form, a form with no prime is read mod p
            _, (mine, theirs) = field_terms(self, other)
        except (ValueError, TypeError):
            return False
        return self.ring == other.ring and self.num_vars == other.num_vars and mine == theirs

    def __bool__(self):
        return bool(self._map)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Form"):
        if self.ring != other.ring or self.num_vars != other.num_vars:
            raise ValueError("forms live in different rings")

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check_ring(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degrees {self.degree} and {other.degree}")
        p, (left, right) = field_terms(self, other)
        terms = dict(left)
        get = terms.get
        for mono, c in right.items():
            s = get(mono, 0) + c
            if p is not None:
                s %= p
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return Form._trusted(self.ring, self.num_vars, self.degree, terms, p)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        p = self.prime
        return Form._trusted(self.ring, self.num_vars, self.degree,
                             {m: -c if p is None else p - c for m, c in self._map.items()}, p)

    def __mul__(self, other):
        if isinstance(other, Form):
            self._check_ring(other)
            p, (left, right) = field_terms(self, other)
            return Form._trusted(self.ring, self.num_vars, self.degree + other.degree,
                                 _term_products(left, right, p), p)
        # scalar scaling; a product can vanish (an F_p form times p)
        p = other.p if self.prime is None and isinstance(other, Fp) else self.prime
        if p is None:
            return Form._trusted(self.ring, self.num_vars, self.degree,
                                 {m: s for m, c in self._map.items() if (s := c * other)})
        v = residue(other, p)
        if v is None:
            return NotImplemented
        terms = self._map if self.prime else _residue_map(self._map, p)
        return Form._trusted(self.ring, self.num_vars, self.degree,
                             {m: s for m, c in terms.items() if (s := c * v % p)}, p)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        """The e-th power, by e term-pair passes against this form's terms,
        on its residues over F_p, so f^0 over F_p is the one of F_p."""
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        p, (terms,) = field_terms(self)
        out = {(0,) * self.num_vars: 1}
        for _ in range(e):
            out = _term_products(out, terms, p)
        return Form._trusted(self.ring, self.num_vars, self.degree * e, out, p)

    def __str__(self):
        return format_form(self)

    def __repr__(self):
        return f"Form({format_form(self)!r})"


def coefficient_vector(f: Form, degree: int | None = None):
    """Coordinates of ``f`` over the canonical basis of its degree."""
    d = f.degree if degree is None else degree
    idx = basis_index(f.num_vars, d)
    vec = [0] * len(idx)
    for mono, c in f.terms.items():
        vec[idx[mono]] = c
    return vec


def form_from_vector(ring: str, num_vars: int, degree: int, vec, p=None) -> Form:
    """The form with coordinates ``vec`` over the canonical basis of its
    degree.  With a prime p, ``vec`` holds ints read mod p (a row of the
    mod-p kernels), which become the form's residues; without one, the
    coordinates are its scalars (`Fp`s among them give a form over F_p)."""
    basis = monomial_basis(num_vars, degree)
    if p is None:
        return Form(ring, num_vars, degree, {basis[i]: c for i, c in enumerate(vec) if c})
    return Form._trusted(ring, num_vars, degree,
                         {basis[i]: v for i, c in enumerate(vec) if (v := c % p)}, p)


def monomial_values(coords, degree: int):
    """Values of the degree-t basis monomials at ``coords``, in canonical order.

    Each coordinate's powers are formed once; a monomial's value is the
    product of the powers it uses, so no product with a literal 1 is formed
    (the degree-0 monomial is the int 1).  Works over any commutative
    scalars, including jets.
    """
    coords = list(coords)
    pows = []
    for b in coords:
        col = [None, b]
        for _ in range(degree - 1):
            col.append(col[-1] * b)
        pows.append(col)
    out = []
    for mono in monomial_basis(len(coords), degree):
        value = None
        for col, e in zip(pows, mono):
            if e:
                value = col[e] if value is None else value * col[e]
        out.append(1 if value is None else value)
    return out


@lru_cache(maxsize=None)
def _exponent_array(num_vars: int, degree: int):
    """`monomial_basis` as a read-only int64 array, one row per monomial."""
    exps = np.array(monomial_basis(num_vars, degree), dtype=np.int64)
    exps.flags.writeable = False
    return exps


def monomial_table(points, degree: int, p):
    """Values of the degree-t basis monomials at each point, in canonical
    order, one row per point, over the field that ``p`` names.

    ``points`` (an array or lists; an empty set shaped (0, num_vars)) and
    the table are `field.residue_array`s: int64 residues mod p, or the
    scalars of Z and Q with p None.  Each coordinate's powers are formed
    once, and over F_p every product is reduced before the next is taken,
    so no entry leaves int64; the exponent rows are built once per shape
    (`_exponent_array`).  This is the package's one evaluator of point
    sets; `monomial_values` evaluates one point on any scalars as given,
    for `linear_power_coefficients`.
    """
    points = residue_array(points, p)
    exps = _exponent_array(points.shape[1], degree)
    pows = np.ones(points.shape + (degree + 1,), dtype=points.dtype)
    # each product stays unnamed, so numpy reduces it mod p in its own buffer
    for e in range(1, degree + 1):
        pows[:, :, e] = pows[:, :, e - 1] * points % p if p else pows[:, :, e - 1] * points
    table = np.ones(len(exps), dtype=points.dtype)
    for j in range(points.shape[1]):
        table = table * pows[:, j, exps[:, j]] % p if p else table * pows[:, j, exps[:, j]]
    return table


def contract(op: Form, f: Form) -> Form:
    """Apply a dual operator to a primal form by iterated differentiation.

    ``y_j^a`` acts as the a-th partial derivative in ``x_j``, so falling
    factorials appear as integer multiplicities.  The result is the zero
    form whenever the operator degree exceeds the form degree.

    It walks index rows on `field_terms` (module docstring), so a call
    costs at most |op terms| x |F terms| steps.
    """
    if op.ring != DUAL or f.ring != PRIMAL:
        raise ValueError("contraction expects a dual operator and a primal form")
    if op.num_vars != f.num_vars:
        raise ValueError("operator and form have different variable counts")
    nv, m = f.num_vars, f.degree - op.degree
    if m < 0:
        return Form.zero(PRIMAL, nv, 0)
    p, (op_terms, f_terms) = field_terms(op, f)
    size = math.comb(nv - 1 + m, m)
    if size <= len(f_terms):
        get = f_terms.get
        out = [0] * size
        for beta, c in op_terms.items():
            alphas, factors = contraction_row(nv, beta, m)
            out = [o + c * get(a, 0) * u for o, a, u in zip(out, alphas, factors)]
        terms = zip(monomial_basis(nv, m), out)
    else:
        out = {}
        for beta, c in op_terms.items():
            for alpha, v in f_terms.items():
                # falling factorials a!/(a-b)!; perm(a, b) is 0 when b > a
                factor = math.prod(map(math.perm, alpha, beta))
                if factor:
                    gamma = tuple(map(sub, alpha, beta))
                    out[gamma] = out.get(gamma, 0) + c * v * factor
        terms = out.items()
    if p is not None:
        terms = ((g, v % p) for g, v in terms)
    return Form._trusted(PRIMAL, nv, m, {g: v for g, v in terms if v}, p)


@lru_cache(maxsize=None)
def _multinomial_row(num_vars: int, degree: int, p):
    """The multinomials of the degree-t basis, a read-only `field.residue_array`
    row: int64 residues mod p, or Python ints with p None."""
    row = [multinomial(degree, e) for e in monomial_basis(num_vars, degree)]
    row = residue_array([[c % p for c in row] if p else row], p)[0]
    row.flags.writeable = False
    return row


def linear_power_table(points, degree: int, p):
    """Coefficient vectors of (P_0 x_0 + ... + P_n x_n)^degree over the
    canonical basis, one row per point P of ``points``, over the field of
    `monomial_table`: its values times the multinomials, reduced mod p over
    F_p.  The package's one power evaluator over Z, Q and F_p;
    `linear_power_coefficients` evaluates on any scalars as given (jets)."""
    points = residue_array(points, p)
    powers = monomial_table(points, degree, p) * _multinomial_row(points.shape[1], degree, p)
    return powers % p if p else powers


def linear_power_coefficients(coords, degree: int):
    """Coefficient vector of (c0*x0 + ... + cn*xn)^degree over the basis:
    multinomial times monomial value (any commutative scalars, including jets)."""
    coords = list(coords)
    return [multinomial(degree, mono) * v
            for mono, v in zip(monomial_basis(len(coords), degree),
                               monomial_values(coords, degree))]


# ---------------------------------------------------------------------------
# parsing and printing


class ParseError(ValueError):
    """Syntax error in the form grammar, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HomogeneityError(ValueError):
    """Expanded input mixes total degrees; names an offending term."""


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in (PRIMAL, DUAL):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable '{ch}' needs an index", i)
            index = int(text[i + 1:j])
            if index > MAX_VARIABLE_INDEX:
                raise ParseError(f"variable index {index} exceeds {MAX_VARIABLE_INDEX}", i)
            tokens.append(("var", (ch, index), i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _collect(pieces, width: int):
    """Sum (degree, Form) pieces into {degree: nonzero Form}.

    The term maps are merged per degree and each degree's `Form` is built
    once, so a sum costs time linear in its terms.  Terms and degrees keep
    the order that adding the pieces one `Form.__add__` at a time gives (a
    cancelled entry leaves, a new one goes last), which names the terms of
    a `HomogeneityError`.
    """
    sums = {}
    for d, f in pieces:
        terms = sums.pop(d, {})
        for mono, c in f.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                del terms[mono]
        sums[d] = terms
    return {d: Form(PRIMAL, width, d, terms) for d, terms in sums.items() if terms}


class _Parser:
    """Recursive-descent parser over the grammar above.

    Each rule returns a possibly inhomogeneous polynomial as
    {degree: nonzero Form}.  Every piece is a primal-tagged form with
    ``Fraction`` coefficients and one width, the declared ``num_vars`` or
    else one more than the largest variable index in the text, so all
    expansion is `Form` arithmetic.  The ring letter is recorded as
    variables are read.
    """

    def __init__(self, text: str, num_vars):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.work = 0
        self.ring = None
        self.num_vars = num_vars
        self.width = num_vars if num_vars is not None else 1 + max(
            (value[1] for kind, value, _ in self.tokens if kind == "var"), default=0)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def constant(self, coeff: Fraction):
        f = Form.monomial(PRIMAL, (0,) * self.width, coeff)
        return {0: f} if f else {}

    def product(self, p, q, at: int):
        """p * q, charged to the parse's `MAX_TERM_PRODUCTS` first."""
        self.work += (sum(len(f.terms) for f in p.values())
                      * sum(len(f.terms) for f in q.values()))
        if self.work > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"expansion needs over {MAX_TERM_PRODUCTS} term products", at)
        return _collect(((d1 + d2, f1 * f2)
                         for d1, f1 in p.items() for d2, f2 in q.items()), self.width)

    def parse_expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        pieces = [(d, f if sign == 1 else -f) for d, f in self.parse_term().items()]
        while self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
            pieces += [(d, f if sign == 1 else -f) for d, f in self.parse_term().items()]
        return _collect(pieces, self.width)

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            at = self.take()[2]
            acc = self.product(acc, self.parse_factor(), at)
        return acc

    def parse_factor(self):
        base = self.parse_primary()
        if self.peek()[0] == "^":
            at = self.take()[2]
            _, exponent, pos = self.expect("int")
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds {MAX_EXPONENT}", pos)
            out = self.constant(Fraction(1))
            for _ in range(exponent):
                out = self.product(out, base, at)
            return out
        return base

    def parse_primary(self):
        tok = self.take()
        kind, value, pos = tok
        if kind == "int":
            coeff = Fraction(value)
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.expect("int")
                if den_tok[1] == 0:
                    raise ParseError("zero denominator", den_tok[2])
                coeff = Fraction(value, den_tok[1])
            return self.constant(coeff)
        if kind == "var":
            letter, index = value
            if self.ring is None:
                self.ring = letter
            elif self.ring != letter:
                raise ParseError(
                    f"cannot mix {self.ring!r} and {letter!r} variables", pos)
            if self.num_vars is not None and index >= self.num_vars:
                raise ParseError(
                    f"variable {letter}{index} exceeds the declared "
                    f"{self.num_vars} variables", pos)
            exps = [0] * self.width
            exps[index] = 1
            return {1: Form.monomial(PRIMAL, exps, Fraction(1))}
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {kind!r}", pos)


def parse_form(text: str, num_vars: int | None = None, ring: str | None = None) -> Form:
    """Parse the grammar above into a homogeneous form.

    The variable count is inferred from the largest index seen unless
    ``num_vars`` is declared; ``ring`` only matters for constant input.
    Inhomogeneous input raises :class:`HomogeneityError` naming one term
    of each of its two lowest degrees.  Too deep nesting, an exponent over
    `MAX_EXPONENT`, an index over `MAX_VARIABLE_INDEX` and an expansion of
    over `MAX_TERM_PRODUCTS` term-pair products raise ParseError.
    """
    parser = _Parser(text, num_vars)
    try:
        pieces = parser.parse_expr()
    except RecursionError:
        at = parser.tokens[min(parser.pos, len(parser.tokens) - 1)][2]
        raise ParseError("expression nested too deeply", at) from None
    parser.expect("end")
    letter = parser.ring or ring or PRIMAL
    if ring is not None and parser.ring is not None and parser.ring != ring:
        raise ValueError(f"expected {ring!r} variables, found {parser.ring!r}")
    if not pieces:
        return Form.zero(letter, parser.width, 0)
    if len(pieces) > 1:
        d1, d2 = sorted(pieces)[:2]
        name1, name2 = (format_form(Form.monomial(letter, next(iter(pieces[d].terms))))
                        for d in (d1, d2))
        raise HomogeneityError(
            f"inhomogeneous input: term {name1} has degree {d1} "
            f"but term {name2} has degree {d2}")
    (degree, f), = pieces.items()
    return Form(letter, f.num_vars, degree, f.terms)


def _coeff_parts(c):
    """(is_negative, magnitude-string or None-if-unit) for a coefficient."""
    if isinstance(c, Fraction) or isinstance(c, int):
        neg = c < 0
        mag = -c if neg else c
        if mag == 1:
            return neg, None
        if isinstance(mag, Fraction) and mag.denominator != 1:
            return neg, f"{mag.numerator}/{mag.denominator}"
        return neg, str(int(mag))
    # prime-field and other nonnegative scalars print as-is
    return False, None if c == 1 else str(c)


def format_form(f: Form) -> str:
    """Canonical text rendering; ``parse_form`` round-trips it exactly."""
    if f.is_zero():
        return "0"
    pieces = []
    for mono, c in f.sorted_terms():
        neg, mag = _coeff_parts(c)
        factors = [f"{f.ring}{k}" + (f"^{e}" if e > 1 else "")
                   for k, e in enumerate(mono) if e]
        if mag is not None:
            factors.insert(0, mag)
        if not factors:
            factors = ["1"]
        pieces.append((neg, "*".join(factors)))
    first_neg, first_txt = pieces[0]
    out = ("-" if first_neg else "") + first_txt
    for neg, txt in pieces[1:]:
        out += (" - " if neg else " + ") + txt
    return out
