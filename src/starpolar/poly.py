"""Sparse homogeneous forms in the primal ring S = k[x0..xn] and the dual
ring T = k[y0..yn], with the contraction action of T on S.

A monomial is an exponent tuple of length ``num_vars``; a form stores a
map from monomials to nonzero coefficients.  The canonical monomial order
is lexicographic with x0 > x1 > ... > xn inside a fixed total degree, so
the degree-d basis starts at x0^d.  Contraction lets y_j act as the true
partial derivative d/dx_j (falling-factorial multiplicities appear), so
an operator of degree e sends a degree-d form to a degree d-e form and
annihilates everything whenever e exceeds d.

Text grammar (whitespace-insensitive)::

    expr    :=  ['+'|'-'] term { ('+'|'-') term }
    term    :=  factor { '*' factor }
    factor  :=  primary [ '^' integer ]
    primary :=  integer [ '/' integer ] | variable | '(' expr ')'

where a variable is ``x<k>`` or ``y<k>`` (primal/dual may not be mixed).
Arbitrary parenthesized arithmetic is accepted: the parser expands it
with `Form` arithmetic over ``Fraction`` coefficients, one form per total
degree, and homogeneity is checked on the expanded result.  The canonical
printed format uses explicit ``*`` and ``^`` with terms in canonical
order, e.g. ``x0^3 - x1^2*x2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

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
    """Where multiplying by a monomial sends each basis monomial.

    One tuple per degree-``shift`` monomial m, in canonical order; entry i is
    the position of m * b_i in the degree-(shift + degree) basis, where b_i
    is the i-th degree-``degree`` basis monomial.
    """
    idx = basis_index(num_vars, shift + degree)
    basis = monomial_basis(num_vars, degree)
    return tuple(tuple(idx[tuple(a + e for a, e in zip(m, b))] for b in basis)
                 for m in monomial_basis(num_vars, shift))


def multinomial(d: int, exponents) -> int:
    out = math.factorial(d)
    for e in exponents:
        out //= math.factorial(e)
    return out


class Form:
    """A homogeneous form: ring tag, variable count, degree, sparse terms.

    Zero coefficients are never stored; the zero form has an empty term
    map but keeps its declared degree.  Forms are immutable by convention.
    """

    __slots__ = ("ring", "num_vars", "degree", "terms")

    def __init__(self, ring: str, num_vars: int, degree: int, terms: dict):
        if ring not in (PRIMAL, DUAL):
            raise ValueError(f"unknown ring tag {ring!r}")
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for mono, c in terms.items():
            if not c:
                continue
            if len(mono) != num_vars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono} for {num_vars} variables")
            if sum(mono) != degree:
                raise ValueError(
                    f"term {mono} has degree {sum(mono)}, expected {degree}")
            clean[mono] = c
        self.ring = ring
        self.num_vars = num_vars
        self.degree = degree
        self.terms = clean

    # -- constructors ------------------------------------------------------

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
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.ring == other.ring and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

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
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return Form(self.ring, self.num_vars, self.degree, terms)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Form(self.ring, self.num_vars, self.degree,
                    {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Form):
            self._check_ring(other)
            deg = self.degree + other.degree
            terms = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    s = terms.get(mono, 0) + c1 * c2
                    if s:
                        terms[mono] = s
                    else:
                        terms.pop(mono, None)
            return Form(self.ring, self.num_vars, deg, terms)
        # scalar scaling
        if not other:
            return Form.zero(self.ring, self.num_vars, self.degree)
        return Form(self.ring, self.num_vars, self.degree,
                    {m: c * other for m, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = Form(self.ring, self.num_vars, 0, {(0,) * self.num_vars: 1})
        for _ in range(e):
            out = out * self
        return out

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


def form_from_vector(ring: str, num_vars: int, degree: int, vec) -> Form:
    basis = monomial_basis(num_vars, degree)
    return Form(ring, num_vars, degree,
                {basis[i]: c for i, c in enumerate(vec) if c})


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


def evaluate(f: Form, coords):
    """Evaluate a form at affine coordinates (any commutative scalars)."""
    coords = list(coords)
    if len(coords) != f.num_vars:
        raise ValueError("coordinate count does not match variable count")
    return sum(c * v for c, v in zip(coefficient_vector(f),
                                     monomial_values(coords, f.degree)) if c)


def contract(op: Form, f: Form) -> Form:
    """Apply a dual operator to a primal form by iterated differentiation.

    ``y_j^a`` acts as the a-th partial derivative in ``x_j``, so falling
    factorials appear as integer multiplicities.  The result is the zero
    form whenever the operator degree exceeds the form degree.
    """
    if op.ring != DUAL or f.ring != PRIMAL:
        raise ValueError("contraction expects a dual operator and a primal form")
    if op.num_vars != f.num_vars:
        raise ValueError("operator and form have different variable counts")
    e, d = op.degree, f.degree
    if e > d:
        return Form.zero(PRIMAL, f.num_vars, 0)
    out_deg = d - e
    terms = {}
    for beta, c_op in op.terms.items():
        for alpha, c_f in f.terms.items():
            # falling factorials a!/(a-b)!; perm(a, b) is 0 when b > a
            mult = math.prod(map(math.perm, alpha, beta))
            if not mult:
                continue
            mono = tuple(a - b for a, b in zip(alpha, beta))
            s = terms.get(mono, 0) + c_op * c_f * mult
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
    return Form(PRIMAL, f.num_vars, out_deg, terms)


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


def _collect(pieces):
    """Sum (degree, Form) pieces into {degree: nonzero Form}."""
    out = {}
    for d, f in pieces:
        if d in out:
            f = out.pop(d) + f
        if f:
            out[d] = f
    return out


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
        return _collect((d1 + d2, f1 * f2)
                        for d1, f1 in p.items() for d2, f2 in q.items())

    def parse_expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        pieces = [(d, sign * f) for d, f in self.parse_term().items()]
        while self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
            pieces += [(d, sign * f) for d, f in self.parse_term().items()]
        return _collect(pieces)

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
