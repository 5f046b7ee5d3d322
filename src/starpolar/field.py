"""Exact scalar arithmetic: prime fields, rationals, and first-order jets.

Three kinds of scalars are used throughout the package:

* rationals -- plain :class:`fractions.Fraction` (arbitrary precision,
  always reduced, positive denominator), used wherever explicit
  coefficients appear;
* prime-field elements -- :class:`Fp`, integers mod a fixed prime, used
  for randomized rank computations where rational coefficient growth
  would be prohibitive;
* jets -- :class:`Jet`, an `Fp` value plus a fixed-length int64 numpy
  gradient of residues mod the same p, which evaluates partial
  derivatives of polynomial maps over F_p exactly.  It is a test-side
  scalar, kept for the tests and the benchmark tracer's jet counters.

All scalars are immutable values and all operations are pure functions,
so they are safe to copy and share freely.  Plain Python integers mix
into any of the three (they act as the image of Z in the field).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

# below 2^31 a sum of two products of residues fits in a signed 64-bit
# word, as the jet product rule and the mod-p kernels need; 2^31 - 1 is
# the largest prime there.
INT64_PRIME_LIMIT = 2**31
DEFAULT_PRIME = 2**31 - 1
DEFAULT_SEED = 1


@lru_cache
def is_prime(m: int) -> bool:
    """Deterministic trial division in about sqrt(m)/2 steps (about 1 ms at
    2^31 - 1), memoized: a run asks about the same few moduli again and again."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


class Fp:
    """An element of the prime field F_p; all arithmetic is exact mod p.

    Mixing elements of different moduli raises ``ValueError``.  Plain ints
    coerce to the modulus of the other operand.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int = DEFAULT_PRIME):
        self.value = value % p
        self.p = p

    def residue(self, other):
        """``other`` (int, `Fraction` or `Fp` of this p) as an int in [0, p), else None."""
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed prime-field moduli {self.p} and {other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            # reduction of a/b mod p, defined whenever p does not divide b
            return other.numerator * pow(other.denominator, -1, self.p) % self.p
        return None

    def __add__(self, other):
        v = self.residue(other)
        if v is None:
            return NotImplemented
        return Fp(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self.residue(other)
        if v is None:
            return NotImplemented
        return Fp(self.value - v, self.p)

    def __rsub__(self, other):
        v = self.residue(other)
        if v is None:
            return NotImplemented
        return Fp(v - self.value, self.p)

    def __mul__(self, other):
        v = self.residue(other)
        if v is None:
            return NotImplemented
        return Fp(self.value * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.value, self.p)

    def inverse(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError(f"inversion of zero in F_{self.p}")
        return Fp(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        v = self.residue(other)
        if v is None:
            return NotImplemented
        return self * Fp(v, self.p).inverse()

    def __rtruediv__(self, other):
        v = self.residue(other)
        if v is None:
            return NotImplemented
        return Fp(v, self.p) * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0 and self.value == 0:
            raise ZeroDivisionError(f"inversion of zero in F_{self.p}")
        return Fp(pow(self.value, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


def random_scalar(rng, p: int = DEFAULT_PRIME) -> Fp:
    """Draw a uniform element of F_p from a seeded ``random.Random`` stream."""
    return Fp(rng.randrange(p), p)


class Jet:
    """A first-order jet over F_p: an `Fp` ``value`` together with a
    fixed-length int64 numpy ``grad`` of residues mod the same p.

    Addition acts coordinatewise and multiplication obeys the product rule

        (a * b).grad = a.value * b.grad + b.value * a.grad

    exactly, so evaluating a polynomial expression on jets seeded with unit
    gradients computes all its partial derivatives at the base point.  The
    gradient is reduced mod p after every operation; p < 2^31 keeps each
    product-rule sum below 2^63, and larger primes raise ``ValueError``.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: Fp, grad):
        if value.p >= INT64_PRIME_LIMIT:
            raise ValueError(f"prime {value.p} too large for an int64 jet (need p < 2^31)")
        self.value = value
        self.grad = np.asarray(grad, dtype=np.int64) % value.p

    @classmethod
    def seed(cls, value: Fp, index: int, dim: int) -> "Jet":
        """Jet for the ``index``-th of ``dim`` variables at the point ``value``."""
        grad = np.zeros(dim, dtype=np.int64)
        grad[index] = 1
        return cls(value, grad)

    def _check(self, other: "Jet"):
        if self.grad.shape != other.grad.shape:
            raise ValueError("jet gradient dimensions differ")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.value + other.value, self.grad + other.grad)
        return Jet(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.value - other.value, self.grad - other.grad)
        return Jet(self.value - other, self.grad)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(-self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            v, w = self.value, other.value
            return Jet(v * w, v.value * other.grad + w.value * self.grad)
        c = self.value.residue(other)
        if c is None:
            return NotImplemented
        return Jet(self.value * c, self.grad * c)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.value) or bool(self.grad.any())

    def __repr__(self):
        return f"Jet({self.value!r}, {self.grad.tolist()!r})"


def residue_rows(rows):
    """(p, rows) for rows of scalars of one field, which may be any re-iterables.

    If an entry is an `Fp`, p is its prime and each entry is read in F_p as
    an int in [0, p) (`Fp.residue`); otherwise (None, rows) unchanged.  This
    is the package's one mod-p representation: the int64 kernels, the
    contraction loop and the Cramer points of `Fp` rows all run on these
    ints and wrap results back into `Fp` only at the end.  Ints and `Fp`s of
    modulus p, nearly all entries, skip the method call.
    """
    p = modulus_of(e for row in rows for e in row)
    if p is None:
        return None, rows
    residue = Fp(0, p).residue
    return p, [[e % p if e.__class__ is int else e.value if e.__class__ is Fp and e.p == p
                else residue(e) for e in row] for row in rows]


def residue_array(rows, p: int):
    """Int rows (lists or an array) as a 2-D int64 array reduced mod p.

    A prime of 2^31 or more raises ``ValueError`` before any entry is
    converted: below it, a product of two residues fits in int64, which
    the mod-p kernels and tables need.  Every F_p matrix and point table
    of the package is read through here, so this is their one prime rule.
    """
    if p >= INT64_PRIME_LIMIT:
        raise ValueError(f"prime {p} too large for the int64 mod-p kernel")
    M = np.asarray(rows, dtype=np.int64)
    if M.ndim == 1:
        M = M.reshape(0, 0) if M.size == 0 else M.reshape(1, -1)
    return M % p


def modulus_of(values):
    """First prime modulus found among ``values``, or None."""
    for v in values:
        if isinstance(v, Fp):
            return v.p
    return None


def scalar_to_str(s) -> str:
    """Serialize an exact scalar as a decimal string (rationals as "p/q")."""
    if isinstance(s, Fraction):
        return str(s.numerator) if s.denominator == 1 else f"{s.numerator}/{s.denominator}"
    if isinstance(s, Fp):
        return str(s.value)
    if isinstance(s, int):
        return str(s)
    raise TypeError(f"cannot serialize scalar of type {type(s).__name__}")


def scalar_from_str(text: str) -> Fraction:
    """Parse a decimal or "p/q" string into an exact rational."""
    return Fraction(text.strip())
