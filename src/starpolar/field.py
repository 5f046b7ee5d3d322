"""Exact scalar arithmetic: prime fields, rationals, and first-order jets.

Three kinds of scalars are used throughout the package:

* rationals -- plain :class:`fractions.Fraction` (arbitrary precision,
  always reduced, positive denominator), used wherever explicit
  coefficients appear;
* prime-field elements -- :class:`Fp`, integers mod a fixed prime, used
  for randomized rank computations where rational coefficient growth
  would be prohibitive;
* jets -- :class:`Jet`, a value plus a gradient vector of fixed length
  over either base, used to evaluate partial derivatives of polynomial
  maps exactly, without symbolic expansion.

All scalars are immutable values and all operations are pure functions,
so they are safe to copy and share freely.  Plain Python integers mix
into any of the three (they act as the image of Z in the field).
"""

from __future__ import annotations

from fractions import Fraction

# 2^31 - 1 is prime and small enough that a product of two residues fits
# comfortably in a signed 64-bit word.
DEFAULT_PRIME = 2**31 - 1
DEFAULT_SEED = 1


def is_prime(m: int) -> bool:
    """Deterministic trial division in about sqrt(m)/2 steps: fast for m < 2^31."""
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
    """A first-order jet: ``value`` together with a fixed-length ``grad``.

    Addition acts coordinatewise and multiplication obeys the product rule

        (a * b).grad = a.value * b.grad + b.value * a.grad

    exactly, so evaluating a polynomial expression on jets seeded with unit
    gradients computes all its partial derivatives at the base point.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = tuple(grad)

    @classmethod
    def seed(cls, value, index: int, dim: int) -> "Jet":
        """Jet for the ``index``-th of ``dim`` variables at the point ``value``."""
        zero = value * 0
        one = zero + 1
        return cls(value, tuple(one if k == index else zero for k in range(dim)))

    @classmethod
    def constant(cls, value, dim: int) -> "Jet":
        zero = value * 0
        return cls(value, (zero,) * dim)

    def constant_part(self):
        return self.value

    def _check(self, other: "Jet"):
        if len(self.grad) != len(other.grad):
            raise ValueError("jet gradient dimensions differ")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.value + other.value,
                       tuple(a + b for a, b in zip(self.grad, other.grad)))
        return Jet(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.value - other.value,
                       tuple(a - b for a, b in zip(self.grad, other.grad)))
        return Jet(self.value - other, self.grad)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(-self.value, tuple(-a for a in self.grad))

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            v, w = self.value, other.value
            return Jet(v * w,
                       tuple(v * b + w * a for a, b in zip(self.grad, other.grad)))
        return Jet(self.value * other, tuple(a * other for a in self.grad))

    __rmul__ = __mul__

    def inverse(self) -> "Jet":
        if not self.value:
            raise ZeroDivisionError("inversion of a jet with zero value part")
        inv = 1 / self.value
        minus_inv2 = -(inv * inv)
        return Jet(inv, tuple(minus_inv2 * a for a in self.grad))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.inverse()
        return self * (1 / other)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = Jet(self.value * 0 + 1, tuple(a * 0 for a in self.grad))
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.value == other.value and self.grad == other.grad
        return NotImplemented

    def __bool__(self):
        return bool(self.value) or any(self.grad)

    def __repr__(self):
        return f"Jet({self.value!r}, {self.grad!r})"


def constant_part(s):
    """Value part of a jet-like scalar; plain field scalars pass through."""
    getter = getattr(s, "constant_part", None)
    return getter() if getter is not None else s


def modulus_of(values):
    """First prime modulus found among ``values``, or None.

    `linalg.rank`/`kernel_basis` use it to pick the field of a matrix.
    """
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
