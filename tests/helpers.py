"""Shared independent oracles for the test suite.

These deliberately do not reuse the package's jet class or sparse-form
machinery: the epsilon scalars below are plain univariate polynomial
lists with convolution products (no product rule anywhere), and the
dict polynomials expand and differentiate symbolically.  Agreement with
the package is therefore a genuine cross-check.  `rref_kernel` is the
exact reference for the int64 mod-p kernels: the generic `rref` alone.
"""

from __future__ import annotations

from starpolar.linalg import rref


class EpsPoly:
    """Univariate polynomial in a formal epsilon over an exact base ring.

    Coefficient list, constant term first.  Products are full
    convolutions; reading off the epsilon^1 coefficient at the end gives
    the directional derivative of any polynomial evaluation.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    def constant_part(self):
        return self.c[0]

    def eps_coefficient(self):
        return self.c[1] if len(self.c) > 1 else self.c[0] * 0

    def _lift(self, other):
        return other if isinstance(other, EpsPoly) else EpsPoly([other])

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.c), len(other.c))
        out = []
        for i in range(n):
            a = self.c[i] if i < len(self.c) else 0
            b = other.c[i] if i < len(other.c) else 0
            out.append(a + b)
        return EpsPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return EpsPoly([-a for a in self.c])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(other.c):
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return EpsPoly(out)

    __rmul__ = __mul__

    def __bool__(self):
        return any(bool(a) for a in self.c)

    def __repr__(self):
        return f"EpsPoly({self.c!r})"


# ---------------------------------------------------------------------------
# dict-based multivariate polynomials (symbolic expansion oracle)

def dp_add(p, q):
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def dp_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def dp_var(index, nvars):
    e = [0] * nvars
    e[index] = 1
    return {tuple(e): 1}


def dp_const(c, nvars):
    return {(0,) * nvars: c} if c else {}


def dp_diff(p, index):
    out = {}
    for k, c in p.items():
        if k[index]:
            e = list(k)
            e[index] -= 1
            out[tuple(e)] = c * k[index]
    return out


def dp_eval(p, point):
    total = 0
    for k, c in p.items():
        term = c
        for b, e in zip(point, k):
            for _ in range(e):
                term = term * b
        total = total + term
    return total


def rref_kernel(rows, n):
    """Right kernel in reduced echelon form, by `rref` alone (the reference)."""
    R, pivots = rref(rows)
    basis = []
    for fcol in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fcol] = 1
        for prow, pcol in enumerate(pivots):
            v[pcol] = -R[prow][fcol]
        basis.append(v)
    return [row for row in rref(basis)[0] if any(row)] if basis else []
