"""Shared independent oracles for the test suite.

These deliberately do not reuse the package's jet class or sparse-form
machinery: the epsilon scalars below are plain univariate polynomial
lists with convolution products (no product rule anywhere), and the
dict polynomials expand and differentiate symbolically.  Agreement with
the package is therefore a genuine cross-check.  `eps_jacobian`, the
oracle for the chain-rule Jacobian, runs the generic coefficient map
(`gamma_coefficients`) on epsilon scalars.
`rref_kernel` is the exact reference for the int64 mod-p kernels: the
generic `rref` alone, and `det_scan_violation` the one for the
general-position certificate: every maximal minor by `linalg.det`.
The (3, 7, 5) certificate at the end checks its identity over the
integers with plain dict polynomials, using no Cramer or jet code.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial, prod

from starpolar.existence import gamma_coefficients
from starpolar.field import Fp
from starpolar.linalg import det, rank, rref
from starpolar.poly import monomial_basis


class EpsPoly:
    """Univariate polynomial in a formal epsilon over an exact base ring.

    Coefficient list, constant term first.  Products are full
    convolutions; reading off the epsilon^1 coefficient at the end gives
    the directional derivative of any polynomial evaluation.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

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


def eps_jacobian(d, r, n, values, p):
    """Row k of the Jacobian via a formal nilpotent direction, independently
    of the chain-rule assembly: evaluate at value + eps * e_k and expand."""
    m = len(values)
    rows = []
    for k in range(m):
        params = [EpsPoly([v, Fp(1 if i == k else 0, p)])
                  for i, v in enumerate(values)]
        out = gamma_coefficients(d, r, n, params)
        rows.append([int(c.eps_coefficient()) if isinstance(c, EpsPoly) else 0
                     for c in out])
    return rows


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


def det_scan_violation(rows):
    """Reference general-position certificate: the first (n+1)-subset of
    rows, in `combinations` order, whose maximal minor `linalg.det` finds
    zero; with fewer rows than columns, the rows' own rank decides."""
    if not rows:
        return None
    width = len(rows[0])
    if len(rows) < width:
        return None if rank(rows) == len(rows) else tuple(range(len(rows)))
    for subset in combinations(range(len(rows)), width):
        if not det([rows[j] for j in subset]):
            return subset
    return None


# ---------------------------------------------------------------------------
# certificate: the coefficient map of (d, r, n) = (3, 7, 5) has generic
# Jacobian rank 55, one short of the 56 senary cubics
#
# Rescale the seven hyperplanes' vectors u_0..u_6 so that they sum to zero.
# X(7) is apolar to a cubic F iff F(u_i, u_j, u_k) = 0 for all 35 triples
# (the ideal is generated by the products L_i L_j L_k).  On that locus
# F(u_j, u_k, .) vanishes on the five other u's, so it is c_jk * l_jk with
# l_jk(u_j) = 1 = -l_jk(u_k); c_jk = F(u_j, u_j, u_k) is antisymmetric.  A
# vector mu in Q^35 (one entry per triple) annihilates the derivative of
# (F(u_i, u_j, u_k)) in u, hence is normal to the image of the map, iff
#     sum over k not in {i, j} of mu_ijk * c_jk = 0   for all 42 pairs i != j,
# the 42 x 35 system A(c).  The table below is an integer solution mu(c) of
# degree 9 that holds identically in the 21 antisymmetric variables, so the
# rank is <= 55 wherever mu(c) != 0, a dense set, hence everywhere; a
# nonzero minor mod p bounds it below, making 55 exact.  It was found as the one solution of a
# sign-equivariant ansatz under S_3 x S_4 acting on {0, 1, 2} and {3, .., 6}.

# mu_012(c): each term is a sign and its nine factors c_ab (a < b)
MU_012_TERMS = (
    "+03 04 13 15 24 25 36 46 56", "-03 04 13 15 24 26 36 45 56",
    "+03 04 13 15 25 26 36 45 46", "-03 04 13 16 24 25 35 46 56",
    "+03 04 13 16 24 26 35 45 56", "-03 04 13 16 25 26 35 45 46",
    "-03 04 14 15 23 25 36 46 56", "+03 04 14 15 23 26 35 46 56",
    "-03 04 14 15 25 26 35 36 46", "+03 04 14 16 23 25 36 45 56",
    "-03 04 14 16 23 26 35 45 56", "+03 04 14 16 25 26 35 36 45",
    "-03 04 15 16 23 25 36 45 46", "+03 04 15 16 23 26 35 45 46",
    "+03 04 15 16 24 25 35 36 46", "-03 04 15 16 24 26 35 36 45",
    "-03 05 13 14 24 25 36 46 56", "+03 05 13 14 24 26 36 45 56",
    "-03 05 13 14 25 26 36 45 46", "+03 05 13 16 24 25 34 46 56",
    "-03 05 13 16 24 26 34 45 56", "+03 05 13 16 25 26 34 45 46",
    "+03 05 14 15 23 24 36 46 56", "-03 05 14 15 23 26 34 46 56",
    "+03 05 14 15 24 26 34 36 56", "-03 05 14 16 23 24 36 45 56",
    "+03 05 14 16 23 26 34 45 56", "-03 05 14 16 24 25 34 36 56",
    "-03 05 14 16 25 26 34 36 45", "+03 05 15 16 23 24 36 45 46",
    "-03 05 15 16 23 26 34 45 46", "+03 05 15 16 24 26 34 36 45",
    "+03 06 13 14 24 25 35 46 56", "-03 06 13 14 24 26 35 45 56",
    "+03 06 13 14 25 26 35 45 46", "-03 06 13 15 24 25 34 46 56",
    "+03 06 13 15 24 26 34 45 56", "-03 06 13 15 25 26 34 45 46",
    "-03 06 14 15 23 24 35 46 56", "+03 06 14 15 23 25 34 46 56",
    "-03 06 14 15 24 26 34 35 56", "+03 06 14 15 25 26 34 35 46",
    "+03 06 14 16 23 24 35 45 56", "-03 06 14 16 23 25 34 45 56",
    "+03 06 14 16 24 25 34 35 56", "-03 06 15 16 23 24 35 45 46",
    "+03 06 15 16 23 25 34 45 46", "-03 06 15 16 24 25 34 35 46",
    "+04 05 13 14 23 25 36 46 56", "-04 05 13 14 23 26 35 46 56",
    "+04 05 13 14 25 26 35 36 46", "-04 05 13 15 23 24 36 46 56",
    "+04 05 13 15 23 26 34 46 56", "-04 05 13 15 24 26 34 36 56",
    "+04 05 13 16 23 24 35 46 56", "-04 05 13 16 23 25 34 46 56",
    "+04 05 13 16 24 26 34 35 56", "-04 05 13 16 25 26 34 35 46",
    "+04 05 14 16 23 25 34 36 56", "-04 05 14 16 23 26 34 35 56",
    "+04 05 14 16 25 26 34 35 36", "-04 05 15 16 23 24 35 36 46",
    "+04 05 15 16 23 26 34 35 46", "-04 05 15 16 24 26 34 35 36",
    "-04 06 13 14 23 25 36 45 56", "+04 06 13 14 23 26 35 45 56",
    "-04 06 13 14 25 26 35 36 45", "+04 06 13 15 23 24 36 45 56",
    "-04 06 13 15 23 26 34 45 56", "+04 06 13 15 24 25 34 36 56",
    "+04 06 13 15 25 26 34 36 45", "-04 06 13 16 23 24 35 45 56",
    "+04 06 13 16 23 25 34 45 56", "-04 06 13 16 24 25 34 35 56",
    "-04 06 14 15 23 25 34 36 56", "+04 06 14 15 23 26 34 35 56",
    "-04 06 14 15 25 26 34 35 36", "+04 06 15 16 23 24 35 36 45",
    "-04 06 15 16 23 25 34 36 45", "+04 06 15 16 24 25 34 35 36",
    "+05 06 13 14 23 25 36 45 46", "-05 06 13 14 23 26 35 45 46",
    "-05 06 13 14 24 25 35 36 46", "+05 06 13 14 24 26 35 36 45",
    "-05 06 13 15 23 24 36 45 46", "+05 06 13 15 23 26 34 45 46",
    "-05 06 13 15 24 26 34 36 45", "+05 06 13 16 23 24 35 45 46",
    "-05 06 13 16 23 25 34 45 46", "+05 06 13 16 24 25 34 35 46",
    "+05 06 14 15 23 24 35 36 46", "-05 06 14 15 23 26 34 35 46",
    "+05 06 14 15 24 26 34 35 36", "-05 06 14 16 23 24 35 36 45",
    "+05 06 14 16 23 25 34 36 45", "-05 06 14 16 24 25 34 35 36",
)

STAR7_PAIRS = tuple(combinations(range(7), 2))   # the variables c_ab, a < b
STAR7_TRIPLES = tuple(combinations(range(7), 3))


def c_var(a, b):
    """c_ab as a dict polynomial in the 21 variables, with c_ba = -c_ab."""
    var = dp_var(STAR7_PAIRS.index((min(a, b), max(a, b))), len(STAR7_PAIRS))
    return var if a < b else {k: -v for k, v in var.items()}


def _permutation_sign(perm):
    inversions = sum(1 for i, j in combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def mu_certificate():
    """mu_T for the 35 triples T, from the table by sign-equivariance:
    mu_sigma(012)(c) = sgn(sigma) * mu_012(c'), c'_ab = c_sigma(a)sigma(b),
    with sigma sending 0, 1, 2 to T and 3..6 to the rest, both in order."""
    out = {}
    for T in STAR7_TRIPLES:
        sigma = list(T) + [k for k in range(7) if k not in T]
        sign = _permutation_sign(sigma)
        poly = {}
        for term in MU_012_TERMS:
            mono = dp_const(sign if term[0] == "+" else -sign, len(STAR7_PAIRS))
            for f in term[1:].split():
                mono = dp_mul(mono, c_var(sigma[int(f[0])], sigma[int(f[1])]))
            poly = dp_add(poly, mono)
        out[T] = poly
    return out


def certificate_residuals(mu):
    """The 42 rows of A(c) mu(c) as polynomials over Z[c]: row (i, j) is
    the sum over k not in {i, j} of mu_ijk * c_jk.  All are empty exactly
    when the identity holds."""
    rows = []
    for i, j in permutations(range(7), 2):
        row = {}
        for k in range(7):
            if k not in (i, j):
                row = dp_add(row, dp_mul(mu[tuple(sorted((i, j, k)))], c_var(j, k)))
        rows.append(row)
    return rows


def star7_conormal(values, rows, p):
    """The certificate's normal vector at one draw of the (3, 7, 5) map.

    ``values`` are the 63 parameters (six coefficients for each of the
    seven hyperplanes, then the 21 weights) and ``rows`` the 63 x 56
    Jacobian mod p.  F is read off the weight rows (d F / d alpha_P is
    P^3), the c_jk from its trilinear form, and the conormal is the dual
    cubic sum_T mu_T(c) * prod_{k in T} u_k paired with F's coefficient
    vector by the apolarity weights prod e_i!.  Returns the pairing
    vector and the 7 x 7 matrix c, both over F_p.
    """
    basis = monomial_basis(6, 3)
    hyper = [[Fp(int(v), p) for v in values[6 * k:6 * k + 6]] for k in range(7)]
    (scale,) = rref_kernel([[hyper[k][i] for k in range(7)] for i in range(6)], 7)
    u = [[scale[k] * x for x in hyper[k]] for k in range(7)]
    form = {}
    for w, row in zip(values[42:], rows[42:]):
        form = dp_add(form, {e: Fp(int(w) * x, p) for e, x in zip(basis, row) if x})

    def along(poly, v):
        out = {}
        for i, vi in enumerate(v):
            out = dp_add(out, {e: vi * x for e, x in dp_diff(poly, i).items()})
        return out

    c = [[None] * 7 for _ in range(7)]
    for j, k in permutations(range(7), 2):
        # 6 F(u_j, u_j, u_k); the common factor 6 does not matter
        c[j][k] = along(along(along(form, u[k]), u[j]), u[j]).get((0,) * 6, Fp(0, p))
    mu = mu_certificate()
    point = [c[a][b] for a, b in STAR7_PAIRS]
    dual = {}
    for T, poly in mu.items():
        term = dp_const(dp_eval(poly, point), 6)
        for k in T:
            term = dp_mul(term, {tuple(int(i == v) for i in range(6)): x
                                 for v, x in enumerate(u[k])})
        dual = dp_add(dual, term)
    weights = [prod(factorial(x) for x in e) for e in basis]
    return [dual.get(e, Fp(0, p)) * w for e, w in zip(basis, weights)], c
