"""Shared independent oracles for the test suite.

These deliberately do not reuse the package's jet class or sparse-form
machinery: the epsilon scalars below are plain univariate polynomial
lists with convolution products (no product rule anywhere), and the
dict polynomials expand and differentiate symbolically.  Agreement with
the package is therefore a genuine cross-check.  `eps_jacobian`, the
oracle for the chain-rule Jacobian, runs the generic coefficient map
(`gamma_coefficients`) on epsilon scalars, and `jacobian_route_rank_test`
is the oracle of the rank test: its trial loop forced onto the tangent
Jacobian, which `jacobian_rank_test` replaces by the incidence matrix
below the degree bound.  `incidence_matrix_on_scalars` builds that matrix
entry by entry from its definition, on `Fp` objects or on ints.
`rref_generic` is the reference elimination: it divides in the field of
its entries (`Fraction`s, `Fp` objects), where `linalg.rref` reduces
fraction-free over Q and `linalg.rref_mod` on int64 residues.
`rref_kernel` is the exact reference for the kernels over Q and the int64
mod-p kernels: `rref_generic` alone, run a second time on the
free-column basis in natural column order, and `det_scan_violation` the one for the
general-position certificate: every maximal minor by `linalg.det`.
`cofactor_tables_by_masks` is the reference for the planned Laplace pass of
`starconfig._cofactor_tables`: the same expansion walked as a dict of
column masks, with numpy vectors over all (n-1)-subsets.
`contract_by_pairs` is the reference for `poly.contract`: every pair of
operator and form terms, on the scalars as given (`Fp` objects over F_p).
The `*_on_scalars` functions are the same kind of reference for the
tables of the ideal layer (`poly.monomial_table` over Z, Q and F_p) and
for `Form.__mul__` over F_p: the evaluation matrices (`evaluation_matrix`,
one `poly.monomial_values` list per point), product rows and term
products built from the scalars as given, then ranked by `rank_on_scalars`
in the field `field.residue_rows` picks from them.  `evaluate` and
`normalized` read a form and a point on the scalars as given.
`scattered_product_rows` is not an oracle but a case builder: route B's
whole product rows, formed by the package's own steps, as matrices for
the rank tests.
The (3, 7, 5) certificate at the end checks its identity over the
integers with plain dict polynomials, using no Cramer or jet code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, perm, prod

import numpy as np

from starpolar import apolar
from starpolar.existence import _rank_test, gamma_coefficients
from starpolar.field import DEFAULT_PRIME, DEFAULT_SEED, Fp, residue_rows
from starpolar.linalg import det, kernel_over, minors, rank_over
from starpolar.poly import (DUAL, PRIMAL, Form, coefficient_vector, form_from_vector,
                            monomial_basis, monomial_values, shift_table)
from starpolar.starconfig import StarPoint


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


def jacobian_route_rank_test(d, r, n, prime=DEFAULT_PRIME, seed=DEFAULT_SEED,
                             trials=3):
    """The rank test with every draw ranked through the tangent Jacobian,
    whatever the triple.  Its draws, redraws and early stop are those of
    `jacobian_rank_test`, so the two reports agree apart from the keys
    `without_route_and_timing` drops."""
    return _rank_test(d, r, n, prime, seed, trials, "jacobian")


def incidence_matrix_on_scalars(d, r, n, values):
    """The incidence matrix M at a parameter point over F_p (`Fp` objects)
    or over Z (ints), as lists of ints, from its definition and with no
    package table: the points P_S are the signed maximal minors of
    `linalg.minors`, each weight w_S = prod_{i not in S} l_i(P_S) a Python
    product, and row (U, mu), in `combinations` x `monomial_basis` order,
    holds in column block j not in U the vector alpha_S w_S mu(P_S) P_S,
    S = U + {j}, and zeros in the blocks j in U."""
    rows = [values[k * (n + 1):(k + 1) * (n + 1)] for k in range(r)]
    alphas = dict(zip(combinations(range(r), n), values[(n + 1) * r:]))
    full, zero = (1 << (n + 1)) - 1, values[0] * 0
    scaled = {}
    for S, alpha in alphas.items():
        found = minors([rows[k] for k in S])
        point = [(-1) ** j * found.get(full ^ (1 << j), zero) for j in range(n + 1)]
        weight = prod((sum((a * c for a, c in zip(rows[i], point)), zero)
                       for i in range(r) if i not in S), start=alpha)
        scaled[S] = (point, weight)
    matrix = []
    for U in combinations(range(r), n - 1):
        for mu in monomial_basis(n + 1, d - r + n - 1):
            row = []
            for j in range(r):
                if j in U:
                    row += [0] * (n + 1)
                    continue
                point, weight = scaled[tuple(sorted(U + (j,)))]
                c = prod((x ** e for x, e in zip(point, mu)), start=weight)
                row += [int(c * x) for x in point]
            matrix.append(row)
    return matrix


def without_route_and_timing(report):
    """A rank-test report's JSON dict (or a report) without ``route`` and
    ``elapsed_ms``, the only keys in which two routes may differ."""
    data = report if isinstance(report, dict) else report.to_json_dict()
    return {k: v for k, v in data.items() if k not in ("route", "elapsed_ms")}


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


def rref_generic(rows):
    """Reduced row-echelon form (R, pivots) by division in the field of the
    entries, for any exact scalars: every pivot row is scaled to a leading
    1 and cleared from the others.  An int pivot is inverted as a
    `Fraction`, never a float."""
    R = [list(r) for r in rows]
    pivots = []
    if not R:
        return R, pivots
    nrows, ncols = len(R), len(R[0])
    pr = 0
    for c in range(ncols):
        pl = next((i for i in range(pr, nrows) if R[i][c]), None)
        if pl is None:
            continue
        R[pr], R[pl] = R[pl], R[pr]
        piv = R[pr][c]
        if piv != 1:
            inv = Fraction(1, piv) if isinstance(piv, int) else 1 / piv
            R[pr] = [inv * e for e in R[pr]]
        for i in range(nrows):
            if i != pr and R[i][c]:
                f = R[i][c]
                prow = R[pr]
                R[i] = [a - f * b for a, b in zip(R[i], prow)]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return R, pivots


def rref_kernel(rows, n):
    """Right kernel in reduced echelon form, by `rref_generic` alone (the
    reference)."""
    R, pivots = rref_generic(rows)
    basis = []
    for fcol in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fcol] = 1
        for prow, pcol in enumerate(pivots):
            v[pcol] = -R[prow][fcol]
        basis.append(v)
    return [row for row in rref_generic(basis)[0] if any(row)] if basis else []


def det_scan_violation(rows):
    """Reference general-position certificate: the first (n+1)-subset of
    rows, in `combinations` order, whose maximal minor `linalg.det` finds
    zero; with fewer rows than columns, the rows' own rank decides."""
    if not rows:
        return None
    width = len(rows[0])
    if len(rows) < width:
        return None if len(rref_generic(rows)[1]) == len(rows) else tuple(range(len(rows)))
    for subset in combinations(range(len(rows)), width):
        if not det([rows[j] for j in subset]):
            return subset
    return None


def cofactor_tables_by_masks(rows, n, p):
    """The tables E_U mod p of `starconfig._cofactor_tables`, expanded level
    by level as in `linalg.minors`, keyed on the columns used so far, with
    an int64 vector over all (n-1)-subsets U per key; each product and each
    level is reduced mod p."""
    rows = np.asarray(rows, dtype=np.int64)
    full = (1 << (n + 1)) - 1
    subsets = np.array(list(combinations(range(len(rows)), n - 1)), dtype=np.int64)
    cur = {0: np.ones(len(subsets), dtype=np.int64)}
    for level in range(n - 1):
        entries = rows[subsets[:, level]]
        nxt = {}
        for mask, v in cur.items():
            for c in range(n + 1):
                bit = 1 << c
                if mask & bit:
                    continue
                term = entries[:, c] * v % p
                if (level + (mask & (bit - 1)).bit_count()) % 2:
                    term = -term
                key = mask | bit
                nxt[key] = nxt[key] + term if key in nxt else term
        cur = {key: v % p for key, v in nxt.items()}
    tables = np.zeros((len(subsets), n + 1, n + 1), dtype=np.int64)
    for i, j in combinations(range(n + 1), 2):
        minor = cur[full ^ (1 << i) ^ (1 << j)]
        tables[:, i, j] = -minor % p if (i + j) % 2 else minor
        tables[:, j, i] = -tables[:, i, j] % p
    return tables


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


# ---------------------------------------------------------------------------
# contraction by term pairs (reference for `poly.contract`)


def random_scalar_over(rng, field):
    """A random scalar of Z ("Z"), Q ("Q") or F_p (an int p); possibly zero."""
    if field == "Z":
        return rng.randrange(-6, 7)
    if field == "Q":
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
    return Fp(rng.randrange(field), field)


def random_form_over(rng, ring, num_vars, degree, field, density):
    """A form whose basis monomials each get a term with the given chance."""
    return Form(ring, num_vars, degree,
                {m: random_scalar_over(rng, field)
                 for m in monomial_basis(num_vars, degree) if rng.random() < density})


def contract_by_pairs(op, f):
    """y^beta applied to c x^alpha for every pair of terms: the falling
    factorials alpha!/(alpha - beta)! times the product of the two
    coefficients, summed on the scalars as given; zero past deg F."""
    if op.ring != DUAL or f.ring != PRIMAL:
        raise ValueError("contraction expects a dual operator and a primal form")
    if op.num_vars != f.num_vars:
        raise ValueError("operator and form have different variable counts")
    e, d = op.degree, f.degree
    if e > d:
        return Form.zero(PRIMAL, f.num_vars, 0)
    terms = {}
    for beta, c_op in op.terms.items():
        for alpha, c_f in f.terms.items():
            # perm(a, b) is 0 when b > a
            mult = prod(map(perm, alpha, beta))
            if not mult:
                continue
            mono = tuple(a - b for a, b in zip(alpha, beta))
            s = terms.get(mono, 0) + c_op * c_f * mult
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
    return Form(PRIMAL, f.num_vars, d - e, terms)


# ---------------------------------------------------------------------------
# the ideal layer and form products on the scalars as given (references for
# the int64 residue tables and the residue product loop)


def evaluation_matrix(points, degree):
    """Rows = points (`StarPoint`s or coordinate tuples), columns = the
    degree-t monomial basis evaluated there (`poly.monomial_values`), as
    lists on the coordinates as given."""
    return [monomial_values(pt.coords if isinstance(pt, StarPoint) else pt, degree)
            for pt in points]


def rank_on_scalars(rows):
    """Rank over the field of the scalars as given: F_p if an entry is an
    `Fp`, else Q (`field.residue_rows`)."""
    return rank_over(*residue_rows(rows))


def hilbert_on_scalars(points, t_max):
    """HF(0..t_max): the rank of `evaluation_matrix` on the points' own scalars."""
    return [rank_on_scalars(evaluation_matrix(points, t)) for t in range(t_max + 1)]


def point_ideal_piece_on_scalars(points, degree, num_vars):
    """The kernel of `evaluation_matrix` on the points' own scalars, as forms."""
    size = len(monomial_basis(num_vars, degree))
    p, rows = residue_rows(evaluation_matrix(points, degree))
    return [form_from_vector(DUAL, num_vars, degree, v, p)
            for v in kernel_over(p, rows, size)]


def route_a_on_scalars(hset, t):
    """Route A with its kernel points found again for this t, by `rref_kernel`."""
    nv = hset.n + 1
    points = [rref_kernel([hset.coeffs[j] for j in tau], nv)[0]
              for tau in combinations(range(hset.r), hset.n)]
    return len(monomial_basis(nv, t)) - rank_on_scalars(evaluation_matrix(points, t))


def product_rows_on_scalars(gens, t):
    """Rows of every (monomial x generator) product of degree t, as lists
    of the coefficients as given, placed by `shift_table`."""
    nv = gens[0].num_vars
    width = len(monomial_basis(nv, t))
    rows = []
    for g in gens:
        if g.degree > t:
            continue
        terms = [(i, c) for i, c in enumerate(coefficient_vector(g)) if c]
        for positions in shift_table(nv, t - g.degree, g.degree):
            row = [0] * width
            for i, c in terms:
                row[positions[i]] = c
            rows.append(row)
    return rows


def ideal_piece_dimension_on_scalars(generators, t):
    """Rank of `product_rows_on_scalars` over the field of the coefficients."""
    gens = [g for g in generators if not g.is_zero()]
    return rank_on_scalars(product_rows_on_scalars(gens, t) if gens else [])


def scattered_product_rows(generators, t):
    """Route B's whole product rows in degree t, as
    `apolar.ideal_piece_dimension` forms them before any rank: the echelon
    basis of each run of degree e <= t (`apolar.generator_basis`), its
    columns in degrevlex order, placed by `apolar._scatter`."""
    basis = apolar.generator_basis(generators)
    nv = basis.num_vars
    return apolar._scatter([(R, apolar._degrevlex_plan(nv, t - e, e)[1])
                            for e, R, _, _ in basis.runs if e <= t], comb(nv - 1 + t, t))


def form_mul_on_scalars(f, g):
    """f * g by the term-pair loop on the coefficients as given; a sum that
    cancels leaves the term map, and a later term goes in last."""
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = terms.get(mono, 0) + c1 * c2
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
    return Form(f.ring, f.num_vars, f.degree + g.degree, terms)


def evaluate(f, coords):
    """The value of a form at ``coords`` on the scalars as given: its
    coefficient vector against `poly.monomial_values`."""
    coords = list(coords)
    if len(coords) != f.num_vars:
        raise ValueError("coordinate count does not match variable count")
    return sum(c * v for c, v in zip(coefficient_vector(f), monomial_values(coords, f.degree))
               if c)


def normalized(coords):
    """A point's representative whose first nonzero coordinate is 1, exact
    (an int is inverted as a `Fraction`); ``ValueError`` on the zero point."""
    k = next((k for k, c in enumerate(coords) if c), None)
    if k is None:
        raise ValueError("the zero point has no representative")
    c = coords[k]
    inv = Fraction(1, c) if isinstance(c, int) else 1 / c
    return tuple(coords[:k]) + tuple(inv * b for b in coords[k:])
