"""Star configurations from hyperplanes: general-position certification,
the n-wise intersection points, two independent constructions of the
configuration ideal, and Hilbert functions of point sets.

Given r linear forms in the dual ring with every (n+1)-subset linearly
independent, the configuration consists of the C(r, n) points cut out by
the n-subsets.  Each point is the Cramer point of its subset, signed
maximal minors polynomial in the coefficients.  Over F_p every point is
a row of one int64 table (`cramer_table`), built from one Laplace pass
mod p over all (n-1)-subsets at once (`_cofactor_tables`); `HyperplaneSet`
and the Jacobian of `existence` both read it, and it refuses a prime of
2^31 or more before any product.  Over Z and Q, and in the generic map
the tests differentiate, each n-subset takes its own `linalg.minors`
pass (`_points_from_coeff_rows`).
General position is read off the points, and it is stated only here:
`GeneralPositionError` names the first dependent (n+1)-subset, a zero row
included, for a `HyperplaneSet` and for a Jacobian draw alike, and
`redraw` is the one loop that redraws a random draw it refuses, up to
``RESAMPLE_BUDGET`` times.

Over F_p the evaluation matrices of the Hilbert function, of
`point_ideal_piece` and of route A are int64 residue arrays
(`poly.monomial_table`) ranked by the mod-p kernels; over Q they are
`evaluation_matrix` lists under exact RREF.  Route A's own points, the
kernel vectors of the coefficient blocks, are found once per set on first
use (`HyperplaneSet.kernel_points`), as route B's generators are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from math import comb
from operator import mul

import numpy as np

from . import linalg
from .field import DEFAULT_PRIME, Fp, random_scalar, residue_array, residue_rows
from .poly import (DUAL, Form, coefficient_vector, evaluate, form_from_vector,
                   monomial_table, monomial_values)
from .apolar import ideal_piece_dimension

# random draws (hyperplane sets, parameter points) tried before giving up
RESAMPLE_BUDGET = 32


class GeneralPositionError(ValueError):
    """Raised when some n+1 of the hyperplanes pass through a common point."""

    def __init__(self, subset):
        self.subset = tuple(subset)
        super().__init__(
            f"hyperplanes {self.subset} are linearly dependent "
            "(general position fails)")


class ResampleBudgetError(RuntimeError):
    """Too many degenerate draws in a row (astronomically unlikely over a
    large prime unless something is wrong)."""


class DegenerateIntersectionError(ArithmeticError):
    """An n-subset of hyperplanes failed to cut out a single point."""


def redraw(draw, what: str):
    """(draw(), number of draws refused before it): call ``draw`` again
    while it raises `GeneralPositionError`, at most ``RESAMPLE_BUDGET`` times
    in all, then raise `ResampleBudgetError`, whose message names ``what``
    was drawn.  Any other error propagates at once."""
    for resamples in range(RESAMPLE_BUDGET):
        try:
            return draw(), resamples
        except GeneralPositionError:
            continue
    raise ResampleBudgetError(f"{RESAMPLE_BUDGET} degenerate draws in a row for {what}")


def general_position_violation(p, rows, points):
    """First (n+1)-subset of coefficient rows with vanishing maximal minor.

    ``points`` holds the Cramer points of every n-subset of the rows, in
    `combinations` order.  ``p`` names the field as in `linalg.rank_over`:
    over F_p rows and points are residues in [0, p), and each dot product
    is reduced mod p.  The minor of S + (k,) is +-l_k(P_S), so each row
    k > max S is evaluated at P_S.  With r = n the one point is zero exactly
    when the rows are dependent.  Returns the violating index subset or None.
    """
    subsets = combinations(range(len(rows)), len(rows[0]) - 1)
    if len(points) == 1:
        return None if any(points[0]) else next(subsets)
    for S, pt in zip(subsets, points):
        for k in range(S[-1] + 1, len(rows)):
            dot = sum(map(mul, rows[k], pt))
            if not (dot if p is None else dot % p):
                return S + (k,)
    return None


class HyperplaneSet:
    """An ordered list of r (>= n) linear forms in the dual ring, certified
    in general position at construction; keeps its Cramer ``points``."""

    def __init__(self, coeff_rows):
        rows = [tuple(r) for r in coeff_rows]
        if not rows:
            raise ValueError("need at least one hyperplane")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("hyperplane coefficient vectors have mixed lengths")
        if width < 2:
            raise ValueError(f"need n >= 1, got n={width - 1}")
        self.n = width - 1
        self.r = len(rows)
        if self.r < self.n:
            raise ValueError(f"need r >= n, got r={self.r}, n={self.n}")
        p, residues = residue_rows(rows)
        if p is None:
            coords = _points_from_coeff_rows(residues, self.n)
        else:
            coords = cramer_table(residues, p)[1].tolist()
        violation = general_position_violation(p, residues, coords)
        if violation is not None:
            raise GeneralPositionError(violation)
        self.points = tuple(StarPoint(S, tuple(Fp(c, p) for c in pt) if p else tuple(pt))
                            for S, pt in zip(combinations(range(self.r), self.n), coords))
        self.coeffs = rows

    @classmethod
    def from_forms(cls, forms) -> "HyperplaneSet":
        rows = []
        for f in forms:
            if not isinstance(f, Form) or f.ring != DUAL or f.degree != 1:
                raise ValueError("hyperplanes must be linear forms in the dual ring")
            rows.append(coefficient_vector(f))
        return cls(rows)

    @property
    def forms(self):
        return [Form.linear(DUAL, row) for row in self.coeffs]

    @cached_property
    def product_generators(self) -> tuple:
        """The C(r, n-1) products of all forms outside an (n-1)-subset,
        expanded on first use and kept for the life of the set.

        Each generator has degree r - n + 1 and vanishes on every point of
        the configuration: any n-subset tau misses at most n - 1 of the
        omitted indices, so the product retains a form from tau.
        """
        forms = self.forms
        return tuple(
            reduce(Form.__mul__, [f for k, f in enumerate(forms) if k not in sigma])
            for sigma in combinations(range(self.r), self.n - 1))

    @cached_property
    def kernel_points(self) -> tuple:
        """The point of each n-subset as the one kernel vector of its
        n x (n+1) coefficient block (exact RREF), in subset order, found
        on first use and kept; route A's points, independent of the Cramer
        ``points``."""
        return tuple(linalg.kernel_basis([self.coeffs[j] for j in tau], self.n + 1)[0]
                     for tau in combinations(range(self.r), self.n))

    def __repr__(self):
        return f"HyperplaneSet(r={self.r}, n={self.n})"


@dataclass(frozen=True)
class StarPoint:
    """One intersection point, tagged by its defining n-subset of
    hyperplane indices; coordinates are the raw signed minors."""

    tag: tuple
    coords: tuple

    def normalized(self) -> tuple:
        """Representative scaled so the first nonzero coordinate is 1."""
        for k, c in enumerate(self.coords):
            if c:
                inv = linalg._invert(c)
                return tuple(self.coords[:k]) + tuple(inv * b for b in self.coords[k:])
        raise DegenerateIntersectionError("zero point cannot be normalized")


def _points_from_coeff_rows(rows, n: int):
    """Cramer coordinate rows of every n-subset, in `combinations` order,
    over any commutative scalars (Z, Q, residues of any prime, jets).

    Coordinate j of the point for subset tau is (-1)^j times the maximal
    minor of the n x (n+1) matrix of tau's rows with column j removed, so
    it involves no coefficient from variable slot j.  A dependent
    n-subset gets the zero point.
    """
    full = (1 << (n + 1)) - 1
    zero = rows[0][0] * 0
    points = []
    for tau in combinations(range(len(rows)), n):
        found = linalg.minors([rows[j] for j in tau])
        minors = [found.get(full ^ (1 << j), zero) for j in range(n + 1)]
        points.append(tuple(-m if j % 2 else m for j, m in enumerate(minors)))
    return points


def _cofactor_tables(rows, n: int, p: int):
    """The tables E_U mod p of the (n-1)-subsets U of the rows, an int64
    residue array, in `combinations` order.

    Let S = U + {k} have k in position q.  The Cramer coordinate P_{S,j} is
    multilinear in the rows, and d P_{S,j} / d a_{k,i} = (-1)^q E_U[i, j]:
    the signed maximal minor of U's rows on the columns other than i and j,
    with E_U antisymmetric and zero on the diagonal.  Every U is expanded
    in one Laplace pass, level by level as in `linalg.minors`, keyed on the
    columns used so far, with an int64 vector over all U per key.  Each
    product is reduced mod p before it is added, and each level before the
    next starts: a key sums at most n terms in (-p, p), far below 2^63.
    """
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


def cramer_table(rows, p: int):
    """(cofactor, points) for the n-subsets S of r int rows mod p, in
    `combinations` order, from the rows' `_cofactor_tables`: cofactor[q]
    holds the (i, j) table of d P_S / d a_k for k = S[q], and points the
    (C(r, n), n+1) int64 residues P_S = a_k . (d P_S / d a_k) for k = S[0],
    the points of `_points_from_coeff_rows` reduced mod p.  The rows are
    read through `field.residue_array`, which refuses p >= 2^31 before any
    product is formed.
    """
    rows = residue_array(rows, p)
    n = rows.shape[1] - 1
    tables = _cofactor_tables(rows, n, p)
    where = {sub: u for u, sub in enumerate(combinations(range(len(rows)), n - 1))}
    point_sets = list(combinations(range(len(rows)), n))
    cofactor = []
    for q in range(n):
        table = tables[[where[S[:q] + S[q + 1:]] for S in point_sets]]
        cofactor.append(-table % p if q % 2 else table)
    first = rows[[S[0] for S in point_sets]]
    # a sum of n + 1 residues before its reduction, far below 2^63
    points = sum(first[:, i, None] * cofactor[0][:, i, :] % p for i in range(n + 1)) % p
    return cofactor, points


def intersection_points(hset: HyperplaneSet):
    """The C(r, n) points of the configuration, in subset order."""
    return list(hset.points)


def star_ideal_product_generators(hset: HyperplaneSet):
    """The C(r, n-1) products of all forms outside an (n-1)-subset, as a
    new list (`HyperplaneSet.product_generators`)."""
    return list(hset.product_generators)


@dataclass
class StarConfiguration:
    """A certified hyperplane set with its points and ideal generators."""

    hyperplanes: HyperplaneSet
    points: list
    ideal_generators: list


def build_star_configuration(hset: HyperplaneSet) -> StarConfiguration:
    """Construct points and generators and check that every generator
    vanishes at every point.  A point on an extra hyperplane, or two equal
    points, would be a vanishing (n+1)-minor, which `hset` excludes."""
    points = intersection_points(hset)
    gens = star_ideal_product_generators(hset)
    for g in gens:
        for pt in points:
            if evaluate(g, pt.coords):
                raise DegenerateIntersectionError(
                    f"generator for subset complement fails at point {pt.tag}")
    return StarConfiguration(hset, points, gens)


# ---------------------------------------------------------------------------
# Hilbert functions and graded ideal dimensions


@dataclass
class HilbertFunctionTable:
    """Values HF(0), HF(1), ..., HF(t_max) of a point set."""

    values: list

    def __iter__(self):
        return iter(self.values)


def _point_coords(points, num_vars: int | None = None):
    """Coordinate tuples of the points; ``ValueError`` unless they all have
    one width, ``num_vars`` when it is given."""
    coords = [pt.coords if isinstance(pt, StarPoint) else tuple(pt) for pt in points]
    widths = {len(c) for c in coords} | ({num_vars} if num_vars is not None else set())
    if len(widths) > 1:
        raise ValueError(f"points must share one width, got widths {sorted(widths)}")
    return coords


def evaluation_matrix(points, degree: int):
    """Rows = points, columns = the degree-t monomial basis evaluated there,
    on the coordinates as given."""
    return [monomial_values(c, degree) for c in _point_coords(points)]


def _evaluation(p, coords, degree: int):
    """The degree-t evaluation matrix of the `field.residue_rows` pair
    (p, coords): an int64 residue array (`poly.monomial_table`) over F_p,
    `evaluation_matrix` lists with p None."""
    if p is None:
        return evaluation_matrix(coords, degree)
    return monomial_table(coords, degree, p)


def hilbert_function(points, t_max: int) -> HilbertFunctionTable:
    """HF(t) = rank of the evaluation matrix of the point set in degree t.

    Row scaling cannot change the rank, so the raw minor coordinates of
    star points are fine as-is.
    """
    if t_max < 0:
        raise ValueError("degree must be nonnegative")
    p, coords = residue_rows(_point_coords(points))
    if not coords:
        raise ValueError("need at least one point")
    return HilbertFunctionTable([linalg.rank_over(p, _evaluation(p, coords, t))
                                 for t in range(t_max + 1)])


def point_ideal_piece(points, degree: int, num_vars: int | None = None):
    """Basis of the degree-t dual forms vanishing on the point set."""
    p, coords = residue_rows(_point_coords(points, num_vars))
    nv = num_vars if num_vars is not None else len(coords[0])
    kernel = linalg.kernel_over(p, _evaluation(p, coords, degree),
                                comb(nv - 1 + degree, degree))
    return [form_from_vector(DUAL, nv, degree, v, p) for v in kernel]


def star_ideal_dimension_by_intersection(hset: HyperplaneSet, t: int) -> int:
    """dim of the degree-t piece of the intersection ideal, by evaluation at
    the points taken as kernel vectors (`HyperplaneSet.kernel_points`,
    found once per set and independent of the Cramer minors of
    `intersection_points`): the degree-t forms vanishing at every point
    are the kernel of the evaluation matrix.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    p, coords = residue_rows(hset.kernel_points)
    return comb(hset.n + t, t) - linalg.rank_over(p, _evaluation(p, coords, t))


def star_ideal_dimension_by_products(hset: HyperplaneSet, t: int) -> int:
    """dim of the degree-t piece of the ideal the product generators span.

    Below the generators' degree r - n + 1 the piece is zero, and the
    generators are not expanded; above it they are expanded once per set
    (`HyperplaneSet.product_generators`), not once per degree.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    if t < hset.r - hset.n + 1:
        return 0
    return ideal_piece_dimension(hset.product_generators, t)


def star_ideal_graded_dimension(hset: HyperplaneSet, t: int) -> int:
    """Degree-t dimension of the configuration ideal, computed both ways.

    A disagreement between the intersection route and the product route
    would falsify the generation statement this package relies on, so it
    is reported as an error rather than silently repaired.
    """
    by_intersection = star_ideal_dimension_by_intersection(hset, t)
    by_products = star_ideal_dimension_by_products(hset, t)
    if by_intersection != by_products:
        raise ArithmeticError(
            f"ideal dimension routes disagree in degree {t}: "
            f"intersection {by_intersection} vs products {by_products}")
    return by_intersection


def random_hyperplanes(n: int, r: int, rng) -> HyperplaneSet:
    """Draw a certified random hyperplane set over F_p, p = `DEFAULT_PRIME`.

    Redraws the whole set (consuming the seed stream deterministically)
    whenever general position fails, a zero row included (`redraw`); over
    a large prime this is rare.  Bad n or r raise ``ValueError`` from
    `HyperplaneSet` on the first draw.
    """
    return redraw(lambda: HyperplaneSet([[random_scalar(rng) for _ in range(n + 1)]
                                         for _ in range(r)]),
                  f"(r,n)=({r},{n}) over p={DEFAULT_PRIME}")[0]
