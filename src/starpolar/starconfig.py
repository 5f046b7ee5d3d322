"""Star configurations from hyperplanes: general-position certification,
the n-wise intersection points, two independent constructions of the
configuration ideal, and Hilbert functions of point sets.

A certified `HyperplaneSet` is the configuration: its points and the
product generators of its ideal (Geramita-Harbourne-Migliore).  Nothing
evaluates a generator at a point: the one of an (n-1)-subset U is the
product of the l_k, k not in U, and each n-subset S holds such a k, where
l_k(P_S) is a determinant with a repeated row, 0 over Z, Q and F_p alike.

Given r linear forms in the dual ring with every (n+1)-subset linearly
independent, the configuration consists of the C(r, n) points cut out by
the n-subsets.  Each point is the Cramer point of its subset, signed
maximal minors polynomial in the coefficients.  Over Z, Q and F_p every
point is a row of one `field.residue_array` (`cramer_table`), built from
one Laplace pass over all (n-1)-subsets U at once, run from a per-n index
plan, with the face index of U in each point's subset (`_star_index`,
which the scan below reads too); `HyperplaneSet` and both matrices of
`existence` read it.  The generic map the tests differentiate takes one
`linalg.minors` pass per n-subset (`_points_from_coeff_rows`).
One blocked scan is the only evaluation of l_k(P_S), over F_p and on int
rows over Q: the certificate drains it, and `star_weights` multiplies it
into an incidence draw's weights mod p.  General position is stated only
here: its error names the first dependent (n+1)-subset, a zero row
included, for a `HyperplaneSet` and both draws of `existence`, and
`redraw` is the one loop that redraws a refused random draw, up to
``RESAMPLE_BUDGET`` times.

The evaluation matrices of the Hilbert function, of `point_ideal_piece`
and of route A are `poly.monomial_table`s over Z, Q and F_p alike, and a
rank over Z or Q is tried mod `DEFAULT_PRIME` first (`_rank_in_degree`).
Route A's points, the kernel vectors of the coefficient blocks, and route
B's generators are found once per set on first use.  The Hilbert function
ranks no degree past the first t >= 1 where it is the number of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations
from math import comb

import numpy as np

from . import linalg
from .field import DEFAULT_PRIME, Fp, random_scalar, residue_array, residue_rows
from .poly import DUAL, Form, coefficient_vector, form_from_vector, monomial_table
from .apolar import ideal_piece_dimension

# random draws (hyperplane sets, parameter points) tried before giving up
RESAMPLE_BUDGET = 32
# points the scan evaluates at once: POINT_BLOCK * r values, not C(r, n) * r
POINT_BLOCK = 128


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
    """First (n+1)-subset of coefficient rows with vanishing maximal minor,
    or None, read off `_checked_values` (the minor of S + (k,) is +-l_k(P_S)).
    ``points`` are the Cramer points of the n-subsets of the rows in
    `combinations` order, over the field ``p`` names (`linalg.rank_over`).
    Rows over Q that are not all ints are scanned with the points as int
    rows (`linalg._integer_row`): l_k(cP) = c l_k(P) keeps every zero."""
    if p is None and not all(isinstance(e, int) for row in rows for e in row):
        rows, points = ([linalg._integer_row(row) for row in a] for a in (rows, points))
    try:
        for _ in _checked_values(p, rows, points):
            pass
    except GeneralPositionError as err:
        return err.subset
    return None


def star_weights(p, rows, points):
    """w_S = prod_{k not in S} l_k(P_S) mod the prime p of every point, in
    `combinations` order: each block of `_checked_values` (which raises on a
    dependent draw) with its columns multiplied pairwise, each level reduced."""
    weights = []
    for block in _checked_values(p, rows, points):
        while block.shape[1] > 1:
            half = block.shape[1] // 2
            pairs = block[:, :half] * block[:, half:2 * half] % p
            block = np.concatenate([pairs, block[:, 2 * half:]], axis=1)
        weights.append(block[:, 0])
    return np.concatenate(weights)


def _checked_values(p, rows, points):
    """The one evaluation of the hyperplanes at the star points: yield the
    table of l_k(P_S), a row per point and a column per hyperplane, with
    l_i(P_S) read as 1 for i in S, ``POINT_BLOCK`` points at a time, as
    `field.residue_array`s (over F_p each product is reduced before the sum).
    A block holding a zero raises `GeneralPositionError` instead, naming
    S + (k,) for its first zero in (point, k) order.  That k exceeds max S:
    a zero at k < max S makes the earlier point S + (k,) minus max S zero
    at max S.  With r = n the one point must not be zero.  Rows of one
    coordinate (n = 0) raise ``ValueError``."""
    rows, points = residue_array(rows, p), residue_array(points, p)
    if rows.shape[1] < 2:
        raise ValueError(f"need n >= 1, got n={rows.shape[1] - 1}")
    sets = _star_index(len(rows), rows.shape[1] - 1)[1]
    if len(sets) == 1 and not any(points[0]):
        raise GeneralPositionError(sets[0].tolist())
    for start in range(0, len(sets), POINT_BLOCK):
        at, own = points[start:start + POINT_BLOCK], sets[start:start + POINT_BLOCK]
        terms = (at[:, i, None] * rows[None, :, i] for i in range(rows.shape[1]))
        values = reduce(np.add, terms) if p is None else sum(t % p for t in terms) % p
        values[np.arange(len(own))[:, None], own] = 1
        s, k = np.nonzero(values == 0)
        if len(s):
            raise GeneralPositionError(own[s[0]].tolist() + [int(k[0])])
        yield values


class HyperplaneSet:
    """An ordered list of r (>= n) linear forms in the dual ring, certified
    in general position at construction; keeps the coordinates of its
    Cramer ``points``, which become `StarPoint`s on first read."""

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
        coords = cramer_table(residues, p)[1]
        violation = general_position_violation(p, residues, coords)
        if violation is not None:
            raise GeneralPositionError(violation)
        self._certified = p, coords
        self.coeffs = rows

    @classmethod
    def from_forms(cls, forms) -> "HyperplaneSet":
        rows = []
        for f in forms:
            if not isinstance(f, Form) or f.ring != DUAL or f.degree != 1:
                raise ValueError("hyperplanes must be linear forms in the dual ring")
            rows.append(coefficient_vector(f))
        return cls(rows)

    @cached_property
    def points(self) -> tuple:
        """The `StarPoint` of every n-subset, in `combinations` order, built
        on first read from the certified `cramer_table` rows: their `Fp`s
        over F_p, their exact scalars over Z and Q."""
        p, coords = self._certified
        coords = coords.tolist()
        coords = coords if p is None else [[Fp(c, p) for c in pt] for pt in coords]
        return tuple(StarPoint(S, tuple(pt))
                     for S, pt in zip(combinations(range(self.r), self.n), coords))

    @property
    def forms(self):
        return [Form.linear(DUAL, row) for row in self.coeffs]

    @cached_property
    def product_generators(self) -> tuple:
        """The C(r, n-1) products of all forms outside an (n-1)-subset, of
        degree r - n + 1, expanded on first use and kept for the life of
        the set; each vanishes at every point (module docstring)."""
        forms = self.forms
        return tuple(
            reduce(Form.__mul__, [f for k, f in enumerate(forms) if k not in sigma])
            for sigma in combinations(range(self.r), self.n - 1))

    @cached_property
    def kernel_points(self) -> tuple:
        """(p, rows): the point of each n-subset, in subset order, as the one
        `linalg.kernel_over` vector of its n x (n+1) block of the coefficients'
        `field.residue_rows`, found on first use and kept; route A's points,
        independent of the Cramer ``points``."""
        p, rows = residue_rows(self.coeffs)
        return p, [linalg.kernel_over(p, [rows[j] for j in tau], self.n + 1)[0]
                   for tau in combinations(range(self.r), self.n)]

    def __repr__(self):
        return f"HyperplaneSet(r={self.r}, n={self.n})"


@dataclass(frozen=True)
class StarPoint:
    """One intersection point, tagged by its defining n-subset of
    hyperplane indices; coordinates are the raw signed minors."""

    tag: tuple
    coords: tuple


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


def _star_index(r: int, n: int):
    """(subsets, sets, faces) of r hyperplanes in P^n, read-only int64
    arrays in `combinations` order: the (n-1)-subsets U, the n-subsets S,
    and faces[s, q], the index of S minus S[q] among the U.  Kept when the
    two counts, C(r + 1, n) together, are at most ``POINT_BLOCK``, so for
    finitely many shapes; built afresh per call above that."""
    return (_kept_star_index if comb(r + 1, n) <= POINT_BLOCK else _build_star_index)(r, n)


def _build_star_index(r: int, n: int):
    subsets, sets = (np.fromiter(chain.from_iterable(combinations(range(r), k)), np.int64,
                                 comb(r, k) * k).reshape(comb(r, k), k) for k in (n - 1, n))
    # U = (u_0 < ... < u_{n-2}) is number C(r, n-1) - 1 - sum_i C(r-1-u_i, n-1-i)
    binom = np.array([[comb(a, b) for b in range(n)] for a in range(r)], dtype=np.int64)
    faces = np.stack([len(subsets) - 1 - binom[r - 1 - np.delete(sets, q, axis=1),
                                                np.arange(n - 1, 0, -1)].sum(axis=1)
                      for q in range(n)], axis=1)
    for a in (subsets, sets, faces):
        a.flags.writeable = False
    return subsets, sets, faces


_kept_star_index = lru_cache(maxsize=None)(_build_star_index)


@lru_cache(maxsize=None)
def _laplace_plan(n: int):
    """The pass of `_cofactor_tables` on rows of width n + 1, in read-only
    int64 arrays.  Keys are column masks, by size and then value.  Level L
    holds (key minus c, c + n + 1 if `linalg.minors` negates the term else c)
    for each column c of each key of size L; ``final`` (key, sign) per E_U[i, j]."""
    full = (1 << (n + 1)) - 1
    masks = [[m for m in range(full + 1) if m.bit_count() == size] for size in range(n)]
    where = [{m: k for k, m in enumerate(keys)} for keys in masks]
    levels = [np.array([(where[size - 1][m ^ 1 << c],
                         c + (n + 1) * ((size - 1 + (m & (1 << c) - 1).bit_count()) % 2))
                        for m in masks[size] for c in range(n + 1) if m >> c & 1],
                       dtype=np.int64).T for size in range(1, n)]
    final = np.array([(where[n - 1].get(full ^ 1 << i ^ 1 << j, 0),
                       (i != j) * (-1) ** (i + j + (i > j)))
                      for i in range(n + 1) for j in range(n + 1)], dtype=np.int64).T
    for a in levels + [final]:
        a.flags.writeable = False
    return levels, final


def _cofactor_tables(rows, n: int, p):
    """The tables E_U of the (n-1)-subsets U of the rows, in `combinations`
    order, one `field.residue_array` over the field ``p`` names.

    Let S = U + {k} have k in position q.  The Cramer coordinate P_{S,j} is
    multilinear in the rows, and d P_{S,j} / d a_{k,i} = (-1)^q E_U[i, j]:
    the signed maximal minor of U's rows on the columns other than i and j,
    with E_U antisymmetric and zero on the diagonal.  Every U is expanded
    in one Laplace pass, level by level as in `linalg.minors`, keyed on the
    columns used so far, with a vector over all U per key, from the
    `_laplace_plan` of n: per level one gather, one product with the signed
    columns of row U[L], one sum of each key's L terms and, over F_p, a
    reduction of each product and of each sum (L residues, far below 2^63).
    """
    subsets = _star_index(len(rows), n)[0]
    levels, (keys, signs) = _laplace_plan(n)
    values = np.ones((1, len(subsets)), dtype=rows.dtype)
    for level, (source, column) in enumerate(levels):
        entries = rows[subsets[:, level]].T
        terms = values[source] * np.concatenate([entries, -entries])[column]
        terms = (terms % p if p else terms).reshape(-1, level + 1, len(subsets))
        values = terms.sum(axis=1) % p if p else terms.sum(axis=1)
    tables = signs[:, None] * values[keys]
    return (tables % p if p else tables).T.reshape(-1, n + 1, n + 1)


def cramer_table(rows, p):
    """(tables, points, sets, faces) of r rows over the field ``p`` names, in
    `combinations` order: the rows' `_cofactor_tables`, one per (n-1)-subset
    U; the points P_S = a_k . (d P_S / d a_k), k = S[0], those of
    `_points_from_coeff_rows`; and the n-subsets S and faces of the
    `_star_index`, so d P_S / d a_{S[q]} is (-1)^q tables[faces[s, q]].
    The rows are read through `field.residue_array`: int64 residues mod p,
    with p >= 2^31 refused before any product, or exact scalars with p None."""
    rows = residue_array(rows, p)
    r, n = len(rows), rows.shape[1] - 1
    tables = _cofactor_tables(rows, n, p)
    _, sets, faces = _star_index(r, n)
    first, cofactor = rows[sets[:, 0]], tables[faces[:, 0]]
    terms = (first[:, i, None] * cofactor[:, i, :] for i in range(n + 1))
    # over F_p a sum of n + 1 residues before its reduction, far below 2^63
    points = sum(t % p for t in terms) % p if p else reduce(np.add, terms)
    return tables, points, sets, faces


def intersection_points(hset: HyperplaneSet):
    """The C(r, n) points of the configuration, in subset order."""
    return list(hset.points)


def star_ideal_product_generators(hset: HyperplaneSet):
    """The C(r, n-1) products of all forms outside an (n-1)-subset, as a
    new list (`HyperplaneSet.product_generators`)."""
    return list(hset.product_generators)


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


def _rank_in_degree(p, coords, degree: int) -> int:
    """Rank of the degree-t `poly.monomial_table` of the `field.residue_rows`
    pair (p, coords).  Over Q it is of the int rows (`linalg._integer_row`)
    mod `DEFAULT_PRIME` when that is min(points, monomials), since a minor
    nonzero mod p is nonzero over Z; `rref` settles any smaller one."""
    if p is None:
        coords = [linalg._integer_row(c) for c in coords]
        full = min(len(coords), comb(len(coords[0]) - 1 + degree, degree))
        residues = [[e % DEFAULT_PRIME for e in row] for row in coords]
        if _rank_in_degree(DEFAULT_PRIME, residues, degree) == full:
            return full
    return linalg.rank_over(p, monomial_table(coords, degree, p))


def hilbert_function(points, t_max: int) -> HilbertFunctionTable:
    """HF(t) = rank of the evaluation matrix of the point set in degree t.

    Row scaling cannot change the rank, so the raw minor coordinates of
    star points are fine as-is.  From the first t >= 1 where HF(t) is the
    number of points given, no matrix is formed: the rows are independent,
    so each point P has a degree-t form that is 1 at P and 0 at the others,
    and times an x_i with P_i != 0 it does the same in degree t + 1.  (At
    t = 0 a zero point still has the row 1.)
    """
    if t_max < 0:
        raise ValueError("degree must be nonnegative")
    p, coords = residue_rows(_point_coords(points))
    if not coords:
        raise ValueError("need at least one point")
    values = []
    for t in range(t_max + 1):
        separated = t >= 2 and values[-1] == len(coords)
        values.append(len(coords) if separated else _rank_in_degree(p, coords, t))
    return HilbertFunctionTable(values)


def point_ideal_piece(points, degree: int, num_vars: int | None = None):
    """Basis of the degree-t dual forms vanishing on the points, of width ``num_vars`` if given."""
    p, coords = residue_rows(_point_coords(points, num_vars))
    if not coords and num_vars is None:
        raise ValueError("an empty point set needs num_vars")
    nv = num_vars if num_vars is not None else len(coords[0])
    table = monomial_table(coords or np.zeros((0, nv), dtype=np.int64), degree, p)
    kernel = linalg.kernel_over(p, table, comb(nv - 1 + degree, degree))
    return [form_from_vector(DUAL, nv, degree, v, p) for v in kernel]


def star_ideal_dimension_by_intersection(hset: HyperplaneSet, t: int) -> int:
    """dim of the degree-t piece of the intersection ideal: the kernel of the
    evaluation matrix at the points taken as kernel vectors
    (`HyperplaneSet.kernel_points`, independent of the Cramer minors)."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    return comb(hset.n + t, t) - _rank_in_degree(*hset.kernel_points, t)


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
