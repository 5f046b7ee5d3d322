"""Star configurations from hyperplanes: general-position certification,
the n-wise intersection points, two independent constructions of the
configuration ideal, and Hilbert functions of point sets.

Given r linear forms in the dual ring with every (n+1)-subset linearly
independent, the configuration consists of the C(r, n) points cut out by
the n-subsets.  Each point is computed by signed maximal minors of the
n x (n+1) coefficient matrix of its subset (Cramer), all n+1 of them from
one `linalg.minors` pass, so coordinates stay polynomial in the hyperplane
coefficients and the generic coefficient map of `existence` can be
differentiated through them.  They are computed once per hyperplane set,
supplied (`HyperplaneSet`, which keeps them) or drawn (`existence`), and
general position is read off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from math import comb

from . import linalg
from .field import Fp, random_scalar, residue_rows
from .poly import (DUAL, Form, coefficient_vector, evaluate, form_from_vector,
                   monomial_values)
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


class DegenerateIntersectionError(ArithmeticError):
    """An n-subset of hyperplanes failed to cut out a single point."""


def general_position_violation(rows, points):
    """First (n+1)-subset of coefficient rows with vanishing maximal minor.

    ``points`` holds the Cramer points of every n-subset of the rows, in
    `combinations` order (`_points_from_coeff_rows`).  The minor of
    S + (k,) is +-l_k(P_S) (expand along row k), so each row k > max S is
    evaluated at P_S.  With r = n there is no such minor, and the one point
    is zero exactly when the rows are dependent.  Returns the violating
    index subset, or None when every maximal minor is nonzero.
    """
    if len(points) == 1 and not any(points[0].coords):
        return points[0].tag
    for pt in points:
        for k in range(pt.tag[-1] + 1, len(rows)):
            if not sum(a * b for a, b in zip(rows[k], pt.coords)):
                return pt.tag + (k,)
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
        for k, row in enumerate(rows):
            if not any(row):
                raise ValueError(f"hyperplane {k} is the zero form")
        self.points = tuple(_points_from_coeff_rows(rows, self.n))
        violation = general_position_violation(rows, self.points)
        if violation is not None:
            raise GeneralPositionError(violation)
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
    """Cramer points for every n-subset, over any commutative scalars.

    Coordinate j of the point for subset tau is (-1)^j times the maximal
    minor of the n x (n+1) matrix of tau's rows with column j removed, so
    it involves no coefficient from variable slot j.  A dependent
    n-subset gets the zero point.  Rows over F_p are expanded on their int
    residues (`field.residue_rows`) and the coordinates wrapped back into `Fp`.
    """
    full = (1 << (n + 1)) - 1
    p, rows = residue_rows(rows)
    zero = rows[0][0] * 0
    points = []
    for tau in combinations(range(len(rows)), n):
        found = linalg.minors([rows[j] for j in tau])
        coords = []
        for j in range(n + 1):
            minor = found.get(full ^ (1 << j), zero)
            coords.append(-minor if j % 2 else minor)
        if p is not None:
            coords = [Fp(c, p) for c in coords]
        points.append(StarPoint(tau, tuple(coords)))
    return points


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
    """Rows = points, columns = the degree-t monomial basis evaluated there."""
    return [monomial_values(c, degree) for c in _point_coords(points)]


def hilbert_function(points, t_max: int) -> HilbertFunctionTable:
    """HF(t) = rank of the evaluation matrix of the point set in degree t.

    Row scaling cannot change the rank, so the raw minor coordinates of
    star points are fine as-is.
    """
    coords = _point_coords(points)
    if not coords:
        raise ValueError("need at least one point")
    return HilbertFunctionTable([linalg.rank(evaluation_matrix(coords, t))
                                 for t in range(t_max + 1)])


def point_ideal_piece(points, degree: int, num_vars: int | None = None):
    """Basis of the degree-t dual forms vanishing on the point set."""
    coords = _point_coords(points, num_vars)
    nv = num_vars if num_vars is not None else len(coords[0])
    rows = evaluation_matrix(coords, degree)
    kernel = linalg.kernel_basis(rows, comb(nv - 1 + degree, degree))
    return [form_from_vector(DUAL, nv, degree, v) for v in kernel]


def star_ideal_dimension_by_intersection(hset: HyperplaneSet, t: int) -> int:
    """dim of the degree-t piece of the intersection ideal, by evaluation at
    the points taken as kernel vectors.

    Each n-subset's point is the one kernel vector of its n x (n+1)
    coefficient block (exact RREF, independent of the Cramer minors of
    `intersection_points`); the degree-t forms vanishing at every point are
    the kernel of the evaluation matrix.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    nv = hset.n + 1
    points = [linalg.kernel_basis([hset.coeffs[j] for j in tau], nv)[0]
              for tau in combinations(range(hset.r), hset.n)]
    return comb(nv - 1 + t, t) - linalg.rank(evaluation_matrix(points, t))


def star_ideal_dimension_by_products(hset: HyperplaneSet, t: int) -> int:
    """dim of the degree-t piece of the ideal the product generators span.

    Below the generators' degree r - n + 1 the piece is zero, and the
    generators are not expanded; above it they are expanded once per set
    (`HyperplaneSet.product_generators`), not once per degree.
    """
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

    Resamples the whole set (consuming the seed stream deterministically)
    whenever `HyperplaneSet` rejects it (a zero row or a vanishing
    general-position minor); over a large prime this is rare, and
    `RESAMPLE_BUDGET` turns pathological luck into an error.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if r < n:
        raise ValueError(f"need r >= n, got r={r}, n={n}")
    for _ in range(RESAMPLE_BUDGET):
        try:
            return HyperplaneSet([[random_scalar(rng) for _ in range(n + 1)]
                                  for _ in range(r)])
        except ValueError:
            continue
    raise RuntimeError(
        f"failed to draw a general-position set (r={r}, n={n}) "
        f"in {RESAMPLE_BUDGET} attempts")
