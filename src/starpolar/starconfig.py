"""Star configurations from hyperplanes: general-position certification,
the n-wise intersection points, two independent constructions of the
configuration ideal, and Hilbert functions of point sets.

Given r linear forms in the dual ring with every (n+1)-subset linearly
independent, the configuration consists of the C(r, n) points cut out by
the n-subsets.  Each point is computed by signed maximal minors of the
n x (n+1) coefficient matrix of its subset (Cramer), so coordinates stay
polynomial in the hyperplane coefficients; this is what downstream
Jacobian computations differentiate through.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import linalg
from .field import DEFAULT_PRIME, constant_part, random_scalar
from .poly import (DUAL, Form, basis_index, coefficient_vector, evaluate,
                   form_from_vector, monomial_basis)
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


def general_position_violation(rows):
    """First (n+1)-subset of coefficient rows with vanishing maximal minor.

    Returns the violating index subset, or None when every maximal minor
    of the r x (n+1) coefficient matrix is nonzero (r <= n is vacuous).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return None
    width = len(rows[0])
    for subset in combinations(range(len(rows)), width):
        if not linalg.det([rows[j] for j in subset]):
            return subset
    return None


class HyperplaneSet:
    """An ordered list of r (>= n) linear forms in the dual ring, certified
    in general position at construction."""

    def __init__(self, coeff_rows, num_vars: int | None = None):
        rows = [tuple(r) for r in coeff_rows]
        if not rows:
            raise ValueError("need at least one hyperplane")
        width = num_vars if num_vars is not None else len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("hyperplane coefficient vectors have mixed lengths")
        self.n = width - 1
        self.r = len(rows)
        if self.r < self.n:
            raise ValueError(f"need r >= n, got r={self.r}, n={self.n}")
        for k, row in enumerate(rows):
            if not any(row):
                raise ValueError(f"hyperplane {k} is the zero form")
        violation = general_position_violation(rows)
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
    it involves no coefficient from variable slot j.
    """
    points = []
    for tau in combinations(range(len(rows)), n):
        sub = [list(rows[j]) for j in tau]
        coords = []
        for j in range(n + 1):
            minor = linalg.det([row[:j] + row[j + 1:] for row in sub])
            coords.append(-minor if j % 2 else minor)
        if not any(constant_part(c) for c in coords):
            raise DegenerateIntersectionError(
                f"hyperplane subset {tau} does not cut out a point")
        points.append(StarPoint(tau, tuple(coords)))
    return points


def intersection_points(hset: HyperplaneSet):
    """The C(r, n) points of the configuration, in subset order."""
    return _points_from_coeff_rows(hset.coeffs, hset.n)


def star_ideal_product_generators(hset: HyperplaneSet):
    """The C(r, n-1) products of all forms outside an (n-1)-subset.

    Each generator has degree r - n + 1 and vanishes on every point of the
    configuration: any n-subset tau misses at most n - 1 of the omitted
    indices, so the product retains a form from tau.
    """
    forms = hset.forms
    gens = []
    for sigma in combinations(range(hset.r), hset.n - 1):
        omit = set(sigma)
        g = None
        for k, f in enumerate(forms):
            if k in omit:
                continue
            g = f if g is None else g * f
        gens.append(g)
    return gens


@dataclass
class StarConfiguration:
    """A certified hyperplane set with its points and ideal generators."""

    hyperplanes: HyperplaneSet
    points: list
    ideal_generators: list


def build_star_configuration(hset: HyperplaneSet) -> StarConfiguration:
    """Construct points and generators and verify the defining invariants:
    points pairwise distinct, each on exactly its tagged hyperplanes, and
    every generator vanishing at every point."""
    points = intersection_points(hset)
    seen = {}
    for pt in points:
        key = pt.normalized()
        if key in seen:
            raise DegenerateIntersectionError(
                f"subsets {seen[key]} and {pt.tag} give the same point")
        seen[key] = pt.tag
    for pt in points:
        for k, row in enumerate(hset.coeffs):
            val = sum(a * b for a, b in zip(row, pt.coords))
            on_plane = not val
            if on_plane != (k in pt.tag):
                raise DegenerateIntersectionError(
                    f"point {pt.tag} lies on hyperplane {k} unexpectedly")
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


def _point_coords(points):
    return [pt.coords if isinstance(pt, StarPoint) else tuple(pt) for pt in points]


def evaluation_matrix(points, degree: int, num_vars: int):
    """Rows = points, columns = the degree-t monomial basis evaluated there."""
    coords = _point_coords(points)
    rows = []
    for c in coords:
        pows = []
        for b in c:
            col = [1]
            for _ in range(degree):
                col.append(col[-1] * b)
            pows.append(col)
        row = []
        for mono in monomial_basis(num_vars, degree):
            term = 1
            for j, e in enumerate(mono):
                if e:
                    term = term * pows[j][e]
            row.append(term)
        rows.append(row)
    return rows


def hilbert_function(points, t_max: int, num_vars: int | None = None) -> HilbertFunctionTable:
    """HF(t) = rank of the evaluation matrix of the point set in degree t.

    Row scaling cannot change the rank, so the raw minor coordinates of
    star points are fine as-is.
    """
    coords = _point_coords(points)
    if not coords:
        raise ValueError("need at least one point")
    nv = num_vars if num_vars is not None else len(coords[0])
    return HilbertFunctionTable([linalg.rank(evaluation_matrix(coords, t, nv))
                                 for t in range(t_max + 1)])


def point_ideal_piece(points, degree: int, num_vars: int | None = None):
    """Basis of the degree-t dual forms vanishing on the point set."""
    coords = _point_coords(points)
    nv = num_vars if num_vars is not None else len(coords[0])
    rows = evaluation_matrix(coords, degree, nv)
    kernel = linalg.kernel_basis(rows, comb(nv - 1 + degree, degree))
    return [form_from_vector(DUAL, nv, degree, v) for v in kernel]


def star_ideal_dimension_by_intersection(hset: HyperplaneSet, t: int) -> int:
    """dim of the degree-t piece of the intersection ideal, by exact kernel
    intersection over the n-subsets.

    Each subset contributes the span of (monomial x form) products; the
    intersection of the spans is computed through their annihilators under
    the coordinate pairing, which is plain linear duality and therefore
    valid over any field.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    n, nv = hset.n, hset.n + 1
    num_cols = comb(nv - 1 + t, t)
    if t == 0:
        return 0  # proper ideals have no constants
    idx = basis_index(nv, t)
    lower = monomial_basis(nv, t - 1)
    annihilators = []
    for tau in combinations(range(hset.r), n):
        rows = []
        for j in tau:
            coeff_row = hset.coeffs[j]
            for mono in lower:
                row = [0] * num_cols
                for v in range(nv):
                    c = coeff_row[v]
                    if c:
                        shifted = list(mono)
                        shifted[v] += 1
                        row[idx[tuple(shifted)]] = c
                rows.append(row)
        annihilators.extend(linalg.kernel_basis(rows, num_cols))
    if not annihilators:
        return num_cols
    return num_cols - linalg.rank(annihilators)


def star_ideal_dimension_by_products(hset: HyperplaneSet, t: int) -> int:
    """dim of the degree-t piece of the ideal the product generators span."""
    return ideal_piece_dimension(star_ideal_product_generators(hset), t)


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


def random_hyperplanes(n: int, r: int, rng, p: int = DEFAULT_PRIME) -> HyperplaneSet:
    """Draw a certified random hyperplane set over F_p.

    Resamples the whole set (consuming the seed stream deterministically)
    whenever `HyperplaneSet` rejects it (a zero row or a vanishing
    general-position minor); over a large prime this is rare, and
    `RESAMPLE_BUDGET` turns pathological luck into an error.
    """
    if r < n:
        raise ValueError(f"need r >= n, got r={r}, n={n}")
    for _ in range(RESAMPLE_BUDGET):
        try:
            return HyperplaneSet([[random_scalar(rng, p) for _ in range(n + 1)]
                                  for _ in range(r)])
        except ValueError:
            continue
    raise RuntimeError(
        f"failed to draw a general-position set (r={r}, n={n}) "
        f"in {RESAMPLE_BUDGET} attempts")
