"""Apolar ideal machinery: catalecticant matrices, graded pieces of the
annihilator ideal, membership tests, and Waring coefficient solving.

The annihilator of a degree-d primal form F is the dual ideal of operators
killing F under contraction.  Its degree-i piece is the kernel of the
catalecticant matrix of the contraction map T_i -> S_{d-i}, so every
ideal-theoretic question here is answered degree by degree with exact
linear algebra (no Groebner bases anywhere).  The degree-t piece of an
ideal is the span of the generators' monomial multiples; over F_p their
rows are one int64 residue array, the residues of an echelon basis of
each degree's generators scattered to their `shift_table` positions,
ranked by the mod-p kernel.  Over F_p an annihilator piece is also read
off the mod-p kernel's int64 rows, which become forms directly
(`poly.form_from_vector`), and a Waring solve runs on residues
(`solve_waring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import comb, prod

import numpy as np

from . import linalg
from .field import Fp, residue_rows, scalar_to_str
from .poly import (DUAL, PRIMAL, Form, basis_index, coefficient_vector,
                   contract, contraction_row, field_terms, form_from_vector,
                   linear_power_coefficients, linear_power_table, monomial_basis,
                   format_form, shift_table)

# monomial cells a piece may list: a catalecticant's columns times its
# rows, or the basis of a piece above the form's degree
MAX_PIECE_CELLS = 2**16


@dataclass
class CatalecticantMatrix:
    """Matrix of contraction against F from source degree i to target d-i.

    The column for a basis operator m holds the coordinates of m applied
    to F, so the kernel consists of the degree-i annihilating operators.
    """

    source_degree: int
    target_degree: int
    entries: list            # rows over the target basis
    row_basis: tuple         # monomials of S_{d-i}
    col_basis: tuple         # monomials of T_i

    def rank(self) -> int:
        return linalg.rank(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "source_degree": self.source_degree,
            "target_degree": self.target_degree,
            "rows": [[scalar_to_str(e) for e in row] for row in self.entries],
            "row_basis": [_mono_str(PRIMAL, m) for m in self.row_basis],
            "col_basis": [_mono_str(DUAL, m) for m in self.col_basis],
        }


def check_piece_size(num_vars: int, *degrees: int):
    """Raise ``ValueError`` unless the monomial bases of these degrees have
    at most ``MAX_PIECE_CELLS`` cells together, before any is listed."""
    cells = prod(comb(num_vars - 1 + k, k) for k in degrees)
    if cells > MAX_PIECE_CELLS:
        raise ValueError(f"degrees {', '.join(map(str, degrees))} in {num_vars} "
                         f"variables need {cells} monomial cells, over the "
                         f"limit of {MAX_PIECE_CELLS}")


def _mono_str(ring: str, mono) -> str:
    return format_form(Form.monomial(ring, mono))


def catalecticant(f: Form, i: int) -> CatalecticantMatrix:
    """Catalecticant of a primal form in source degree i, 0 <= i <= deg F;
    the zero form's is the zero matrix, so its annihilator is everything.

    The column of y^b is F's coefficients read through b's
    `contraction_row`, the same entries `contract` forms for y^b (over F_p
    on int residues, wrapped back into `Fp`; a zero entry is the int 0).
    """
    p, rows = _catalecticant_rows(f, i)
    if p is not None:
        rows = [[Fp(v, p) if v else 0 for v in row] for row in rows]
    nv = f.num_vars
    return CatalecticantMatrix(i, f.degree - i, [list(row) for row in rows],
                               monomial_basis(nv, f.degree - i), monomial_basis(nv, i))


def _catalecticant_rows(f: Form, i: int):
    """(p, rows) of the catalecticant over the field of F's coefficients
    (`field_terms`): int residues in [0, p) over F_p, else F's scalars."""
    if f.ring != PRIMAL:
        raise ValueError("catalecticant expects a primal form")
    if not 0 <= i <= f.degree:
        raise ValueError(f"source degree {i} outside 0..{f.degree}")
    nv = f.num_vars
    check_piece_size(nv, i, f.degree - i)
    p, (terms,) = field_terms(f)
    get = terms.get
    cols = [[get(a, 0) * u for a, u in zip(*contraction_row(nv, b, f.degree - i))]
            for b in monomial_basis(nv, i)]
    if p is not None:
        cols = [[v % p for v in col] for col in cols]
    return p, list(zip(*cols))


@dataclass
class PerpGradedPiece:
    """A basis (reduced echelon form over the canonical monomial basis) of
    the degree-i piece of the annihilator ideal of a form."""

    degree: int
    basis: list

    @property
    def dimension(self) -> int:
        return len(self.basis)


def perp_piece(f: Form, i: int) -> PerpGradedPiece:
    """Degree-i piece of the annihilator of F; all of T_i once i > deg F."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    nv = f.num_vars
    if i > f.degree:
        check_piece_size(nv, i)
        basis = [Form.monomial(DUAL, m) for m in monomial_basis(nv, i)]
        return PerpGradedPiece(i, basis)
    p, rows = _catalecticant_rows(f, i)
    kernel = linalg.kernel_over(p, rows, comb(nv - 1 + i, i))
    return PerpGradedPiece(i, [form_from_vector(DUAL, nv, i, v, p) for v in kernel])


def annihilates(op: Form, f: Form) -> bool:
    """True iff the dual operator sends F to the zero form."""
    return contract(op, f).is_zero()


@dataclass
class ApolarityCheck:
    """Outcome of a generator containment test, with the first witness of
    failure (the generator and its nonzero contraction) when it fails."""

    contained: bool
    failing_generator: Form | None = None
    residual: Form | None = None

    def __bool__(self) -> bool:
        return self.contained


def is_apolar_ideal_contained(generators, f: Form) -> ApolarityCheck:
    """Do all generators annihilate F?

    Contraction is an action of the dual ring, so this suffices for the
    whole generated ideal to annihilate F.
    """
    for g in generators:
        res = contract(g, f)
        if not res.is_zero():
            return ApolarityCheck(False, g, res)
    return ApolarityCheck(True)


def _coefficient_runs(gens, t: int):
    """(p, runs): each run of generators of one degree e <= t, in generator
    order, as (e, their coefficient rows over the degree-e basis).

    The rows are one array per run, over the field of the coefficients
    (`field_terms`): int64 residues over F_p, else the coefficients as
    given in an object array.
    """
    nv = gens[0].num_vars
    p, term_maps = field_terms(*gens)
    dtype = object if p is None else np.int64
    runs = []
    for e, run in groupby(zip(gens, term_maps), key=lambda pair: pair[0].degree):
        if e > t:
            continue
        idx = basis_index(nv, e)
        run = [terms for _, terms in run]
        coeffs = np.zeros((len(run), len(idx)), dtype=dtype)
        for k, terms in enumerate(run):
            coeffs[k, [idx[m] for m in terms]] = list(terms.values())
        runs.append((e, coeffs))
    return p, runs


def _scatter(nv: int, runs, t: int):
    """The rows of every (monomial x row) product of degree t, one array.

    The row of m * g holds g's coefficients at the positions `shift_table`
    gives for m, zeros elsewhere: no product is expanded and no scalar is
    multiplied.  Each run is scattered at once, in order; with no run the
    result is an empty int64 array.
    """
    width = comb(nv - 1 + t, t)
    blocks = []
    for e, coeffs in runs:
        where = np.array(shift_table(nv, t - e, e), dtype=np.int64)
        block = np.zeros((len(coeffs), len(where), width), dtype=coeffs.dtype)
        block[:, np.arange(len(where))[:, None], where] = coeffs[:, None, :]
        blocks.append(block.reshape(-1, width))
    return np.concatenate(blocks) if blocks else np.zeros((0, width), dtype=np.int64)


def ideal_piece_dimension(generators, t: int) -> int:
    """Dimension of the degree-t piece of the ideal the generators span.

    The piece is spanned by the products m * g with m a monomial of degree
    t - deg g, so its dimension is the rank of their coefficient rows over
    the field of the coefficients.  Each run of generators of one degree
    e < t is first replaced by an echelon basis of its span, the nonzero
    rows of its `linalg.rref_over`: the products of a basis span the same
    piece from no more rows, and reduced echelon rows are zero at each
    other's pivot columns, so the rank's sparse elimination touches fewer
    rows and entries.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return 0
    p, runs = _coefficient_runs(gens, t)
    for k, (e, coeffs) in enumerate(runs):
        if e < t:
            R, pivots = linalg.rref_over(p, coeffs)
            runs[k] = (e, R[:len(pivots)])
    return linalg.rank_over(p, _scatter(gens[0].num_vars, runs, t))


def verify_perp_generators(f: Form, generators) -> bool:
    """Check a claimed generating set of the annihilator of F.

    Verifies (a) containment: every generator annihilates F, and (b) the
    generated ideal matches the annihilator dimension in every degree up
    to deg F + 1 (beyond which both are everything).
    """
    if not is_apolar_ideal_contained(generators, f):
        return False
    for t in range(f.degree + 2):
        if ideal_piece_dimension(generators, t) != perp_piece(f, t).dimension:
            return False
    return True


@dataclass
class WaringDecomposition:
    """An exact expression of F as a weighted sum of d-th powers of the
    supplied pairwise independent linear forms."""

    linear_forms: list
    coefficients: list
    degree: int

    def combination(self) -> Form:
        """Rebuild the weighted power sum by sparse multiplication.

        This is deliberately a different expansion path from the solver's
        multinomial columns, so a zero residual is a real cross-check.
        """
        total = None
        for alpha, lf in zip(self.coefficients, self.linear_forms):
            piece = (lf ** self.degree) * alpha
            total = piece if total is None else total + piece
        return total

    def residual(self, f: Form) -> Form:
        return self.combination() - f

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "linear_forms": [format_form(lf) for lf in self.linear_forms],
            "coefficients": [scalar_to_str(a) for a in self.coefficients],
        }


def _as_coords(item, num_vars: int):
    if isinstance(item, Form):
        if item.ring != PRIMAL or item.degree != 1:
            raise ValueError("expected primal linear forms")
        if item.num_vars != num_vars:
            raise ValueError("point variable count does not match the form")
        return tuple(coefficient_vector(item))
    coords = tuple(item)
    if len(coords) != num_vars:
        raise ValueError("point coordinate count does not match")
    return coords


def _pairwise_independent(p, coord_list) -> tuple | None:
    """First pair (i, j) of proportional points, or None; over F_p (``p``)
    the coordinates are residues and each 2 x 2 minor is reduced mod p."""
    for i, j in combinations(range(len(coord_list)), 2):
        u, v = coord_list[i], coord_list[j]
        minors = (u[a] * v[b] - u[b] * v[a] for a, b in combinations(range(len(u)), 2))
        if not any(m % p if p else m for m in minors):
            return (i, j)
    return None


def solve_waring(points, f: Form):
    """Solve for weights alpha with  sum alpha_i * L_i^d = F,  exactly.

    ``points`` may be primal linear forms or raw coordinate sequences.
    Returns a :class:`WaringDecomposition`, or None when the linear system
    is inconsistent (F is outside the span of the supplied powers).  The
    system is solved with free variables pinned to zero under the canonical
    column order, so the output is reproducible.

    Over F_p (an `Fp` among the points or F's coefficients) everything
    runs on the residues: two points are refused when they are proportional
    mod p, the columns are rows of `poly.linear_power_table`, the system is
    solved by `linalg.solve_over`, and the weights come back as `Fp`, free
    ones included; F_p needs p < 2^31, as every F_p matrix does.  Over Q
    the columns are `linear_power_coefficients` on the scalars as given,
    solved by `linalg.solve_linear`.  `WaringDecomposition.residual`
    rebuilds F by sparse multiplication, a different path from either.
    """
    if f.ring != PRIMAL:
        raise ValueError("Waring decomposition expects a primal form")
    nv, d = f.num_vars, f.degree
    coords = [_as_coords(item, nv) for item in points]
    if not coords:
        return None
    p, (*pts, rhs) = residue_rows([*coords, coefficient_vector(f)])
    dup = _pairwise_independent(p, pts)
    if dup is not None:
        raise ValueError(
            f"linear forms {dup[0]} and {dup[1]} are proportional; "
            "the apolarity setup requires pairwise independent points")
    if p is None:
        cols = [linear_power_coefficients(c, d) for c in pts]
        rows = [[col[r] for col in cols] for r in range(len(cols[0]))]
        alphas = linalg.solve_linear(rows, rhs)
    else:
        alphas = linalg.solve_over(p, np.column_stack([linear_power_table(pts, d, p).T, rhs]))
        alphas = None if alphas is None else [Fp(a, p) for a in alphas]
    if alphas is None:
        return None
    forms = [Form.linear(PRIMAL, c) for c in coords]
    return WaringDecomposition(forms, alphas, d)
