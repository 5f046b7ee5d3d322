"""Apolar ideal machinery: catalecticant matrices, graded pieces of the
annihilator ideal, membership tests, and Waring coefficient solving.

The annihilator of a degree-d primal form F is the dual ideal of operators
killing F under contraction.  Its degree-i piece is the kernel of the
catalecticant matrix of the contraction map T_i -> S_{d-i}, so every
ideal-theoretic question here is answered degree by degree with exact
linear algebra (no Groebner bases anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .field import Fp, scalar_to_str
from .poly import (DUAL, PRIMAL, Form, coefficient_vector, contract,
                   contraction_row, field_terms, form_from_vector,
                   linear_power_coefficients, monomial_basis, format_form,
                   shift_table)


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


def _mono_str(ring: str, mono) -> str:
    return format_form(Form.monomial(ring, mono))


def catalecticant(f: Form, i: int) -> CatalecticantMatrix:
    """Catalecticant of a primal form in source degree i, 0 <= i <= deg F;
    the zero form's is the zero matrix, so its annihilator is everything.

    The column of y^b is F's coefficients read through b's
    `contraction_row`, the same entries `contract` forms for y^b (over F_p
    on int residues, wrapped back into `Fp`; a zero entry is the int 0).
    """
    if f.ring != PRIMAL:
        raise ValueError("catalecticant expects a primal form")
    if not 0 <= i <= f.degree:
        raise ValueError(f"source degree {i} outside 0..{f.degree}")
    nv = f.num_vars
    col_basis = monomial_basis(nv, i)
    row_basis = monomial_basis(nv, f.degree - i)
    p, (terms,) = field_terms(f)
    get = terms.get
    cols = [[get(a, 0) * u for a, u in zip(*contraction_row(nv, b, f.degree - i))]
            for b in col_basis]
    if p is not None:
        cols = [[Fp(v, p) if v % p else 0 for v in col] for col in cols]
    entries = [list(row) for row in zip(*cols)]
    return CatalecticantMatrix(i, f.degree - i, entries, row_basis, col_basis)


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
        basis = [Form.monomial(DUAL, m) for m in monomial_basis(nv, i)]
        return PerpGradedPiece(i, basis)
    cat = catalecticant(f, i)
    kernel = linalg.kernel_basis(cat.entries, len(cat.col_basis))
    basis = [form_from_vector(DUAL, nv, i, v) for v in kernel]
    return PerpGradedPiece(i, basis)


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


def _product_rows(gens, t: int):
    """Coefficient rows of every (monomial x generator) product of degree t.

    The row of m * g holds g's coefficients at the positions `shift_table`
    gives for m, zeros elsewhere: no product is expanded and no scalar is
    multiplied.  Generators of degree above t contribute no row.
    """
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


def ideal_piece_dimension(generators, t: int) -> int:
    """Dimension of the degree-t piece of the ideal the generators span.

    The piece is spanned by the products m * g with m a monomial of degree
    t - deg g, so its dimension is the rank of their coefficient rows
    (`_product_rows`) over the field of the coefficients.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return 0
    rows = _product_rows(gens, t)
    if not rows:
        return 0
    return linalg.rank(rows)


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


def _pairwise_independent(coord_list) -> tuple | None:
    for i, j in combinations(range(len(coord_list)), 2):
        u, v = coord_list[i], coord_list[j]
        if all(not (u[a] * v[b] - u[b] * v[a])
               for a, b in combinations(range(len(u)), 2)):
            return (i, j)
    return None


def solve_waring(points, f: Form):
    """Solve for weights alpha with  sum alpha_i * L_i^d = F,  exactly.

    ``points`` may be primal linear forms or raw coordinate sequences.
    Returns a :class:`WaringDecomposition`, or None when the linear system
    is inconsistent (F is outside the span of the supplied powers).  The
    system is solved with free variables pinned to zero under the canonical
    column order, so the output is reproducible.
    """
    if f.ring != PRIMAL:
        raise ValueError("Waring decomposition expects a primal form")
    nv, d = f.num_vars, f.degree
    coords = [_as_coords(item, nv) for item in points]
    if not coords:
        return None
    dup = _pairwise_independent(coords)
    if dup is not None:
        raise ValueError(
            f"linear forms {dup[0]} and {dup[1]} are proportional; "
            "the apolarity setup requires pairwise independent points")
    cols = [linear_power_coefficients(c, d) for c in coords]
    rows = [[col[r] for col in cols] for r in range(len(cols[0]))]
    rhs = coefficient_vector(f)
    alphas = linalg.solve_linear(rows, rhs)
    if alphas is None:
        return None
    forms = [Form.linear(PRIMAL, c) for c in coords]
    return WaringDecomposition(forms, alphas, d)
