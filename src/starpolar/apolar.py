"""Apolar ideal machinery: catalecticant matrices, graded pieces of the
annihilator ideal, membership tests, and Waring coefficient solving.

The annihilator of a degree-d primal form F is the dual ideal of operators
killing F under contraction.  Its degree-i piece is the kernel of the
catalecticant matrix of the contraction map T_i -> S_{d-i}, so every
ideal-theoretic question here is answered degree by degree with exact
linear algebra (no Groebner bases anywhere).  The degree-t piece of an
ideal is the span of the generators' monomial multiples, with the
monomials in degrevlex order; over F_p their rows are int64 residues of
an echelon basis of each degree's generators placed at their products'
positions.  Each basis row is 1 at its leading monomial, and a monomial
multiple leads at 1 at the product of the two, so one multiple per
distinct leading column gives k0 rows S, unit upper triangular on those
columns P.  With F the f other columns and N the other rows,
rank = k0 + rank(N_F - N_P S_P^-1 S_F), exactly, over any field.  By
Bayer-Stillman (generic coordinates, degrevlex) the leading terms of the
generators give almost all of the rank, so f is near HF(t) and only that
small Schur complement meets the mod-p kernel.  S_P^-1 S_F is solved
level by level, each row of S multiplied once; the block is taken when
the product rows number at least the columns and f <= k0, and otherwise
the rows are ranked whole.  Over F_p a form holds int residues
(`poly.Form`), so contraction, membership and containment tests run on
ints and make no `Fp`; an annihilator piece is read off the mod-p
kernel's int64 rows, which become forms directly
(`poly.form_from_vector`); and a Waring solve runs on residues
(`solve_waring`), whose `Fp` weights are the only `Fp`s it makes.
A decomposition's residual rebuilds sum alpha_i L_i^d with every power
expanded at once (`WaringDecomposition.combination`): one level per
degree, each a scatter of the products L_i[m] x_m times the last level,
placed by `poly.shift_table`, on one `field.residue_array` of the
weights and coordinates over Z, Q or F_p.  It forms no multinomial, so
it stays independent of the solver's `linear_power_table` columns, and
a zero residual is a real cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby
from math import comb, prod

import numpy as np

from . import linalg
from .field import Fp, modulus_of, residue, residue_array, residue_rows, scalar_to_str
from .poly import (DUAL, PRIMAL, Form, basis_index, coefficient_vector,
                   contract, contraction_row, field_terms, form_from_vector,
                   linear_power_table, monomial_basis, format_form, shift_table)
from .poly import linear_power_coefficients  # noqa: F401, unused: the tracer wraps this name

# monomial cells a piece may list: a catalecticant's columns times its
# rows, or the basis of a piece above the form's degree
MAX_PIECE_CELLS = 2**16

# int64 terms `_sparse_products` gathers at once (64 KiB)
PRODUCT_BLOCK = 2**13


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
        return linalg.rank_over(*residue_rows(self.entries))

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
    on F's int residues, shown as `Fp`s; a zero entry is the int 0).
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

    The rows are one `field.residue_array` per run, over the field of the
    coefficients (`field_terms`): int64 residues over F_p, else the
    coefficients as given in an object array.
    """
    nv = gens[0].num_vars
    p, term_maps = field_terms(*gens)
    runs = []
    for e, run in groupby(zip(gens, term_maps), key=lambda pair: pair[0].degree):
        if e > t:
            continue
        idx, rows = basis_index(nv, e), []
        for _, terms in run:
            rows.append([0] * len(idx))
            for m, c in terms.items():
                rows[-1][idx[m]] = c
        runs.append((e, residue_array(rows, p)))
    return p, runs


@lru_cache(maxsize=None)
def _degrevlex_plan(num_vars: int, shift: int, degree: int):
    """(order, where), read-only int64 arrays.  ``order`` lists the
    canonical positions of the degree-``degree`` basis in degrevlex order
    (x0 > x1 > ..., monomials of one degree ranked by their reversed
    exponents); row m of ``where`` holds the degrevlex position in degree
    ``shift + degree`` of m times each of them, in that order, for the m of
    `shift_table`.  Multiplying by m keeps a monomial order, so each row of
    ``where`` increases."""
    def ranked(e):
        basis = monomial_basis(num_vars, e)
        return np.array(sorted(range(len(basis)), key=lambda i: basis[i][::-1]), dtype=np.int64)

    order, top = ranked(degree), ranked(shift + degree)
    position = np.empty_like(top)
    position[top] = np.arange(len(top))
    where = position[shift_table(num_vars, shift, degree)[:, order]]
    order.flags.writeable = where.flags.writeable = False
    return order, where


def _scatter(runs, width: int):
    """The rows of every (monomial x row) product, one array ``width`` wide.

    For each run (rows, where), the row of m * b holds b's entries at the
    positions ``where[m]``, zeros elsewhere: no product is expanded and no
    scalar is multiplied.  Each run is scattered at once, in order; with no
    run the result is an empty int64 array.
    """
    blocks = []
    for coeffs, where in runs:
        block = np.zeros((len(coeffs), len(where), width), dtype=coeffs.dtype)
        block[:, np.arange(len(where))[:, None], where] = coeffs[:, None, :]
        blocks.append(block.reshape(-1, width))
    return np.concatenate(blocks) if blocks else np.zeros((0, width), dtype=np.int64)


def _sparse_rows(runs):
    """(cols, vals): each product row of `_scatter`'s runs as its nonzero
    entries, leftmost first, padded with zeros to the longest row."""
    q = max(int(np.count_nonzero(rows, axis=1).max()) for rows, _ in runs)
    cols, vals = [], []
    for rows, where in runs:
        nz = np.argsort(rows == 0, axis=1, kind="stable")[:, :q]
        c = np.zeros((len(where), len(rows), q), dtype=np.int64)
        v = np.zeros_like(c)
        c[..., :nz.shape[1]] = where[:, nz]
        v[..., :nz.shape[1]] = np.take_along_axis(rows, nz, 1)
        cols.append(c.reshape(-1, q))
        vals.append(v.reshape(-1, q))
    return np.concatenate(cols), np.concatenate(vals)


def _sparse_products(cols, vals, Z, p: int):
    """The rows sum_j vals[:, j] * Z[cols[:, j]] mod p, each product
    reduced before the terms are added.  The terms of a block of rows are
    gathered at once, about `PRODUCT_BLOCK` of them, so a block stays in
    cache: one gather of every row's terms (about 1 MB for (6, 4) at
    t = 6) slowed the operations run after it by some 4%."""
    out = np.empty((len(cols), Z.shape[1]), dtype=np.int64)
    step = max(1, PRODUCT_BLOCK // max(1, cols.shape[1] * Z.shape[1]))
    for lo in range(0, len(cols), step):
        terms = Z[cols[lo:lo + step]]
        terms *= vals[lo:lo + step, :, None]
        terms %= p
        np.remainder(terms.sum(axis=1), p, out=out[lo:lo + step])
    return out


def _schur_rank(p: int, reduced, full, lead, first, width: int) -> int:
    """rank M - k0 mod p, for M the product rows of the runs ``reduced``
    and ``full`` (`_scatter`).  Each product row of a reduced run leads at
    1; ``first`` names, in their `_sparse_rows` order, k0 of them S that
    lead at the distinct columns P = ``lead``, in increasing order.

    With F the other f columns and N the other rows, T = S_P is unit upper
    triangular, and rank M = k0 + rank(N_F - N_P T^-1 S_F).  Row i of
    T X = S_F gives X_i from the rows of X = T^-1 S_F at the other columns
    of P where row i of S is nonzero, all right of its lead.  A row's
    level, the longest chain of such dependencies, comes from an int
    gather and max per level, and each level's rows of X are formed at
    once from those before, so each row of S is multiplied once.  A row is
    read at its nonzeros only: against Z, which holds X at P and -I at F,
    a row of S past its lead gives -X_i, and the rows of N the negated
    Schur complement, of the same rank.  The rows of a full run (t = e)
    are padded apart, so that their length does not widen the sparse
    product rows.
    """
    cols, vals = _sparse_rows(reduced)
    free = np.ones(width, dtype=bool)
    free[lead] = False
    f = int(free.sum())
    Z = np.zeros((width, f), dtype=np.int64)
    Z[free] = (p - 1) * np.eye(f, dtype=np.int64)
    # past its leading 1, row i of S needs the rows of S named in needs[i]
    s_cols, s_vals = cols[first, 1:], vals[first, 1:]
    row_at = np.full(width, -1, dtype=np.int64)
    row_at[lead] = np.arange(len(lead))
    needs = np.where(s_vals != 0, row_at[s_cols], -1)
    level = np.zeros(len(lead), dtype=np.int64)
    while True:
        deeper = np.where(needs >= 0, level[needs] + 1, 0).max(axis=1, initial=0)
        if np.array_equal(deeper, level):
            break
        level = deeper
    for k in range(level.max() + 1):
        rows = np.flatnonzero(level == k)
        Z[lead[rows]] = -_sparse_products(s_cols[rows], s_vals[rows], Z, p) % p
    rest = np.ones(len(cols), dtype=bool)
    rest[first] = False
    schur = [_sparse_products(cols[rest], vals[rest], Z, p)]
    if full:
        schur.append(_sparse_products(*_sparse_rows(full), Z, p))
    return linalg.rank_over(p, np.concatenate(schur))


def ideal_piece_dimension(generators, t: int) -> int:
    """Dimension of the degree-t piece of the ideal the generators span.

    The piece is spanned by the products m * g with m a monomial of degree
    t - deg g, so its dimension is the rank of their coefficient rows over
    the field of the coefficients, with the columns in degrevlex order
    (`_degrevlex_plan`; a rank does not depend on the column order).  Each
    run of generators of one degree e < t is first replaced by an echelon
    basis of its span, the nonzero rows of its `linalg.rref_over`: the
    products of a basis span the same piece from no more rows, and each
    basis row b is 1 at its leading monomial LM(b) and 0 at the others'.

    Over F_p the leading terms then settle most of the rank without an
    elimination.  Multiplying by a monomial keeps the order, so m * b leads
    at m * LM(b) with coefficient 1; one product per distinct leading
    column gives k0 rows that are unit upper triangular on those columns,
    and rank = k0 + the rank of a Schur complement on the f = width - k0
    other columns (`_schur_rank`), exactly, however far the leading terms
    fall short.  By Bayer-Stillman the degrevlex initial ideal in generic
    coordinates is generated in degrees up to the regularity, so for a
    star configuration's product generators f is close to HF(t).  The
    block is taken when the reduced runs' product rows number at least
    ``width`` and f <= k0.  Past that its products, each row's nonzeros
    times f, cost more than the elimination they replace: wide plane
    sets, where f > k0, ranked whole 5-10% faster ((8, 2) at t = 9) or 2-3
    times faster ((14, 2) at t = 14), and so did the short (4, 2) at t = 4
    and (5, 2) at t = 5, whose few rows do not repay the block's fixed
    cost.  Otherwise, over Q, and at t = e with no product rows, the rows
    are ranked by one elimination, as `_scatter` places them.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return 0
    nv = gens[0].num_vars
    p, runs = _coefficient_runs(gens, t)
    reduced, full, leads = [], [], []
    for e, coeffs in runs:
        order, where = _degrevlex_plan(nv, t - e, e)
        coeffs = coeffs[:, order]
        if e < t:
            R, pivots = linalg.rref_over(p, coeffs)
            reduced.append((R[:len(pivots)], where))
            leads.append(where[:, pivots].ravel())
        else:
            full.append((coeffs, where))
    width = comb(nv - 1 + t, t)
    if p is not None and sum(map(len, leads)) >= width:
        # one product row per distinct leading column (any one will do)
        leading = np.concatenate(leads)
        pick = np.full(width, -1, dtype=np.int64)
        pick[leading] = np.arange(len(leading))
        lead = np.flatnonzero(pick >= 0)
        if width - len(lead) <= len(lead):
            return len(lead) + _schur_rank(p, reduced, full, lead, pick[lead], width)
    return linalg.rank_over(p, _scatter(reduced + full, width))


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
        """Rebuild the weighted power sum, sum alpha_i * L_i^d, or None for
        an empty decomposition.

        The weights and the coordinates of the L_i are read over their
        common field, F_p if a form or a weight has a prime, as one
        `field.residue_array`, and no `Fp` is made; a term that vanishes
        has no say in the field, as in a sum of forms.  All powers are
        expanded at once: row i of V_0 is alpha_i, and V_{k+1} =
        sum_m L_i[m] x_m V_k over the degree-(k+1) basis is one scatter of
        the products L_i[m] V_k[i] into layers m, at the positions
        `poly.shift_table` gives for x_m, summed over m; over F_p each
        product is reduced before it is added.  The rows of V_d sum to the
        combination.  No multinomial is formed, so this stays a different
        path from the solver's `poly.linear_power_table` columns, and a
        zero residual is a real cross-check.
        """
        if not self.linear_forms or not self.coefficients:
            return None
        d, first = self.degree, self.linear_forms[0]
        pairs = [(alpha, lf) for alpha, lf in zip(self.coefficients, self.linear_forms)
                 if (d == 0 or not lf.is_zero())
                 and (residue(alpha, lf.prime) if lf.prime else alpha)]
        if not pairs:
            return Form.zero(first.ring, first.num_vars, d)
        p, maps = field_terms(*(lf for _, lf in pairs))
        p = p or modulus_of(alpha for alpha, _ in pairs)
        nv = first.num_vars
        rows = [[alpha, *(terms.get(e, 0) for e in monomial_basis(nv, 1))]
                for (alpha, _), terms in zip(pairs, maps)]
        if p is not None:
            rows = [[residue(x, p) for x in row] for row in rows]
        M = residue_array(rows, p)
        V, L = M[:, :1], M[:, 1:]
        layers = np.arange(nv)[:, None]
        for k in range(d):
            B = np.zeros((len(M), nv, comb(nv + k, k + 1)), dtype=M.dtype)
            prods = L[:, :, None] * V[:, None, :]
            B[:, layers, shift_table(nv, 1, k)] = prods % p if p else prods
            V = B.sum(axis=1) % p if p else B.sum(axis=1)
        total = V.sum(axis=0) % p if p else V.sum(axis=0)
        return form_from_vector(first.ring, nv, d, total.tolist(), p)

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

    The points, as linear forms, and F are read over their common field
    (`poly.field_terms`): F_p, on residues, if an `Fp` is among them, else
    Q, on the scalars as given.  Over either field two proportional points
    are refused, the columns are rows of `poly.linear_power_table`, and
    the system is solved by `linalg.solve_over`; over F_p the weights are
    `Fp`s, free ones included, and p < 2^31, as for every F_p matrix.
    `WaringDecomposition.residual` rebuilds F by a batched expansion of
    the powers with no multinomial, a different path from the solver's.
    """
    if f.ring != PRIMAL:
        raise ValueError("Waring decomposition expects a primal form")
    nv, d = f.num_vars, f.degree
    coords = [_as_coords(item, nv) for item in points]
    if not coords:
        return None
    forms = [Form.linear(PRIMAL, c) for c in coords]
    p, (*lines, terms) = field_terms(*forms, f)
    pts = [[line.get(e, 0) for e in monomial_basis(nv, 1)] for line in lines]
    rhs = [terms.get(m, 0) for m in monomial_basis(nv, d)]
    dup = _pairwise_independent(p, pts)
    if dup is not None:
        raise ValueError(
            f"linear forms {dup[0]} and {dup[1]} are proportional; "
            "the apolarity setup requires pairwise independent points")
    alphas = linalg.solve_over(p, np.column_stack([linear_power_table(pts, d, p).T,
                                                   residue_array([rhs], p)[0]]))
    if alphas is None:
        return None
    return WaringDecomposition(forms, alphas if p is None else [Fp(a, p) for a in alphas], d)
