"""Exact dense linear algebra over field scalars.

Matrices are lists of rows of exact scalars of one field: `Fraction` or
`Fp`, with plain ints as the image of Z.  No floating point occurs.

`rank`, `kernel_basis` and `solve_linear` pick the field from their own
entries: if any entry is an `Fp` they run the int64 kernels
`rank_mod`/`kernel_mod`/`rref_mod` on the entries' residues mod its prime
(`field.residue_rows`; kernel rows and solutions come back as `Fp`), otherwise
`rref` over Q.  `solve_linear` alone also takes a prime of 2^31 or more,
which it solves by `rref` on the `Fp` entries.  The `*_over` forms take the
pair (p, rows) that `residue_rows` returns and answer in its representation:
int residues over F_p, scalars with p None.  The division-free `minors`
takes any scalars: it returns every maximal minor of a k x m matrix from
one Laplace pass, and `det` is its square case.  `echelon_basis_over`
returns a basis of a row span over either field; the ideal layer reduces
generators with it before multiplying them out.

Over Q, `rref` runs on Python ints.  Scaling a row by a nonzero number
leaves its span alone, so every row is kept as a primitive int row: its
denominators are cleared by their lcm, and the gcd of its entries, the
row's content, is divided out.  At a pivot a in column c, a row whose
entry there is f becomes (a * row - f * pivot row) / gcd(a, f), then
primitive again; both divisions are by common divisors, so they are
exact, and only the rows with a nonzero entry in c are touched, as in
elimination by division.  At the end each pivot row is divided by its
pivot entry: an entry is a `Fraction` only where the pivot does not
divide it, an int otherwise.  Fraction-free elimination by Bareiss's
rule, dividing each update by the previous pivot, is also exact, but it
carries the minors of the matrix: on the product rows of an ideal piece
it ran slower than elimination over `Fraction`, while primitive rows
stay as small as the rows' lines allow.  Any other scalars (`Fp` with
p >= 2^31, say) go through `rref_generic`, which divides in their field;
the tests keep it as the reference.

A kernel is read off one elimination R of the matrix with its columns
reversed.  The vector of a free column f of R has a 1 at f and -R[i, f] at
the i-th pivot, and R[i, f] = 0 for every pivot right of f, so it ends in
its own 1.  Reversed back, that 1 leads, and every other vector is 0 there
(f is free): listed by descending f, the vectors are the reduced echelon
basis, which is unique.

The `*_mod` kernels reduce integer rows mod p with numpy int64
vectorization.  They require p < 2^31 (`INT64_PRIME_LIMIT`) so that a
product of two reduced residues fits in a signed 64-bit word; the package
default prime 2^31 - 1 is the largest prime satisfying this.  Elimination
at a pivot in column c touches only the rows with a nonzero entry in c,
and only their columns from c on: every other row would receive 0 times
the pivot row, and the pivot row is zero left of c.  So sparse matrices
(the product rows of an ideal piece) cost little, and the result is the
same array as full-row elimination.

An update x = a - b * q with a, b, q residues in [0, p) lies in
[-(p - 1)^2, p), inside (-2^62, 2^31) for p < 2^31, so it is exact in
int64.  It is reduced as x - floor(x / p) * p: numpy's floor division by
a scalar is several times cheaper than its int64 remainder, and floor
division gives the residue in [0, p) for negative x too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .field import INT64_PRIME_LIMIT, Fp, is_prime, residue_array, residue_rows


def _invert(x):
    """Multiplicative inverse that never produces a float."""
    if isinstance(x, int):
        if x == 1:
            return 1
        if x == -1:
            return -1
        return Fraction(1, x)
    return 1 / x


def rref(rows):
    """Reduced row-echelon form over an exact field.

    Args:
        rows: list of equal-length rows of field scalars.

    Returns:
        (R, pivots): the reduced rows (new lists; input untouched) and the
        list of pivot column indices (its length is the rank).

    Rows of ints and `Fraction`s are reduced fraction-free on Python ints
    (module docstring), and an entry of R is an int when it is integral;
    any other scalars go through `rref_generic`.
    """
    R = [list(r) for r in rows]
    if all(isinstance(e, (int, Fraction)) for row in R for e in row):
        return _rref_fraction_free(R)
    return rref_generic(R)


def _rref_fraction_free(R):
    """`rref` of int/`Fraction` rows by Gauss-Jordan on primitive int rows
    (module docstring); a `Fraction` is made only for a returned entry
    that is not integral."""
    pivots = []
    if not R:
        return R, pivots
    R = [_primitive(_integer_row(row)) for row in R]
    nrows, ncols = len(R), len(R[0])
    pr = 0
    for c in range(ncols):
        pl = next((i for i in range(pr, nrows) if R[i][c]), None)
        if pl is None:
            continue
        R[pr], R[pl] = R[pl], R[pr]
        prow = R[pr]
        a = prow[c]
        for i, row in enumerate(R):
            f = row[c]
            if f and i != pr:
                g = gcd(a, f)
                u, v = a // g, f // g
                R[i] = _primitive([u * x - v * y for x, y in zip(row, prow)])
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    for i, c in enumerate(pivots):
        a = R[i][c]
        R[i] = [x // a if x % a == 0 else Fraction(x, a) for x in R[i]]
    return R, pivots


def _integer_row(row):
    """A row of ints and `Fraction`s times the lcm of its denominators, as ints."""
    den = lcm(*(e.denominator for e in row))
    return [e.numerator * (den // e.denominator) for e in row]


def _primitive(row):
    """An int row divided by the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref_generic(rows):
    """`rref` by division in the field of the entries, for any exact
    scalars: every pivot row is scaled to a leading 1 and cleared from the
    others.  `rref` runs it on scalars other than ints and `Fraction`s,
    such as the `Fp`s that `solve_over` builds for a prime of 2^31 or
    more; the tests keep it as the reference of the fraction-free path."""
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
            inv = _invert(piv)
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


def rank(rows) -> int:
    """Rank over the field of the entries: F_p if any entry is an `Fp`, else Q."""
    return rank_over(*residue_rows(rows))


def rank_over(p, rows) -> int:
    """Rank over the field that ``p`` names, the pair `field.residue_rows`
    returns: over F_p the rows hold int residues (lists or an int64 array,
    `rank_mod`), and with p None they are scalars of Q (`rref`)."""
    return len(rref(rows)[1]) if p is None else rank_mod(rows, p)


def echelon_basis_over(p, rows):
    """A basis of the row span over the field that ``p`` names, as in
    `rank_over`: the nonzero rows of the reduced echelon form, an int64
    array over F_p (`rref_mod`) and lists of scalars of Q (`rref`)."""
    R, pivots = rref(rows) if p is None else rref_mod(rows, p)
    return R[:len(pivots)]


def kernel_basis(rows, num_cols: int):
    """Basis of the right kernel of the matrix, as rows in reduced echelon form.

    The field is chosen as in `rank`; over F_p the rows hold `Fp` entries.
    ``num_cols`` is required so the kernel of an empty matrix is well defined.
    """
    p, rows = residue_rows(rows)
    kernel = kernel_over(p, rows, num_cols)
    return kernel if p is None else [[Fp(e, p) for e in row] for row in kernel]


def kernel_over(p, rows, num_cols: int):
    """`kernel_basis` over the field that ``p`` names, as in `rank_over`,
    with rows of int residues over F_p (`kernel_mod`, as lists).

    Over Q, one `rref` of the rows with their columns reversed: a
    free-column vector ends in its own 1 at f, which leads once reversed
    back and is 0 in every other vector, so listed by descending f they are
    the reduced echelon basis.  ``ValueError`` if a row is not ``num_cols`` wide.
    """
    if p is not None:
        return kernel_mod(rows, num_cols, p).tolist()
    rows = [list(row)[::-1] for row in rows]
    for row in rows:
        _check_width(len(row), num_cols)
    if not rows:
        return [[1 if j == i else 0 for j in range(num_cols)] for i in range(num_cols)]
    R, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fcol in (c for c in reversed(range(num_cols)) if c not in pivot_set):
        v = [0] * num_cols
        v[fcol] = 1
        for prow, pcol in enumerate(pivots):
            e = R[prow][fcol]
            if e:
                v[pcol] = -e
        basis.append(v[::-1])
    return basis


def _check_width(width: int, num_cols: int) -> None:
    """Raise ``ValueError`` unless a kernel's row has ``num_cols`` columns."""
    if width != num_cols:
        raise ValueError(f"a row has {width} columns, expected num_cols={num_cols}")


def solve_linear(rows, rhs):
    """One exact solution of ``rows @ x = rhs`` or None if inconsistent.

    Free variables are set to zero under the column order, so the returned
    solution is canonical.  The field is chosen as in `rank`; over F_p the
    solution holds `Fp` entries, free variables included.
    """
    if not rows:
        return []
    return solve_over(*residue_rows([list(r) + [b] for r, b in zip(rows, rhs)]))


def solve_over(p, aug):
    """`solve_linear` of the augmented rows [A | b] over the field that ``p``
    names, as in `rank_over`: int residues over F_p (lists or an int64
    array), solved by `rref_mod` below 2^31 and by `rref` on their `Fp`s
    above it, and scalars of Q with p None."""
    ncols = len(aug[0]) - 1
    if p is None:
        R, pivots = rref(aug)
        last, zero = [row[-1] for row in R], 0
    elif p < INT64_PRIME_LIMIT:
        R, pivots = rref_mod(aug, p)
        last, zero = [Fp(v, p) for v in R[:len(pivots), -1].tolist()], Fp(0, p)
    else:
        R, pivots = rref([[Fp(e, p) for e in row] for row in aug])
        last, zero = [row[-1] for row in R], Fp(0, p)
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for pcol, v in zip(pivots, last):
        x[pcol] = v
    return x


def minors(rows):
    """All maximal minors of a k x m matrix (k <= m) in one division-free pass.

    Laplace expansion row by row, memoized on the set of columns used so
    far.  Returns a dict from each k-column bitmask (bit c = column c) to
    the determinant of the k x k submatrix on those columns; an absent
    mask means that minor is zero.  Works over any commutative ring of
    scalars, in particular over jets, whose values cannot be divided by.
    Intended for small matrices.
    """
    cur = {0: 1}
    for i, row in enumerate(rows):
        nxt = {}
        for mask, v in cur.items():
            for c, a in enumerate(row):
                bit = 1 << c
                if mask & bit or not a:
                    continue
                term = a * v
                if (i + (mask & (bit - 1)).bit_count()) % 2:
                    term = -term
                key = mask | bit
                if key in nxt:
                    nxt[key] = nxt[key] + term
                else:
                    nxt[key] = term
        if not nxt:
            return {}  # a whole row was zero
        cur = nxt
    return cur


def det(rows):
    """Determinant of a square matrix: its one maximal minor (`minors`).
    The package calls `minors`; tests and the benchmark tracer use `det`."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("determinant requires a square matrix")
    full = (1 << k) - 1
    found = minors(rows)
    return found[full] if full in found else rows[0][0] * 0


# ---------------------------------------------------------------------------
# mod-p fast paths (integer matrices, numpy int64)


def check_modulus(p: int) -> None:
    """Raise ``ValueError`` unless p is a prime below the int64 limit (checked first)."""
    if p >= INT64_PRIME_LIMIT:
        raise ValueError(f"prime {p} too large for the int64 mod-p kernel (need p < 2^31)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix mod p (plain echelon, eliminate below only)."""
    M = residue_array(rows, p)
    if M.size == 0:
        return 0
    return len(_echelon_mod(M, p))


def _eliminate(M, rows, r: int, c: int, p: int) -> None:
    """Clear column c of the given rows with pivot row r (whose entry there is 1).

    Row r is zero left of c, so only columns c: change.  Adjacent rows are
    updated in place through a view, scattered ones through a gathered copy.
    """
    if not rows.size:
        return
    lo = int(rows[0])
    run = rows[-1] - lo + 1 == rows.size
    block = M[lo:lo + rows.size, c:] if run else M[rows, c:]
    tmp = np.multiply.outer(block[:, 0], M[r, c:])
    block -= tmp
    # reduce mod p by floor division (module docstring); tmp is reused
    np.floor_divide(block, p, out=tmp)
    tmp *= p
    block -= tmp
    if not run:
        M[rows, c:] = block


def _echelon_mod(M, p: int):
    """In-place row-echelon form mod p (eliminate below only, pivots are 1).

    Returns the pivot column list; rows beyond the rank are zero.
    """
    nrows, ncols = M.shape
    pivots = []
    r = 0
    for c in range(ncols):
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        j = r + int(nz[0])
        if j != r:
            M[[r, j]] = M[[j, r]]
        inv = pow(int(M[r, c]), -1, p)
        prow = M[r, c:]
        prow *= inv
        prow %= p
        # the rows r + nz[1:] keep their place in the swap (they lie below j)
        _eliminate(M, r + nz[1:], r, c, p)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref_mod(rows, p: int):
    """Reduced row-echelon form mod p.  Returns (array, pivot columns)."""
    M = residue_array(rows, p)
    if M.size == 0:
        return M, []
    pivots = _echelon_mod(M, p)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        _eliminate(M, np.flatnonzero(M[:r, c]), r, c, p)
    return M, pivots


def kernel_mod(rows, num_cols: int, p: int):
    """Right-kernel basis mod p, rows in reduced echelon form (int64 array).

    Read off one `rref_mod` of the matrix with its columns reversed: the
    vector for free column f has a 1 at f and -R[i, f] at the i-th pivot,
    ends in that 1, which leads once reversed back and is 0 in every other
    vector, so listed by descending f they are the reduced echelon basis
    (module docstring).  ``ValueError`` if the rows are not ``num_cols`` wide.
    """
    if not len(rows):
        return np.eye(num_cols, dtype=np.int64)
    M = residue_array(rows, p)
    _check_width(M.shape[1], num_cols)
    R, pivots = rref_mod(M[:, ::-1], p)
    pivot_set = set(pivots)
    free = [c for c in reversed(range(num_cols)) if c not in pivot_set]
    basis = np.zeros((len(free), num_cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -R[:len(pivots), free].T % p
    return basis[:, ::-1]
