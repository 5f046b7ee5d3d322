"""Exact dense linear algebra over field scalars.

Matrices are lists of rows of exact scalars of one field: `Fraction` or
`Fp`, with plain ints as the image of Z.  No floating point occurs.

`rank`, `kernel_basis` and `solve_linear` pick the field from their own
entries: F_p if any entry is an `Fp`, else Q.  They read the entries
through `field.residue_rows`, whose pair (p, rows) holds int residues in
[0, p) over F_p and the scalars as given with p None, and they wrap an
F_p answer into `Fp`s.  The `*_over` forms take that pair and answer in
its representation.  `rref_over` is the one place that picks an
elimination, `rref_mod` over F_p and `rref` over Q, and every kernel,
solution and echelon basis is read off it the same way for both fields.
The division-free `minors` takes any scalars: it returns every maximal
minor of a k x m matrix from one Laplace pass, and `det` is its square
case.

Over Q, `rref` runs on Python ints.  Scaling a row by a nonzero number
leaves its span alone, so every row is kept as a primitive int row: its
denominators are cleared by their lcm, and the gcd of its entries, the
row's content, is divided out.  At a pivot a in column c, a row whose
entry there is f becomes (a * row - f * pivot row) / gcd(a, f), then
primitive again; both divisions are by common divisors, so they are
exact, and only the rows with a nonzero entry in c are touched, as in
elimination by division.  At the end each pivot row is divided by its
pivot entry: an entry is a `Fraction` only where the pivot does not
divide it, an int otherwise.  Any other scalars, such as `Fp` objects,
go through `rref_generic`, which divides in their field; the tests keep
it as the reference.

A kernel is read off one elimination R of the matrix with its columns
reversed, by one array read-off: on an object array of scalars over Q,
on the int64 residue array over F_p.  The vector of a free column f of R
has a 1 at f and -R[i, f] at the i-th pivot, and R[i, f] = 0 for every
pivot right of f, so it ends in its own 1.  Reversed back, that 1 leads,
and every other vector is 0 there (f is free): listed by descending f,
the vectors are the reduced echelon basis, which is unique.  A solution
is read off the elimination of the augmented rows [A | b]: x takes the
last column's entry at each pivot and 0 at each free column, and a pivot
in the last column (the row 0 = 1) means there is none.

The `*_mod` kernels reduce integer rows mod p with numpy int64
vectorization.  They require p < 2^31 so that a product of two reduced
residues fits in a signed 64-bit word; the package default prime
2^31 - 1 is the largest prime satisfying this.  Every F_p matrix is read
through `field.residue_array`, which refuses a larger prime before any
entry is converted.  Elimination at a pivot in column c touches only
the rows with a nonzero entry in c, and only their columns from c on:
every other row would receive 0 times the pivot row, and the pivot row
is zero left of c.  So sparse matrices (the product rows of an ideal
piece) cost little, and the result is the same array as full-row
elimination.

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
    such as `Fp` objects; the tests keep it as the reference of the
    fraction-free path and of the mod-p kernels."""
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


def rref_over(p, rows):
    """(R, pivots) of the rows over the field that ``p`` names, the pair
    `field.residue_rows` returns: over F_p the rows hold int residues
    (lists or an int64 array) and R is `rref_mod`'s int64 array; with p
    None they are scalars of Q and R is `rref`'s rows as an object array."""
    if p is not None:
        return rref_mod(rows, p)
    R, pivots = rref(rows)
    return np.array(R, dtype=object), pivots


def rank(rows) -> int:
    """Rank over the field of the entries: F_p if any entry is an `Fp`, else Q."""
    return rank_over(*residue_rows(rows))


def rank_over(p, rows) -> int:
    """Rank over the field that ``p`` names, as in `rref_over`: by the
    echelon pass alone over F_p (`rank_mod`), by `rref` over Q."""
    return len(rref(rows)[1]) if p is None else rank_mod(rows, p)


def kernel_basis(rows, num_cols: int):
    """Basis of the right kernel of the matrix, as rows in reduced echelon form.

    The field is chosen as in `rank`; over F_p the rows hold `Fp` entries.
    ``num_cols`` is required so the kernel of an empty matrix is well defined.
    """
    p, rows = residue_rows(rows)
    kernel = kernel_over(p, rows, num_cols)
    return kernel if p is None else [[Fp(e, p) for e in row] for row in kernel]


def kernel_over(p, rows, num_cols: int):
    """`kernel_basis` over the field that ``p`` names, as in `rref_over`, as
    lists: int residues over F_p (`kernel_mod`), scalars of Q with p None.
    ``ValueError`` if a row is not ``num_cols`` wide."""
    if p is not None:
        return kernel_mod(rows, num_cols, p).tolist()
    for row in rows:
        _check_width(len(row), num_cols)
    M = np.array(rows, dtype=object).reshape(len(rows), num_cols)
    return _read_kernel(None, M, num_cols).tolist()


def _read_kernel(p, M, num_cols: int):
    """Right-kernel basis of the 2-D array M over the field that ``p``
    names, as an array of M's dtype in reduced echelon form, read off one
    `rref_over` of M with its columns reversed (module docstring)."""
    if not len(M):
        return np.eye(num_cols, dtype=M.dtype)
    _check_width(M.shape[1], num_cols)
    R, pivots = rref_over(p, M[:, ::-1])
    pivot_set = set(pivots)
    free = [c for c in reversed(range(num_cols)) if c not in pivot_set]
    basis = np.zeros((len(free), num_cols), dtype=M.dtype)
    basis[range(len(free)), free] = 1
    entries = -R[:len(pivots), free].T
    basis[:, pivots] = entries if p is None else entries % p
    return basis[:, ::-1]


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
    p, aug = residue_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    x = solve_over(p, aug)
    return x if p is None or x is None else [Fp(v, p) for v in x]


def solve_over(p, aug):
    """`solve_linear` of the augmented rows [A | b] over the field that
    ``p`` names, as in `rref_over`, as a list: int residues over F_p,
    scalars of Q with p None; None if there is no solution.

    x holds the last column of the reduced rows at the pivots and 0 at the
    free columns.  Read off at the last column too, it ends in 1 exactly
    when that column is a pivot, the row 0 = 1 of an inconsistent system.
    """
    R, pivots = rref_over(p, aug)
    x = np.zeros(R.shape[1], dtype=R.dtype)
    x[pivots] = R[:len(pivots), -1]
    return None if x[-1] else x[:-1].tolist()


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
    """Right-kernel basis mod p, rows in reduced echelon form (int64 array),
    read off one `rref_mod` of the matrix with its columns reversed (module
    docstring).  ``ValueError`` if the rows are not ``num_cols`` wide."""
    return _read_kernel(p, residue_array(rows, p), num_cols)
