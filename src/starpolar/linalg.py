"""Exact dense linear algebra over field scalars.

Matrices are lists of rows of exact scalars of one field: `Fraction` or
`Fp`, with plain ints as the image of Z.  No floating point occurs.

`rank` and `kernel_basis` pick the field from their own entries: if any
entry is an `Fp` they run the int64 kernels `rank_mod`/`kernel_mod` on
the entries' residues mod its prime (kernel rows come back as `Fp`),
otherwise `rref` over Q.
`solve_linear` and the division-free `det` take any scalars.

The `*_mod` kernels reduce integer rows mod p with numpy int64
vectorization.  They require p < 2^31 (`_INT64_PRIME_LIMIT`) so that a
product of two reduced residues fits in a signed 64-bit word; the package
default prime 2^31 - 1 is the largest prime satisfying this.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .field import Fp, is_prime, modulus_of


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
    """
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
    p = modulus_of(e for row in rows for e in row)
    if p is not None:
        return rank_mod(_residues(rows, p), p)
    return len(rref(rows)[1])


def kernel_basis(rows, num_cols: int):
    """Basis of the right kernel of the matrix, as rows in reduced echelon form.

    The field is chosen as in `rank`; over F_p the rows hold `Fp` entries.
    ``num_cols`` is required so the kernel of an empty matrix is well defined.
    """
    p = modulus_of(e for row in rows for e in row)
    if p is not None:
        return [[Fp(e, p) for e in row]
                for row in kernel_mod(_residues(rows, p), num_cols, p).tolist()]
    if not rows:
        return [[1 if j == i else 0 for j in range(num_cols)] for i in range(num_cols)]
    R, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fcol in (c for c in range(num_cols) if c not in pivot_set):
        v = [0] * num_cols
        v[fcol] = 1
        for prow, pcol in enumerate(pivots):
            e = R[prow][fcol]
            if e:
                v[pcol] = -e
        basis.append(v)
    if basis:
        basis, _ = rref(basis)
        basis = [row for row in basis if any(row)]
    return basis


def solve_linear(rows, rhs):
    """One exact solution of ``rows @ x = rhs`` or None if inconsistent.

    Free variables are set to zero under the column order, so the returned
    solution is canonical.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    R, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for prow, pcol in enumerate(pivots):
        x[pcol] = R[prow][-1]
    return x


def det(rows):
    """Division-free determinant (Laplace expansion with subset memoization).

    Works over any commutative ring of scalars, in particular over jets,
    whose values cannot be divided by.  Intended for small matrices.
    """
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("determinant requires a square matrix")
    if k == 0:
        return 1
    cur = {0: 1}
    for i in range(k):
        nxt = {}
        row = rows[i]
        for mask, v in cur.items():
            for c in range(k):
                bit = 1 << c
                if mask & bit:
                    continue
                a = row[c]
                if not a:
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
            return rows[0][0] * 0  # a whole row was zero
        cur = nxt
    full = (1 << k) - 1
    return cur.get(full, rows[0][0] * 0)


# ---------------------------------------------------------------------------
# mod-p fast paths (integer matrices, numpy int64)

_INT64_PRIME_LIMIT = 2**31


def check_modulus(p: int) -> None:
    """Raise ``ValueError`` unless p is a prime below the int64 limit (checked first)."""
    if p >= _INT64_PRIME_LIMIT:
        raise ValueError(f"prime {p} too large for the int64 mod-p kernel (need p < 2^31)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _residues(rows, p: int):
    """Integer rows mod p, each entry read as in F_p (`Fp.residue`); ints and `Fp`s
    of modulus p, nearly all entries, skip that call, which dominates large matrices."""
    residue = Fp(0, p).residue
    return [[e if e.__class__ is int else e.value if e.__class__ is Fp and e.p == p
             else residue(e) for e in row] for row in rows]


def _as_modp_array(rows, p: int):
    if p >= _INT64_PRIME_LIMIT:
        raise ValueError(f"prime {p} too large for the int64 mod-p kernel")
    M = np.array(rows, dtype=np.int64)
    if M.ndim == 1:
        M = M.reshape(0, 0) if M.size == 0 else M.reshape(1, -1)
    return M % p


def rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix mod p (plain echelon, eliminate below only)."""
    M = _as_modp_array(rows, p)
    if M.size == 0:
        return 0
    return len(_echelon_mod(M, p))


def _echelon_mod(M, p: int):
    """In-place row-echelon form mod p (eliminate below only, pivots are 1).

    Returns the pivot column list; rows beyond the rank are zero.
    """
    nrows, ncols = M.shape
    pivots = []
    r = 0
    for c in range(ncols):
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        j = r + int(nz[0])
        if j != r:
            M[[r, j]] = M[[j, r]]
        inv = pow(int(M[r, c]), -1, p)
        M[r] = (M[r] * inv) % p
        below = M[r + 1:, c].copy()
        if below.any():
            block = M[r + 1:]
            np.subtract(block, np.outer(below, M[r]), out=block)
            np.remainder(block, p, out=block)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref_mod(rows, p: int):
    """Reduced row-echelon form mod p.  Returns (array, pivot columns)."""
    M = _as_modp_array(rows, p)
    if M.size == 0:
        return M, []
    pivots = _echelon_mod(M, p)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        above = M[:r, c].copy()
        if above.any():
            block = M[:r]
            np.subtract(block, np.outer(above, M[r]), out=block)
            np.remainder(block, p, out=block)
    return M, pivots


def kernel_mod(rows, num_cols: int, p: int):
    """Right-kernel basis mod p, rows in reduced echelon form (int64 array).

    Works from the plain echelon form by back substitution (one solve per
    free column), which is much cheaper than fully reducing wide matrices.
    """
    M = _as_modp_array(rows, p) if len(rows) else np.zeros((0, num_cols), dtype=np.int64)
    if M.shape[0] == 0:
        return np.eye(num_cols, dtype=np.int64)
    pivots = _echelon_mod(M, p)
    pivot_set = set(pivots)
    free = [c for c in range(num_cols) if c not in pivot_set]
    basis = np.zeros((len(free), num_cols), dtype=np.int64)
    for i, fcol in enumerate(free):
        x = basis[i]
        x[fcol] = 1
        for row in reversed(range(len(pivots))):
            # pivot entry is 1 and everything left of it is 0, so the row
            # forces x[pivot] = -(rest of the dot product)
            s = int(((M[row] * x) % p).sum() % p)
            if s:
                x[pivots[row]] = p - s
    if len(free):
        basis, _ = rref_mod(basis, p)
    return basis
