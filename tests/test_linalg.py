import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from starpolar import linalg, starconfig
from starpolar.apolar import catalecticant, ideal_piece_dimension, perp_piece, solve_waring
from starpolar.existence import incidence_matrix, jacobian_matrix, parameter_count
from starpolar.field import DEFAULT_PRIME, Fp, Jet
from starpolar.poly import DUAL, PRIMAL, Form, contract
from starpolar.starconfig import HyperplaneSet, cramer_table, hilbert_function, point_ideal_piece

from helpers import rref_kernel


def F(*vals):
    return [Fraction(v) for v in vals]


def test_rref_known_example():
    R, pivots = linalg.rref([F(1, 2, 3), F(2, 4, 7), F(1, 2, 4)])
    assert pivots == [0, 2]
    assert R[0] == F(1, 2, 0)
    assert R[1] == F(0, 0, 1)
    assert all(not e for e in R[2])


def _integral_cases(rng):
    """Random int and `Fraction` matrices: full and rank-deficient, with zero
    rows and zero columns, one row, wide and tall, with small entries and
    with entries above 2^64."""
    cases = []
    for kind in ("Z", "Q"):
        for bound in (6, 2**70):
            def entry():
                v = rng.randrange(-bound, bound + 1) if rng.random() < 0.8 else 0
                return Fraction(v, rng.randrange(1, bound)) if kind == "Q" else v

            def random_rows(m, n):
                return [[entry() for _ in range(n)] for _ in range(m)]

            for _ in range(12):
                m, n = rng.randrange(1, 7), rng.randrange(1, 7)
                cases.append(random_rows(m, n))
                # a tall factor times a wide one has rank at most k
                k = rng.randrange(1, min(m, n) + 1)
                left, right = random_rows(m, k), random_rows(k, n)
                cases.append([[sum((a * b for a, b in zip(row, col)), 0)
                               for col in zip(*right)] for row in left])
            zeros = random_rows(5, 4)
            zeros[2] = [0] * 4
            for row in zeros:
                row[1] = 0
            cases += [zeros, random_rows(1, 6), random_rows(9, 3), random_rows(2, 9),
                      [[0] * 3 for _ in range(2)]]
    return cases


def test_fraction_free_rref_matches_the_generic_loop(monkeypatch):
    cases = _integral_cases(random.Random(43))
    generic = linalg.rref_generic

    def refuse(rows):
        raise AssertionError("int and Fraction rows take the fraction-free path")

    monkeypatch.setattr(linalg, "rref_generic", refuse)
    deficient = integral = 0
    for rows in cases:
        before = [list(row) for row in rows]
        R, pivots = linalg.rref(rows)
        assert rows == before  # the input is untouched
        assert (R, pivots) == generic(rows), rows
        deficient += len(pivots) < min(len(rows), len(rows[0]))
        for e in (e for row in R for e in row):
            assert e.__class__ in (int, Fraction)
            # an integral entry is an int: `Fp(1, p) == Fraction(1)` is False
            if e.denominator == 1:
                assert e.__class__ is int
                integral += 1
    assert deficient > 30 and integral > 500
    # other scalars still go through the generic loop
    monkeypatch.setattr(linalg, "rref_generic", generic)
    assert linalg.rref([[Fp(2, 7), Fp(3, 7)]]) == ([[Fp(1, 7), Fp(5, 7)]], [0])


def test_rank_and_kernel_dimensions():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(m)]
        rk = linalg.rank(rows)
        ker = linalg.kernel_basis(rows, n)
        assert rk + len(ker) == n
        for v in ker:
            for row in rows:
                assert not sum(a * b for a, b in zip(row, v))


def test_kernel_of_empty_matrix_is_identity():
    ker = linalg.kernel_basis([], 3)
    assert ker == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_basis_is_reduced_echelon():
    ker = linalg.kernel_basis([F(1, 1)], 2)
    assert ker == [[1, Fraction(-1)]]


def _shaped_q_cases(rng):
    """Matrices of ints and of `Fraction`s: tall, wide, of rank 2 with many
    free columns, square of full rank, all zero, with a zero column and a
    duplicated row, and 1 x N and N x 1 (nonzero and zero)."""
    cases = []
    for scalar in (int, lambda v: Fraction(v, rng.randrange(1, 5))):
        def random_rows(m, n):
            return [[scalar(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(m)]

        cases += [random_rows(9, 4), random_rows(4, 9)]
        left, right = random_rows(7, 2), random_rows(2, 8)
        cases.append([[sum((a * b for a, b in zip(row, col)), scalar(0))
                       for col in zip(*right)] for row in left])
        # unit lower triangular, rows shuffled: rank 6 of 6
        full = [[scalar(1) if i == j else random_rows(1, 1)[0][0] if j < i else scalar(0)
                 for j in range(6)] for i in range(6)]
        rng.shuffle(full)
        cases.append(full)
        cases.append([[scalar(0)] * 5 for _ in range(3)])
        zero_col = random_rows(5, 7)
        for row in zero_col:
            row[0] = scalar(0)
        zero_col[3] = list(zero_col[1])
        cases.append(zero_col)
        cases += [random_rows(1, 8), random_rows(8, 1), [[scalar(0)]] * 4, [[scalar(0)] * 6]]
    return cases


def test_q_kernels_match_rref_kernel():
    cases = _shaped_q_cases(random.Random(41))
    free = 0
    for rows in cases:
        n = len(rows[0])
        ker = linalg.kernel_basis(rows, n)
        assert ker == rref_kernel(rows, n), rows
        assert linalg.kernel_over(None, rows, n) == ker
        free += len(ker)
        # a consistent system: x = (1, ..., 1) solves it
        rhs = [sum(row, 0) for row in rows]
        x = linalg.solve_linear(rows, rhs)
        assert [sum(a * b for a, b in zip(row, x)) for row in rows] == rhs
        assert linalg.solve_over(None, [list(r) + [b] for r, b in zip(rows, rhs)]) == x
        # exact scalars only, from the shared read-off: no numpy int64 and
        # no object-array leftovers
        assert all(e.__class__ in (int, Fraction) for row in ker + [x] for e in row)
    assert [linalg.rank(cases[i]) for i in (2, 3, 12, 13)] == [2, 6, 2, 6]
    assert free > 60


def test_one_elimination_per_kernel(monkeypatch):
    calls = []
    for name in ("rref", "rref_mod"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    p = 101
    rows = [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 0, 1, 5, 7]]
    for kernel, expected in ((lambda: linalg.kernel_mod(rows, 5, p), "rref_mod"),
                             (lambda: linalg.kernel_basis([[Fp(e, p) for e in row]
                                                           for row in rows], 5), "rref_mod"),
                             (lambda: linalg.kernel_over(None, rows, 5), "rref"),
                             (lambda: linalg.kernel_basis([F(*row) for row in rows], 5), "rref")):
        calls.clear()
        assert len(kernel()) == 3
        assert calls == [expected]
    # no rows: the identity, with no elimination
    calls.clear()
    assert linalg.kernel_mod([], 3, p).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.kernel_over(None, [], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert calls == []


@pytest.mark.parametrize("num_cols", [0, 2, 4])
def test_kernels_refuse_a_num_cols_that_is_not_the_width(num_cols):
    p = 7
    calls = [lambda: linalg.kernel_basis([[1, 2, 3]], num_cols),
             lambda: linalg.kernel_basis([F(1, 2, 3), F(0, 1, 1)], num_cols),
             lambda: linalg.kernel_basis([[Fp(1, p), 2, 3]], num_cols),
             lambda: linalg.kernel_over(None, [(1, 2, 3)], num_cols),
             lambda: linalg.kernel_mod([[1, 2, 3]], num_cols, p),
             lambda: linalg.kernel_mod(np.array([[1, 2, 3]]), num_cols, p)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^a row has 3 columns, expected num_cols={num_cols}$"):
            call()
    # a short row among full-width ones
    with pytest.raises(ValueError, match="^a row has 2 columns, expected num_cols=3$"):
        linalg.kernel_basis([[1, 2, 3], [1, 2]], 3)
    # with no rows there is no width to disagree with
    assert len(linalg.kernel_basis([], num_cols)) == num_cols
    assert linalg.kernel_mod([], num_cols, p).shape == (num_cols, num_cols)


def test_solve_linear():
    A = [F(1, 1), F(1, -1)]
    x = linalg.solve_linear(A, F(3, 1))
    assert x == [Fraction(2), Fraction(1)]
    assert linalg.solve_linear([F(1, 0), F(1, 0)], F(1, 2)) is None
    # underdetermined: free variable pinned to zero
    x = linalg.solve_linear([F(0, 1, 2)], F(4))
    assert x == [0, Fraction(4), 0]


def test_det_matches_cofactor_values():
    assert linalg.det([F(1, 2), F(3, 4)]) == Fraction(-2)
    assert linalg.det([[2]]) == 2
    assert linalg.det([]) == 1
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randrange(1, 5)
        rows = [[Fraction(rng.randrange(-4, 5)) for _ in range(k)] for _ in range(k)]
        # compare with rank: singular iff rank < k
        assert (linalg.det(rows) == 0) == (linalg.rank(rows) < k)
    # every maximal minor of a k x m matrix against the Leibniz sum
    p = 101
    cases = []
    for scalar in (Fraction, lambda v: Fp(v, p)):
        for m in range(6):
            for k in range(m + 1):
                rows = [[scalar(rng.randrange(-4, 5)) for _ in range(m)]
                        for _ in range(k)]
                cases.append((rows, m))
        zero_row = [[scalar(rng.randrange(1, 5)) for _ in range(4)] for _ in range(3)]
        zero_row[1] = [scalar(0)] * 4
        zero_col = [[scalar(rng.randrange(1, 5)) for _ in range(5)] for _ in range(3)]
        for row in zero_col:
            row[2] = scalar(0)
        cases += [(zero_row, 4), (zero_col, 5)]
    for rows, m in cases:
        found = linalg.minors(rows)
        masks = {sum(1 << c for c in cols): cols
                 for cols in combinations(range(m), len(rows))}
        assert set(found) <= set(masks)
        for mask, cols in masks.items():
            expected = _leibniz(rows, cols)
            assert found.get(mask, 0) == expected  # absent means zero


def _leibniz(rows, cols):
    """Determinant of the submatrix on ``cols`` as a signed permutation sum."""
    total = 0
    for perm in permutations(range(len(cols))):
        term = -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1
        for i, j in enumerate(perm):
            term = term * rows[i][cols[j]]
        total = total + term
    return total


def test_det_over_jets_matches_value_determinant():
    p = 10007
    rng = random.Random(17)
    for _ in range(10):
        k = rng.randrange(1, 4)
        m = k * k
        vals = [[Fp(rng.randrange(p), p) for _ in range(k)] for _ in range(k)]
        jets = [[Jet.seed(vals[i][j], i * k + j, m) for j in range(k)]
                for i in range(k)]
        dj = linalg.det(jets)
        assert dj.value == linalg.det(vals)
        # gradient entry (i,j) is the signed cofactor of entry (i,j)
        cofactors = []
        for i in range(k):
            for j in range(k):
                minor_rows = [[vals[a][b] for b in range(k) if b != j]
                              for a in range(k) if a != i]
                cof = linalg.det(minor_rows)
                cofactors.append(-cof if (i + j) % 2 else cof)
        assert dj.grad.tolist() == cofactors


def test_mod_paths_agree_with_generic():
    p = 101
    rng = random.Random(23)
    cases = []
    for _ in range(40):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        cases.append([[rng.randrange(p) for _ in range(n)] for _ in range(m)])
    # no pivot at all, and ten free columns against two pivots
    cases += [[[0] * 4] * 3, [[rng.randrange(p) for _ in range(12)] for _ in range(2)]]
    for rows in cases:
        n = len(rows[0])
        frows = [[Fp(e, p) for e in row] for row in rows]
        assert linalg.rank_mod(rows, p) == len(linalg.rref(frows)[1])
        ker = linalg.kernel_mod(rows, n, p)
        assert len(ker) == n - linalg.rank_mod(rows, p)
        for v in ker:
            for row in rows:
                assert sum(a * int(b) for a, b in zip(row, v)) % p == 0
        assert [[Fp(e, p) for e in row] for row in ker.tolist()] == rref_kernel(frows, n)


def _shaped_modp_cases(rng, p):
    """Matrices up to 40 x 30 over F_p: tall, wide, sparse (about 10% nonzero)
    and dense, with a forced row swap, an all-zero column and a duplicated row;
    and matrices of entries p - 1 at the int64 edge of the kernel."""
    top = p - 1
    # all p - 1, with the pivot of column 0 below a row that is zero there
    cases = [[[0] + [top] * 7] + [[top] * 8 for _ in range(6)]]
    # pivot row (1, p - 1, ...) found below row 0; it clears rows holding
    # p - 1 in column 0 and 0 or p - 1 after it, so an update reaches its
    # lowest value 0 - (p - 1) * (p - 1) = -(p - 1)^2
    cases.append([[0] + [top] * 9, [1] + [top] * 9]
                 + [[top] + [rng.choice((0, top)) for _ in range(9)] for _ in range(8)])
    for m, n in ((40, 8), (40, 30), (6, 30), (25, 25), (1, 30), (40, 1)):
        for density in (0.1, 1.0):
            rows = [[rng.randrange(1, p) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(m)]
            if n > 1:
                zero_col = rng.randrange(n)
                for row in rows:
                    row[zero_col] = 0
            if m > 3:
                i, j = rng.sample(range(1, m - 1), 2)
                rows[i] = list(rows[j])
            # the pivot of the leading nonzero column lies below row 0
            lead = next((c for c in range(n) if any(row[c] for row in rows)), None)
            if m > 1 and lead is not None:
                rows[0][lead] = 0
                rows[-1][lead] = rng.randrange(1, p)
            cases.append(rows)
    return cases


def test_mod_kernels_match_rref_over_fp_objects():
    rng = random.Random(31)
    for p in (2, 3, 101, DEFAULT_PRIME):
        for rows in _shaped_modp_cases(rng, p):
            n = len(rows[0])
            frows = [[Fp(e, p) for e in row] for row in rows]
            R, pivots = linalg.rref_mod(rows, p)
            Rf, fpivots = linalg.rref(frows)
            assert pivots == fpivots
            assert R.tolist() == [[e.value for e in row] for row in Rf]
            assert linalg.rank_mod(rows, p) == len(fpivots)
            ker = linalg.kernel_mod(rows, n, p)
            assert [[Fp(e, p) for e in row] for row in ker.tolist()] == \
                rref_kernel(frows, n)


def test_mod_path_rejects_oversized_prime():
    with pytest.raises(ValueError):
        linalg.rank_mod([[1]], 2**31 + 11)


@pytest.mark.parametrize("p", [2147483659, 2**61 - 1])
def test_fp_matrices_refuse_a_prime_past_int64(monkeypatch, p):
    """Every entry point that builds an F_p matrix or point table refuses a
    prime of 2^31 or more before any elimination or product runs; forms,
    their products and contraction still work at such a prime."""
    def unreachable(*args):
        raise AssertionError("an elimination or product ran")

    monkeypatch.setattr(linalg, "_echelon_mod", unreachable)
    monkeypatch.setattr(linalg, "rref", unreachable)
    monkeypatch.setattr(starconfig, "_cofactor_tables", unreachable)
    ints = [(1, 2, 3), (0, 1, 5), (4, 0, 1)]
    rows = [[Fp(c, p) for c in row] for row in ints]
    lin = Form.linear(PRIMAL, [Fp(1, p), Fp(p - 2, p), Fp(5, p)])
    cube = lin ** 3
    params = [Fp(k + 1, p) for k in range(parameter_count(3, 4, 2))]
    calls = [lambda: HyperplaneSet(rows),
             lambda: linalg.rank(rows),
             lambda: linalg.kernel_basis(rows, 3),
             lambda: linalg.solve_linear(rows, rows[0]),
             lambda: solve_waring(rows, cube),
             lambda: catalecticant(cube, 1).rank(),
             lambda: perp_piece(cube, 1),
             lambda: point_ideal_piece(rows, 2),
             lambda: hilbert_function(rows, 2),
             lambda: ideal_piece_dimension([Form.linear(DUAL, rows[0])], 2),
             lambda: jacobian_matrix(3, 4, 2, params),
             lambda: incidence_matrix(3, 4, 2, params),
             lambda: cramer_table(ints, p)]
    for call in calls:
        with pytest.raises(ValueError, match="too large"):
            call()
    # x0 - 2 x1 + 5 x2 times 3 x0 - x2 has 15 - 1 = 14 at x0 x2
    prod = lin * Form.linear(PRIMAL, [Fp(3, p), 0, Fp(p - 1, p)])
    assert prod.terms[(1, 0, 1)] == Fp(14, p)
    assert all(c.__class__ is Fp and c.p == p for c in (prod * cube).terms.values())
    assert cube == lin * lin * lin
    # y0 differentiates along x0, whose coefficient in lin is 1
    assert contract(Form.linear(DUAL, [1, 0, 0]), cube) == (lin * lin) * 3


def test_rank_and_kernel_pick_the_field_from_fp_entries():
    p = 101
    rng = random.Random(29)
    cases = []
    for _ in range(40):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        cases.append([[rng.randrange(p) for _ in range(n)] for _ in range(m)])
    # no pivot at all, and ten free columns against two pivots
    cases += [[[0] * 4] * 3, [[rng.randrange(p) for _ in range(12)] for _ in range(2)]]
    frees = 0
    for rows in cases:
        n = len(rows[0])
        # one plain int per row still counts as the image of Z in F_p
        frows = [[row[0]] + [Fp(e, p) for e in row[1:]] for row in rows]
        assert linalg.rank(frows) == linalg.rank_mod(rows, p)
        assert linalg.rank(frows) == len(linalg.rref(frows)[1])
        ker = linalg.kernel_basis(frows, n)
        assert all(e.__class__ is Fp and e.p == p for row in ker for e in row)
        assert [[e.value for e in row] for row in ker] == \
            linalg.kernel_mod(rows, n, p).tolist()
        assert ker == rref_kernel(frows, n)
        # the residue representation: Python ints in [0, p), no numpy int64
        residues = linalg.kernel_over(p, rows, n)
        assert residues == [[e.value for e in row] for row in ker]
        rhs = [sum(row) % p for row in rows]
        x = linalg.solve_over(p, [row + [b] for row, b in zip(rows, rhs)])
        assert all(e.__class__ is int and 0 <= e < p for row in residues + [x] for e in row)
        # consistent (x = (1, ..., 1) solves it), free variables are Fp(0, p)
        fx = linalg.solve_linear(frows, [Fp(b, p) for b in rhs])
        assert all(e.__class__ is Fp and e.p == p for e in fx)
        assert [e.value for e in fx] == x
        assert [sum(a * b for a, b in zip(row, fx)) for row in frows] == rhs
        frees += n - linalg.rank(frows)
    assert frees > 40


def test_fp_dispatch_reads_every_entry_in_the_field():
    p = 7
    # 1/2 is 4 mod 7, so the second row is twice the first there
    rows = [[Fp(1, p), 3], [Fraction(1, 2), Fraction(3, 2)]]
    assert linalg.rank(rows) == 1
    assert linalg.kernel_basis(rows, 2) == [[Fp(1, p), Fp(2, p)]]
    with pytest.raises(ValueError, match="mixed prime-field moduli"):
        linalg.rank([[Fp(1, p), Fp(1, 11)]])


def test_rank_and_kernel_over_rationals_stay_on_rref():
    rows = [F(1, 2, 3), F(2, 4, 7), F(1, 2, 4)]
    assert linalg.rank(rows) == 2
    ker = linalg.kernel_basis(rows, 3)
    assert ker == [[1, Fraction(-1, 2), 0]]
    assert not any(isinstance(e, Fp) for row in ker for e in row)
    assert linalg.kernel_basis([], 2) == [[1, 0], [0, 1]]


def _solve_by_rref(rows, rhs):
    """`solve_linear`'s read-off on the generic loop's rref of the augmented rows."""
    ncols = len(rows[0])
    R, pivots = linalg.rref_generic([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for prow, pcol in enumerate(pivots):
        x[pcol] = R[prow][-1]
    return x


def test_solve_linear_over_fp_matches_rref_on_fp_objects(monkeypatch):
    rng = random.Random(37)
    big = 2147483659  # prime, above the int64 kernel's limit: refused
    calls = []
    real = linalg.rref_mod
    monkeypatch.setattr(linalg, "rref_mod",
                        lambda *a: calls.append(a[1]) or real(*a))
    kinds = {"solved": 0, "inconsistent": 0, "free": 0}
    for p in (2, 7, 101, DEFAULT_PRIME, big):
        for _ in range(60):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            rows = [[Fp(rng.randrange(p), p) for _ in range(n)] for _ in range(m)]
            shape = rng.randrange(4)
            if shape == 3:
                # consistent, with a zero column and more columns than rows:
                # every such column is free
                n = m + rng.randrange(1, 3)
                rows = [[Fp(rng.randrange(p), p) for _ in range(n)] for _ in range(m)]
                for row in rows:
                    row[rng.randrange(n)] = Fp(0, p)
                rhs = [sum(row[:m], Fp(0, p)) for row in rows]
            elif shape == 0:
                # consistent: the right side is a combination of the columns
                x0 = [Fp(rng.randrange(p), p) for _ in range(n)]
                rhs = [sum((a * b for a, b in zip(row, x0)), Fp(0, p)) for row in rows]
            elif shape == 1 and m > 1:
                # a repeated row with a different right side has no solution
                rows[-1] = list(rows[0])
                rhs = [Fp(rng.randrange(p), p) for _ in range(m - 1)]
                rhs.append(rhs[0] + 1)
            else:
                rhs = [Fp(rng.randrange(p), p) for _ in range(m)]
            calls.clear()
            if p == big:
                # refused by the mod-p elimination before it reduces a row
                with pytest.raises(ValueError, match="too large"):
                    linalg.solve_linear(rows, rhs)
                assert calls == [p]
                continue
            got = linalg.solve_linear(rows, rhs)
            assert calls == [p]
            want = _solve_by_rref(rows, rhs)
            assert got == want, (p, rows, rhs)
            if got is None:
                kinds["inconsistent"] += 1
                continue
            kinds["solved"] += 1
            # free variables too are zeros of F_p, not the int 0
            assert all(isinstance(v, Fp) and v.p == p for v in got)
            assert [sum((a * b for a, b in zip(row, got)), Fp(0, p))
                    for row in rows] == rhs
            # free columns (no pivot in the rref) are pinned to zero
            pivots = linalg.rref(rows)[1]
            free = [c for c in range(n) if c not in pivots]
            kinds["free"] += bool(free)
            assert all(got[c] == 0 for c in free)
    assert min(kinds.values()) > 20
