import random
from fractions import Fraction

import pytest

from starpolar import linalg
from starpolar.field import Fp, Jet

from helpers import rref_kernel


def F(*vals):
    return [Fraction(v) for v in vals]


def test_rref_known_example():
    R, pivots = linalg.rref([F(1, 2, 3), F(2, 4, 7), F(1, 2, 4)])
    assert pivots == [0, 2]
    assert R[0] == F(1, 2, 0)
    assert R[1] == F(0, 0, 1)
    assert all(not e for e in R[2])


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
        for i in range(k):
            for j in range(k):
                minor_rows = [[vals[a][b] for b in range(k) if b != j]
                              for a in range(k) if a != i]
                cof = linalg.det(minor_rows)
                if (i + j) % 2:
                    cof = -cof
                assert dj.grad[i * k + j] == cof


def test_mod_paths_agree_with_generic():
    p = 101
    rng = random.Random(23)
    for _ in range(40):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        frows = [[Fp(e, p) for e in row] for row in rows]
        assert linalg.rank_mod(rows, p) == len(linalg.rref(frows)[1])
        ker = linalg.kernel_mod(rows, n, p)
        assert len(ker) == n - linalg.rank_mod(rows, p)
        for v in ker:
            for row in rows:
                assert sum(a * int(b) for a, b in zip(row, v)) % p == 0


def test_mod_path_rejects_oversized_prime():
    with pytest.raises(ValueError):
        linalg.rank_mod([[1]], 2**31 + 11)


def test_rank_and_kernel_pick_the_field_from_fp_entries():
    p = 101
    rng = random.Random(29)
    for _ in range(40):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        # one plain int per row still counts as the image of Z in F_p
        frows = [[row[0]] + [Fp(e, p) for e in row[1:]] for row in rows]
        assert linalg.rank(frows) == linalg.rank_mod(rows, p)
        assert linalg.rank(frows) == len(linalg.rref(frows)[1])
        ker = linalg.kernel_basis(frows, n)
        assert all(isinstance(e, Fp) and e.p == p for row in ker for e in row)
        assert [[e.value for e in row] for row in ker] == \
            linalg.kernel_mod(rows, n, p).tolist()
        assert ker == rref_kernel(frows, n)


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
