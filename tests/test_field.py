import random
from fractions import Fraction

import numpy as np
import pytest

from starpolar.field import (DEFAULT_PRIME, Fp, Jet, is_prime,
                             modulus_of, random_scalar, residue_array, scalar_from_str,
                             scalar_to_str)
from helpers import dp_add, dp_const, dp_diff, dp_eval, dp_mul, dp_var


def test_rational_arithmetic_is_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(-6, 4) == Fraction(-3, 2)
    assert (Fraction(-3, 2)).denominator == 2  # denominator stays positive


def test_default_prime_is_prime():
    assert DEFAULT_PRIME == 2**31 - 1
    assert is_prime(DEFAULT_PRIME)
    assert not is_prime(2**31)
    assert is_prime(2)
    assert not is_prime(1)


def test_fp_basics():
    a = Fp(3, 7)
    assert a.inverse() == Fp(5, 7)  # 3 * 5 = 15 = 1 mod 7
    assert a + Fp(6, 7) == 2
    assert a - 5 == Fp(-2, 7)
    assert 1 - a == Fp(5, 7)
    assert -a == 4
    assert a * a == 2
    assert 2 / a == Fp(2, 7) * Fp(5, 7)
    assert a ** 0 == 1 and a ** 6 == 1
    assert int(Fp(12, 7)) == 5
    assert str(Fp(12, 7)) == "5"


def test_fp_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        Fp(0, 7).inverse()
    with pytest.raises(ZeroDivisionError):
        Fp(1, 7) / Fp(0, 7)
    with pytest.raises(ZeroDivisionError):
        Fp(0, 7) ** -1


def test_fp_mixed_moduli_raise():
    with pytest.raises(ValueError):
        Fp(1, 7) + Fp(1, 11)
    with pytest.raises(ValueError):
        Fp(1, 7) * Fp(1, 11)


def test_field_axioms_randomized():
    rng = random.Random(11)
    p = 101
    for _ in range(200):
        a, b, c = (random_scalar(rng, p) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    for _ in range(200):
        a, b, c = (Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_fermat_little_theorem():
    rng = random.Random(5)
    for _ in range(25):
        a = random_scalar(rng, DEFAULT_PRIME)
        if not a:
            continue
        assert a ** (DEFAULT_PRIME - 1) == 1


def test_random_scalar_determinism():
    s1 = [random_scalar(random.Random(42)).value for _ in range(1)]
    s2 = [random_scalar(random.Random(42)).value for _ in range(1)]
    assert s1 == s2
    rng_a, rng_b = random.Random(1), random.Random(2)
    stream_a = [random_scalar(rng_a).value for _ in range(20)]
    stream_b = [random_scalar(rng_b).value for _ in range(20)]
    assert stream_a != stream_b
    rng = random.Random(7)
    for _ in range(1000):
        v = random_scalar(rng)
        assert 0 <= v.value < DEFAULT_PRIME


def test_jet_product_rule_example():
    # (v=2, g=(1,0)) * (v=3, g=(0,1)) -> (v=6, g=(3,2)) over F_p
    p = DEFAULT_PRIME
    a = Jet(Fp(2, p), np.array([1, 0]))
    b = Jet(Fp(3, p), np.array([0, 1]))
    c = a * b
    assert c.value == 6
    assert c.grad.tolist() == [3, 2]
    # residues near p: every product-rule term is near 2^62, so a lost
    # reduction mod p shows up against Python-int arithmetic
    u, v = p - 1, p - 2
    a = Jet(Fp(u, p), np.array([u, v]))
    b = Jet(Fp(v, p), np.array([v, u]))
    assert (a * b).grad.tolist() == [(u * v + v * u) % p, (u * u + v * v) % p]
    assert (a + b).grad.tolist() == [(u + v) % p, (v + u) % p]
    assert (a - b).grad.tolist() == [(u - v) % p, (v - u) % p]
    assert (-a).grad.tolist() == [-u % p, -v % p]
    assert (a * v).grad.tolist() == [u * v % p, v * v % p]


def test_jet_seed_and_mixed_scalars():
    j = Jet.seed(Fp(4, 7), 1, 3)
    assert j.grad.tolist() == [0, 1, 0]
    assert (j + 3).value == 0
    assert (2 * j).value == 1
    k = Fp(2, 7)
    assert (j * k).grad.tolist() == [0, 2, 0]
    assert (k * j).grad.tolist() == [0, 2, 0]
    assert (j - k).value == 2 and (k - j).grad.tolist() == [0, 6, 0]


def test_jet_dimension_mismatch_and_oversized_prime():
    with pytest.raises(ValueError):
        Jet(Fp(1, 7), (Fp(0, 7),)) + Jet(Fp(1, 7), (Fp(0, 7), Fp(0, 7)))
    # p >= 2^31 would overflow the int64 product rule
    with pytest.raises(ValueError):
        Jet.seed(Fp(3, 2**61 - 1), 0, 1)


def _random_expr(rng, nvars, max_degree):
    """Random expression tree from +, * with bounded total degree.

    Returns (evaluator, dict-polynomial).  The evaluator replays the tree
    on arbitrary scalars, so the same expression runs on jets.
    """
    def build(budget, depth):
        choice = rng.randrange(6)
        if depth == 0 or choice < 2:
            k = rng.randrange(nvars)
            if budget == 0 or rng.random() < 0.2:
                c = rng.randrange(-4, 5)
                return (lambda xs: c), dp_const(c, nvars)
            return (lambda xs, k=k: xs[k]), dp_var(k, nvars)
        if choice < 4:
            f, pf = build(budget, depth - 1)
            g, pg = build(budget, depth - 1)
            return (lambda xs: f(xs) + g(xs)), dp_add(pf, pg)
        split = rng.randrange(budget + 1)
        f, pf = build(split, depth - 1)
        g, pg = build(budget - split, depth - 1)
        return (lambda xs: f(xs) * g(xs)), dp_mul(pf, pg)

    return build(max_degree, 6)


def test_jet_gradient_matches_symbolic_expansion_oracle():
    # evaluating on jets seeded with unit gradients must reproduce the
    # formal partial derivatives of the expanded polynomial, exactly
    rng = random.Random(2024)
    for trial in range(60):
        p = 977 if trial % 2 else DEFAULT_PRIME
        nvars = rng.randrange(1, 4)
        evaluator, dpoly = _random_expr(rng, nvars, 4)
        point = [Fp(rng.randrange(p), p) for _ in range(nvars)]
        jets = [Jet.seed(v, k, nvars) for k, v in enumerate(point)]
        result = evaluator(jets)
        if not isinstance(result, Jet):  # constant expression
            result = Jet(Fp(result, p), [0] * nvars)
        assert result.value == dp_eval(dpoly, point)
        assert [Fp(g, p) for g in result.grad.tolist()] == [
            dp_eval(dp_diff(dpoly, k), point) for k in range(nvars)]


def test_modulus_scan():
    assert modulus_of([0, Fraction(1), Fp(3, 11)]) == 11
    assert modulus_of([0, Fraction(1)]) is None


def test_scalar_serialization_round_trip():
    assert scalar_to_str(Fraction(47, 132)) == "47/132"
    assert scalar_to_str(Fraction(-3)) == "-3"
    assert scalar_to_str(Fp(9, 11)) == "9"
    assert scalar_to_str(7) == "7"
    assert scalar_from_str("47/132") == Fraction(47, 132)
    assert scalar_from_str("-5") == Fraction(-5)


@pytest.mark.parametrize("p", [None, 7, DEFAULT_PRIME])
def test_residue_array_reads_every_field(p):
    """One 2-D reader: int64 residues for a prime, the exact scalars of Z
    and Q in an object array with p None; an empty input is 0 x 0, a flat
    row 1 x m, and rows of unequal widths are refused."""
    big = 2**70 + 3
    rows = [[12, -1, 0], [5, 30, 9]] if p else [[big, Fraction(1, 2), 0], [-5, 2 * big, 9]]
    M = residue_array(rows, p)
    assert M.shape == (2, 3)
    if p is None:
        assert M.dtype == object and M.tolist() == rows
        assert all(type(a) is type(b) for a, b in zip(M.flat, sum(rows, [])))
    else:
        assert M.dtype == np.int64 and M.tolist() == [[c % p for c in row] for row in rows]
    assert residue_array([], p).shape == (0, 0)
    assert residue_array([1, 2, 3], p).tolist() == [[1, 2, 3]]
    for ragged in ([[1, 2, 3], [4, 5]], [(1, 2), (3, 4, 5)]):
        with pytest.raises(ValueError, match="^rows of unequal widths$"):
            residue_array(ragged, p)


def test_residue_array_refuses_a_prime_past_int64():
    with pytest.raises(ValueError, match="too large"):
        residue_array([[1, 2]], 2**31 + 11)

