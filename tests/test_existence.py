import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from starpolar import existence, linalg
from starpolar.existence import (DegenerateParametersError, Verdict, classify,
                                 gamma_coefficients, jacobian_matrix,
                                 jacobian_rank_test, parameter_count, rho,
                                 rho_n2)
from starpolar.field import DEFAULT_PRIME, Fp, random_scalar
from starpolar.apolar import solve_waring
from starpolar.poly import coefficient_vector, monomial_basis, parse_form
from starpolar.starconfig import intersection_points, HyperplaneSet
from helpers import det_scan_violation, eps_jacobian


def test_rho_examples():
    assert rho(3, 5, 3) == 5     # 10 + 15 - 20
    assert rho(5, 7, 3) == 0     # 35 + 21 - 56
    assert rho(3, 4, 3) == -4    # 4 + 12 - 20
    assert rho(3, 4, 2) == 4
    with pytest.raises(ValueError):
        rho(3, 2, 3)
    with pytest.raises(ValueError):
        rho(0, 4, 2)


def test_rho_n2_examples():
    assert rho_n2(3, 4) == 4
    assert rho_n2(13, 14) == 14
    # the factored identity used for the planar nonexistence range
    assert rho_n2(3, 3) == Fraction(1, 2) * (3 - 3) * (3 + 3 + 3) - 1 == -1


def test_rho_n2_identity_exhaustive():
    for d in range(1, 51):
        for r in range(2, 51):
            assert rho_n2(d, r) == rho(d, r, 2)
            assert rho_n2(d, r) == Fraction(r - d) * (3 + r + d) / 2 - 1


def test_rho_closed_forms_per_dimension():
    for d in range(3, 31):
        assert rho(d, d + 2, 3) == Fraction((d + 2) * (5 - d), 2)
        assert rho(d, d + 3, 4) == Fraction(((d + 6) * (3 - d) + 4) * (d + 3), 6)
        assert rho(d, d + 4, 5) == Fraction((d + 4) * (3 - d) * (d * d + 9 * d + 38), 24)


def test_classify_examples():
    assert classify(4, 6, 3).verdict == Verdict.EXISTS
    assert classify(4, 6, 3).rule == "exceptional-triple"
    assert classify(5, 9, 6).verdict == Verdict.NOT_EXISTS
    assert classify(3, 10, 6).verdict == Verdict.EXISTS
    v = classify(7, 8, 2)
    assert v.verdict == Verdict.CONJECTURAL_EXISTS
    assert "13" in v.note
    assert classify(2, 3, 2).verdict == Verdict.EXISTS
    assert classify(2, 3, 2).rule == "quadric-threshold"
    assert classify(2, 2, 2).verdict == Verdict.NOT_EXISTS


def test_classify_boundary_both_sides():
    assert classify(3, 8, 5).verdict == Verdict.EXISTS        # r = d + n
    assert classify(3, 8, 5).rule == "ideal-degree-bound"
    assert classify(3, 7, 5).verdict == Verdict.NOT_EXISTS    # r < d + n, rho = 0
    assert classify(3, 7, 5).rule == "certified-defective"
    assert classify(4, 7, 5).verdict == Verdict.NOT_EXISTS    # r < d + n, plain
    assert classify(4, 7, 5).rule == "parameter-count"
    assert classify(14, 15, 2).verdict == Verdict.CONJECTURAL_EXISTS
    assert "open" in classify(14, 15, 2).note


def test_classify_out_of_scope_rows():
    assert classify(3, 4, 1).verdict == Verdict.UNDETERMINED
    assert classify(1, 2, 2).verdict == Verdict.UNDETERMINED
    assert classify(1, 5, 2).verdict == Verdict.EXISTS  # degree bound still applies
    with pytest.raises(ValueError):
        classify(3, 1, 2)


def test_classify_rules_on_a_grid():
    for n in range(1, 41):
        for d in range(1, 61):
            for r in range(n, d + n + 3):
                v = classify(d, r, n)
                if v.rule == "parameter-count":
                    assert rho(d, r, n) < 0, (d, r, n)
                if v.verdict == Verdict.CONJECTURAL_EXISTS:
                    assert n == 2 and r == d + 1, (d, r, n)
                if v.verdict == Verdict.EXISTS and r < d + n:
                    assert ((d, r, n) in existence.EXCEPTIONAL_TRIPLES
                            or v.rule == "quadric-threshold"), (d, r, n)


def test_classify_is_pure():
    assert classify(6, 7, 2).to_json_dict() == classify(6, 7, 2).to_json_dict()


def test_parameter_count():
    assert parameter_count(3, 4, 2) == 3 * 4 + 6
    assert parameter_count(5, 7, 3) == 4 * 7 + 35


def test_gamma_reproduces_cuspidal_cubic():
    # hyperplanes of the apolar X(4); weights solved for the raw minor points
    rows = [(1, 0, 0), (0, 1, 0), (0, 1, -1), (1, 1, 1)]
    hset = HyperplaneSet([[Fraction(c) for c in row] for row in rows])
    pts = intersection_points(hset)
    C = parse_form("x0^3 - x1^2*x2")
    deco = solve_waring([pt.coords for pt in pts], C)
    assert deco is not None
    params = [Fraction(c) for row in rows for c in row] + list(deco.coefficients)
    out = gamma_coefficients(3, 4, 2, params)
    assert out == coefficient_vector(C)


def test_gamma_zero_weights_give_zero_vector():
    rows = [(1, 0, 0), (0, 1, 0), (0, 1, -1), (1, 1, 1)]
    params = [Fraction(c) for row in rows for c in row] + [Fraction(0)] * 6
    out = gamma_coefficients(3, 4, 2, params)
    assert all(not c for c in out)


def test_gamma_single_point_power():
    # r = n with coordinate hyperplanes: one point, one d-th power
    params = [Fraction(c) for c in (1, 0, 0, 0, 1, 0)] + [Fraction(1)]
    out = gamma_coefficients(3, 2, 2, params)
    basis = monomial_basis(3, 3)
    nonzero = {basis[i]: c for i, c in enumerate(out) if c}
    assert nonzero == {(0, 0, 3): 1}  # the point is [0:0:1]


def test_gamma_validates_input():
    with pytest.raises(ValueError):
        gamma_coefficients(3, 4, 2, [Fraction(1)] * 5)
    with pytest.raises(ValueError):
        jacobian_matrix(3, 4, 2, [Fp(1, 7)] * 5)
    # the map is defined at concurrent hyperplanes; a Jacobian draw there
    # must signal a resample, not crash
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]
    params = [Fp(c, 7) for row in rows for c in row] + [Fp(1, 7)] * 6
    assert len(gamma_coefficients(3, 4, 2, params)) == 10
    with pytest.raises(DegenerateParametersError):
        jacobian_matrix(3, 4, 2, params)
    # a general-position point must lie over an int64 prime field
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    params = [c for row in rows for c in row] + [1] * 6
    with pytest.raises(ValueError, match="over F_p"):
        jacobian_matrix(3, 4, 2, params)
    with pytest.raises(ValueError, match="too large"):
        jacobian_matrix(3, 4, 2, [Fp(c, 2147483659) for c in params])
    assert len(jacobian_matrix(3, 4, 2, [Fp(c, 7) for c in params])) == 18


def test_jacobian_matches_nilpotent_epsilon_oracle_small():
    p = DEFAULT_PRIME
    rng = random.Random(41)
    for (d, r, n) in [(2, 2, 1), (3, 3, 1), (2, 3, 2), (3, 4, 2)]:
        m = parameter_count(d, r, n)
        for _ in range(2):
            vals = [random_scalar(rng, p) for _ in range(m)]
            try:
                rows = jacobian_matrix(d, r, n, vals)
            except DegenerateParametersError:
                continue
            assert rows == eps_jacobian(d, r, n, vals, p)
    # n >= 3 uses cofactor signs that n <= 2 never reaches; the small
    # primes also reduce multinomials and weights to 0 now and then
    cases = [(triple, p) for triple in [(2, 4, 3), (3, 5, 3), (1, 5, 4), (3, 6, 4)]
             for p in (7, 101, DEFAULT_PRIME)]
    cases.append(((3, 7, 5), 101))
    for (d, r, n), p in cases:
        for _ in range(100):
            vals = [random_scalar(rng, p) for _ in range(parameter_count(d, r, n))]
            try:
                rows = jacobian_matrix(d, r, n, vals)
            except DegenerateParametersError:
                continue
            assert rows == eps_jacobian(d, r, n, vals, p), ((d, r, n), p)
            break
        else:
            pytest.fail(f"no general-position draw for {(d, r, n)} at p={p}")


def test_one_cofactor_pass_per_draw(monkeypatch):
    calls = []
    real = linalg.minors

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "minors", counting)
    rng = random.Random(5)
    m = parameter_count(3, 7, 5)
    rows = jacobian_matrix(3, 7, 5, [random_scalar(rng) for _ in range(m)])
    assert len(rows) == m
    # one pass per 4-subset; the certificate reads the points they give
    assert calls == [4] * comb(7, 4)


def test_degenerate_draws_match_the_det_scan(monkeypatch):
    tables = []
    real = existence._power_table

    def power_table(*args):
        tables.append(args)
        return real(*args)

    monkeypatch.setattr(existence, "_power_table", power_table)
    p = 7
    rng = random.Random(61)
    for d, r, n in [(2, 2, 2), (3, 4, 3), (2, 5, 3), (3, 7, 5)]:
        m = parameter_count(d, r, n)
        degenerate = 0
        for _ in range(30):
            vals = [Fp(rng.randrange(p), p) for _ in range(m)]
            expected = det_scan_violation(
                [vals[k * (n + 1):(k + 1) * (n + 1)] for k in range(r)])
            formed = len(tables)
            if expected is None:
                assert len(jacobian_matrix(d, r, n, vals)) == m
                continue
            with pytest.raises(DegenerateParametersError) as err:
                jacobian_matrix(d, r, n, vals)
            assert str(err.value) == f"hyperplanes {expected} lost general position"
            assert len(tables) == formed  # raised before any entry is formed
            degenerate += 1
        assert 0 < degenerate < 30, (d, r, n)


def test_jactest_small_known_ranks():
    rep = jacobian_rank_test(3, 4, 2)
    assert rep.verdict == "RankFull" and rep.rank == rep.target == 10
    # full rank stops the test after the first trial
    assert rep.trial_ranks == [10] and rep.resamples == 0
    rep = jacobian_rank_test(2, 3, 2)
    assert rep.verdict == "RankFull" and rep.rank == 6
    assert rep.m == 12 and rep.prime == DEFAULT_PRIME


def test_jactest_deficient_every_trial():
    for k in range(3):
        rep = jacobian_rank_test(3, 4, 3, seed=1 + k, trials=1)
        assert rep.verdict == "RankDeficient"
        assert rep.rank < rep.target == 20
        assert "evidence" in rep.note


def test_jactest_rank_bounds_and_monotonicity():
    r1 = jacobian_rank_test(3, 4, 3, seed=5, trials=1)
    r2 = jacobian_rank_test(3, 4, 3, seed=5, trials=3)
    assert r1.rank <= r2.rank
    assert r2.rank <= min(r2.m, r2.target)
    # rho < 0: the r rescalings leave m - r = 16 < 20 directions, all used
    assert r2.expected_rank == r2.m - r2.r == 16 < r2.target
    assert r2.rank == 16 and r2.defect == 0


def test_jactest_report_serialization():
    rep = jacobian_rank_test(2, 3, 2, seed=9, trials=2)
    payload = rep.to_json_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    for key in ("d", "r", "n", "m", "target", "prime", "seed", "trials",
                "rank", "expected_rank", "defect", "verdict", "trial_ranks",
                "resamples", "elapsed_ms", "note"):
        assert key in back
    assert back["rank"] == 6 and back["verdict"] == "RankFull"
    assert back["expected_rank"] == 6 and back["defect"] == 0
    assert back["trial_ranks"] == [6] and back["resamples"] == 0


def test_jactest_validates_prime():
    with pytest.raises(ValueError):
        jacobian_rank_test(2, 3, 2, prime=2**31 - 3)  # not prime
    with pytest.raises(ValueError):
        jacobian_rank_test(2, 3, 2, trials=0)


def test_jactest_accepts_binary_forms():
    # n = 1 is out of scope for classify but fine for the rank test
    rep = jacobian_rank_test(3, 4, 1)
    assert rep.verdict == "RankFull" and rep.rank == 4
    assert classify(3, 4, 1).verdict == Verdict.UNDETERMINED


def test_classification_consistency_with_rank_test():
    # Exists => RankFull and (rho < 0) NotExists => deficient, at desk scale
    for (d, r, n) in [(2, 3, 2), (2, 4, 3), (3, 4, 2), (3, 5, 3), (3, 5, 2)]:
        v = classify(d, r, n)
        rep = jacobian_rank_test(d, r, n)
        if v.verdict == Verdict.EXISTS:
            assert rep.verdict == "RankFull"
    for (d, r, n) in [(3, 4, 3), (4, 5, 3), (3, 3, 2)]:
        assert classify(d, r, n).verdict == Verdict.NOT_EXISTS
        assert rho(d, r, n) < 0
        rep = jacobian_rank_test(d, r, n)
        assert rep.verdict == "RankDeficient"


def test_known_discrepancy_boundary_triple_3_7_5():
    """(3,7,5) is the one below-threshold triple with rho >= 0 that has no
    apolar configuration: the differential has an eight-dimensional kernel,
    one more than the seven hyperplane rescalings, so the power-sum locus is
    a hypersurface of the senary cubics.  The certificate of criterion 2
    proves the rank is 55 in characteristic zero; the rank test reports
    exactly that, and `classify` agrees with it."""
    verdict = classify(3, 7, 5)
    assert verdict.verdict == Verdict.NOT_EXISTS
    assert verdict.rule == "certified-defective"
    assert "55 < 56" in verdict.note
    rep = jacobian_rank_test(3, 7, 5)
    assert rep.target == 56
    assert rep.rank == 55
    # a deficient test runs every trial; each one reaches 55
    assert rep.trial_ranks == [55, 55, 55] and rep.resamples == 0
    assert rep.to_json_dict()["trial_ranks"] == [55, 55, 55]
    assert rep.verdict == "RankDeficient"
    assert rep.expected_rank == 56 and rep.defect == 1


def test_jactest_redraws_a_degenerate_point(monkeypatch):
    real = existence._draw_parameter_values
    draws = []

    def draw(d, r, n, prime, rng):
        values = real(d, r, n, prime, rng)
        if not draws:
            values[n + 1:2 * (n + 1)] = values[:n + 1]  # two equal hyperplanes
        draws.append(values)
        return values

    monkeypatch.setattr(existence, "_draw_parameter_values", draw)
    rep = jacobian_rank_test(2, 3, 2, seed=5, trials=1)
    assert len(draws) == 2
    assert rep.verdict == "RankFull" and rep.rank == 6
    assert rep.resamples == 1 and rep.trial_ranks == [6]


def test_jactest_streams_are_keyed_by_seed_triple_and_trial(monkeypatch):
    real = existence._draw_parameter_values
    draws = []

    def draw(d, r, n, prime, rng):
        draws.append(real(d, r, n, prime, rng))
        return draws[-1]

    monkeypatch.setattr(existence, "_draw_parameter_values", draw)
    # (3, 3, 2) has rho < 0, so every trial runs
    jacobian_rank_test(3, 3, 2, seed=1, trials=2)
    jacobian_rank_test(3, 3, 2, seed=2, trials=1)
    assert len(draws) == 3
    assert draws[1] != draws[2]  # seed 1 trial 1 vs seed 2 trial 0


def test_jactest_gives_up_after_the_resample_budget(monkeypatch):
    draws = []

    def draw(d, r, n, prime, rng):
        draws.append(None)
        return [Fp(0, prime)] * existence.parameter_count(d, r, n)

    monkeypatch.setattr(existence, "_draw_parameter_values", draw)
    with pytest.raises(existence.ResampleBudgetError):
        jacobian_rank_test(2, 3, 2, trials=1)
    assert len(draws) == existence.RESAMPLE_BUDGET


def test_jactest_refuses_a_jacobian_over_the_cell_bound(monkeypatch):
    def unguarded(*args):
        raise AssertionError("an oversize triple reached Jacobian assembly")

    monkeypatch.setattr(existence, "_cofactor_tables", unguarded)
    # the plane family fits up to d = 80: C(d+1, 2) * 3 * C(d+2, 2) cells
    assert comb(81, 2) * 3 * comb(82, 2) <= existence.MAX_JACOBIAN_CELLS
    for d, r, n in ((81, 82, 2), (200, 201, 2), (8, 40, 6)):
        assert comb(r, n) * (n + 1) * comb(n + d, d) > existence.MAX_JACOBIAN_CELLS
        start = time.perf_counter()
        with pytest.raises(ValueError, match="over the limit"):
            jacobian_rank_test(d, r, n, trials=1)
        assert time.perf_counter() - start < 1
    with pytest.raises(AssertionError, match="reached Jacobian assembly"):
        jacobian_rank_test(80, 81, 2, trials=1)


@pytest.mark.parametrize("prime", [2**61 - 1, 2147483659])
def test_jactest_rejects_oversized_prime_quickly(prime):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        jacobian_rank_test(3, 4, 2, prime=prime)
    assert time.perf_counter() - start < 1
