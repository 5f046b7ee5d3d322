import json
import random
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
import pytest

from starpolar import existence, linalg, starconfig
from starpolar.existence import (Verdict, classify,
                                 gamma_coefficients, jacobian_matrix,
                                 jacobian_rank_test, parameter_count, rho,
                                 rho_n2)
from starpolar.field import DEFAULT_PRIME, Fp, random_scalar
from starpolar.apolar import solve_waring
from starpolar.poly import coefficient_vector, monomial_basis, parse_form
from starpolar.starconfig import (RESAMPLE_BUDGET, GeneralPositionError, HyperplaneSet,
                                  ResampleBudgetError, intersection_points, redraw)
from helpers import (det_scan_violation, eps_jacobian, incidence_matrix_on_scalars,
                     jacobian_route_rank_test, without_route_and_timing)


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


@pytest.mark.parametrize("d, r", [(0, 3), (-2, 3), (3, 1), (3, 0), (3, -1), (0, 1)])
def test_rho_n2_refuses_what_rho_refuses(d, r):
    with pytest.raises(ValueError) as want:
        rho(d, r, 2)
    with pytest.raises(ValueError) as got:
        rho_n2(d, r)
    assert str(got.value) == str(want.value)


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
    assert v.verdict == Verdict.EXISTS and v.rule == "plane-incidence-cycle"
    assert "README" in v.note
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
    # one answer and note for every d of the plane family
    assert classify(14, 15, 2).to_json_dict() == classify(3, 4, 2).to_json_dict() == {
        "verdict": "Exists", "rule": "plane-incidence-cycle",
        "note": "M has full rank at a point weighted on a cycle of the lines; "
                "proof in README"}
    assert classify(14, 16, 2).rule == "ideal-degree-bound"   # r = d + n
    assert classify(14, 14, 2).rule == "parameter-count"      # r = d


def test_classify_binary_and_degree_one_rows():
    # binary forms: r points exist iff r reaches Sylvester's generic rank
    assert classify(3, 2, 1).to_json_dict() == {
        "verdict": "Exists", "rule": "binary-sylvester",
        "note": "the generic binary form of degree 3 has Waring rank 2"}
    assert classify(3, 1, 1).verdict == Verdict.NOT_EXISTS
    assert classify(4, 2, 1).verdict == Verdict.NOT_EXISTS
    assert classify(4, 9, 1).verdict == Verdict.EXISTS
    assert "rank 3" in classify(4, 2, 1).note
    # degree one: the one star point of n hyperplanes, then the degree bound
    assert classify(1, 2, 2).verdict == Verdict.EXISTS
    assert classify(1, 2, 2).rule == "linear-point"
    assert classify(1, 5, 2).verdict == Verdict.EXISTS
    assert classify(1, 5, 2).rule == "ideal-degree-bound"
    assert classify(1, 3, 2).rule == "ideal-degree-bound"
    assert len(Verdict) == 2
    with pytest.raises(ValueError):
        classify(3, 1, 2)


def test_classify_rules_on_a_grid():
    """Every triple gets one of the two verdicts, by a rule that fits it."""
    verdicts = set()
    for n in range(1, 41):
        for d in range(1, 61):
            for r in range(n, d + n + 3):
                v = classify(d, r, n)
                if v.rule == "parameter-count":
                    assert rho(d, r, n) < 0, (d, r, n)
                if v.rule == "plane-incidence-cycle":
                    assert n == 2 and r == d + 1 and d >= 3, (d, r, n)
                if v.verdict == Verdict.EXISTS and r < d + n and n >= 2:
                    assert ((d, r, n) in existence.EXCEPTIONAL_TRIPLES
                            or v.rule in ("plane-incidence-cycle", "quadric-threshold",
                                          "linear-point")), (d, r, n)
                if n == 1:
                    assert (v.verdict == Verdict.EXISTS) == (2 * r >= d + 1), (d, r, n)
                elif r < d + n and rho(d, r, n) >= 0:
                    # below the threshold, rho >= 0 only on the boundary e = 0
                    # or for (2, n, n)
                    assert r == d + n - 1 or (d, r) == (2, n), (d, r, n)
                verdicts.add(v.verdict)
    assert verdicts == set(Verdict)


def test_classify_is_pure():
    assert classify(6, 7, 2).to_json_dict() == classify(6, 7, 2).to_json_dict()


def test_classify_notes_print_ints_of_any_size():
    """Notes print their ints whole, under any limit `sys` puts on int to
    str conversion: rho(10000, 10000, 10000) has 6,020 digits."""
    limit = sys.get_int_max_str_digits()
    huge = 10**5000
    try:
        sys.set_int_max_str_digits(0)
        want = {(10000, 10000, 10000): f"rho = {rho(10000, 10000, 10000)} < 0",
                (huge, 1, 1): f"the generic binary form of degree {huge} has "
                              f"Waring rank {huge // 2 + 1}"}
        for cap in (640, limit):
            sys.set_int_max_str_digits(cap)
            for (d, r, n), note in want.items():
                v = classify(d, r, n)
                assert (v.verdict, v.note) == (Verdict.NOT_EXISTS, note), (cap, d)
    finally:
        sys.set_int_max_str_digits(limit)


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
    with pytest.raises(GeneralPositionError) as err:
        jacobian_matrix(3, 4, 2, params)
    assert err.value.subset == (0, 1, 2)
    # a general-position point must lie over an int64 prime field
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    params = [c for row in rows for c in row] + [1] * 6
    with pytest.raises(ValueError, match="over F_p"):
        jacobian_matrix(3, 4, 2, params)
    with pytest.raises(ValueError, match="too large"):
        jacobian_matrix(3, 4, 2, [Fp(c, 2147483659) for c in params])
    rows = jacobian_matrix(3, 4, 2, [Fp(c, 7) for c in params])
    assert rows.shape == (18, 10) and rows.dtype == np.int64


def test_jacobian_matches_nilpotent_epsilon_oracle_small():
    p = DEFAULT_PRIME
    rng = random.Random(41)
    for (d, r, n) in [(2, 2, 1), (3, 3, 1), (2, 3, 2), (3, 4, 2)]:
        m = parameter_count(d, r, n)
        for _ in range(2):
            vals = [random_scalar(rng, p) for _ in range(m)]
            try:
                rows = jacobian_matrix(d, r, n, vals)
            except GeneralPositionError:
                continue
            assert rows.tolist() == eps_jacobian(d, r, n, vals, p)
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
            except GeneralPositionError:
                continue
            assert rows.tolist() == eps_jacobian(d, r, n, vals, p), ((d, r, n), p)
            break
        else:
            pytest.fail(f"no general-position draw for {(d, r, n)} at p={p}")


def test_one_cofactor_pass_per_draw(monkeypatch):
    passes, minors = [], []
    real_tables, real_minors = starconfig._cofactor_tables, linalg.minors

    def tables(rows, n, p):
        passes.append((len(rows), n, p))
        return real_tables(rows, n, p)

    def counting(rows):
        minors.append(len(rows))
        return real_minors(rows)

    builds = []
    real_build = starconfig._build_star_index

    def build(r, n):
        builds.append((r, n))
        return real_build(r, n)

    monkeypatch.setattr(starconfig, "_cofactor_tables", tables)
    monkeypatch.setattr(linalg, "minors", counting)
    # an empty memo of star indexes, so the first draw builds its own
    monkeypatch.setattr(starconfig, "_kept_star_index", lru_cache(maxsize=None)(build))
    rng = random.Random(5)
    m = parameter_count(3, 7, 5)
    values = [random_scalar(rng) for _ in range(m)]
    rows = jacobian_matrix(3, 7, 5, values)
    assert len(rows) == m
    # one batched pass over all 4-subsets; the certificate reads the points
    # it gives, and no subset takes a pass of its own
    assert passes == [(7, 5, DEFAULT_PRIME)] and minors == []
    # the incidence matrix reads the same table, once per draw
    assert existence.incidence_matrix(3, 7, 5, values).shape == (comb(7, 4), 7 * 6)
    assert passes == [(7, 5, DEFAULT_PRIME)] * 2 and minors == []
    # the tables, the points and the certificate of every draw read one index
    assert builds == [(7, 5)]
    rep = jacobian_rank_test(3, 7, 5, trials=3)
    assert rep.trial_ranks == [55] * 3 and rep.resamples == 0
    assert passes == [(7, 5, DEFAULT_PRIME)] * 5 and minors == [] and builds == [(7, 5)]


def test_degenerate_draws_match_the_det_scan(monkeypatch):
    tables = []
    real = existence.linear_power_table

    def power_table(*args):
        tables.append(args)
        return real(*args)

    monkeypatch.setattr(existence, "linear_power_table", power_table)
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
            with pytest.raises(GeneralPositionError) as err:
                jacobian_matrix(d, r, n, vals)
            assert err.value.subset == expected
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
    # rho < 0: the r rescalings leave m - r = 16 < 20 directions, all used,
    # and the first trial that reaches them ends the test
    assert r2.expected_rank == r2.m - r2.r == 16 < r2.target
    assert r2.rank == 16 and r2.defect == 0 and r2.trial_ranks == [16]
    r3 = jacobian_rank_test(4, 5, 3, seed=5, trials=3)
    assert r3.expected_rank == r3.m - r3.r == 25 < r3.target == 35
    assert r3.trial_ranks == [25] and r3.verdict == "RankDeficient" and r3.defect == 0


@pytest.mark.parametrize("d, r, n", [(3, 4, 1), (6, 3, 1), (2, 4, 2), (3, 4, 3),
                                     (4, 5, 3), (3, 7, 5)])
def test_rescalings_lie_in_the_left_kernel_of_every_draw(d, r, n):
    # the ceiling m - r that stops the rank test: for each hyperplane k, the
    # vector with a_k on k's block and -d alpha_S on each S containing k
    # annihilates the Jacobian, checked here in Python ints
    rng = random.Random(f"ceiling:{d}:{r}:{n}")
    m = parameter_count(d, r, n)
    sets = list(combinations(range(r), n))
    checked = 0
    for p in (7, 101, DEFAULT_PRIME):
        for _ in range(4):
            params = [rng.randrange(p) for _ in range(m)]
            try:
                jac = jacobian_matrix(d, r, n, [Fp(v, p) for v in params]).tolist()
            except GeneralPositionError:
                continue
            for k in range(r):
                v = [0] * m
                v[k * (n + 1):(k + 1) * (n + 1)] = params[k * (n + 1):(k + 1) * (n + 1)]
                for s, S in enumerate(sets):
                    if k in S:
                        v[(n + 1) * r + s] = -d * params[(n + 1) * r + s]
                assert any(v)
                for col in range(len(jac[0])):
                    assert sum(c * row[col] for c, row in zip(v, jac)) % p == 0, \
                        ((d, r, n), p, k, col)
            assert linalg.rank_mod(jac, p) <= min(len(jac[0]), m - r)
            checked += 1
    assert checked >= 6, (d, r, n)


def test_jactest_report_serialization():
    rep = jacobian_rank_test(2, 3, 2, seed=9, trials=2)
    payload = rep.to_json_dict()
    text = json.dumps(payload)
    # the same bytes, key order included, as the deep copy of `asdict`
    assert text == json.dumps({**asdict(rep), "expected_rank": rep.expected_rank,
                               "defect": rep.defect, "verdict": rep.verdict,
                               "note": rep.note})
    payload["trial_ranks"].append(0)
    assert rep.trial_ranks == [6]
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
    rep = jacobian_rank_test(3, 4, 1)
    assert rep.verdict == "RankFull" and rep.rank == 4
    assert classify(3, 4, 1).verdict == Verdict.EXISTS


def test_binary_and_linear_rules_match_the_rank_test():
    """`binary-sylvester`, `linear-point` and `plane-incidence-cycle` say
    Exists exactly where the rank test reaches full rank: every binary cell
    with d <= 10, r <= 8, (1, n, n) for n = 2..7 and (d, d+1, 2) for
    d = 3..30."""
    cells = [(d, r, 1) for d in range(1, 11) for r in range(1, 9)]
    cells += [(1, n, n) for n in range(2, 8)]
    cells += [(d, d + 1, 2) for d in range(3, 31)]
    for d, r, n in cells:
        exists = classify(d, r, n).verdict == Verdict.EXISTS
        assert exists == (jacobian_rank_test(d, r, n).verdict == "RankFull"), (d, r, n)


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
    # no trial reaches the expected 56, so every trial runs; each reaches 55
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
    # a rank below every ceiling makes every trial run
    monkeypatch.setattr(linalg, "rank_mod", lambda rows, p: 0)
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
    with pytest.raises(ResampleBudgetError, match=f"{RESAMPLE_BUDGET} degenerate draws "
                       r"in a row for \(d,r,n\)=\(2,3,2\)"):
        jacobian_rank_test(2, 3, 2, trials=1)
    assert existence.ResampleBudgetError is ResampleBudgetError
    assert len(draws) == RESAMPLE_BUDGET


def test_jactest_refuses_a_jacobian_over_the_cell_bound(monkeypatch):
    def unguarded(*args):
        raise AssertionError("an oversize triple reached Jacobian assembly")

    monkeypatch.setattr(existence, "cramer_table", unguarded)
    # on the Jacobian route (r >= d + n) the plane triples (d, d+2, 2) fit
    # up to d = 80: C(d+2, 2) * 3 * C(d+2, 2) cells
    assert comb(82, 2) * 3 * comb(82, 2) <= existence.MAX_JACOBIAN_CELLS
    for d, r, n in ((81, 83, 2), (200, 202, 2), (8, 40, 6)):
        assert existence._route(d, r, n) == "jacobian"
        assert comb(r, n) * (n + 1) * comb(n + d, d) > existence.MAX_JACOBIAN_CELLS
        start = time.perf_counter()
        with pytest.raises(ValueError, match="Jacobian, over the limit"):
            jacobian_rank_test(d, r, n, trials=1)
        assert time.perf_counter() - start < 1
    with pytest.raises(AssertionError, match="reached Jacobian assembly"):
        jacobian_rank_test(80, 82, 2, trials=1)


def test_jacobian_matrix_refuses_a_triple_over_the_cell_bound(monkeypatch):
    def unguarded(*args):
        raise AssertionError("an oversize triple reached Jacobian assembly")

    monkeypatch.setattr(existence, "cramer_table", unguarded)
    # refused on the triple alone, before the values are read
    for d, r, n in ((81, 82, 2), (200, 201, 2), (8, 40, 6)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="over the limit"):
            jacobian_matrix(d, r, n, [])
        assert time.perf_counter() - start < 1
    with pytest.raises(AssertionError, match="reached Jacobian assembly"):
        jacobian_matrix(80, 81, 2, [Fp(1, DEFAULT_PRIME)] * parameter_count(80, 81, 2))


@pytest.mark.parametrize("prime", [2**61 - 1, 2147483659])
def test_jactest_rejects_oversized_prime_quickly(prime):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        jacobian_rank_test(3, 4, 2, prime=prime)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# the incidence route


def _below_threshold(ns, degrees, prime=DEFAULT_PRIME):
    """Every (d, r, n) with r <= d + n - 1 that the rank test accepts."""
    triples = []
    for n in ns:
        for d in degrees:
            for r in range(n, d + n):
                try:
                    existence.check_rank_test(d, r, n, prime, 1)
                except ValueError:
                    continue
                triples.append((d, r, n))
    return triples


def test_incidence_rank_plus_points_is_the_jacobian_rank_at_every_draw():
    """rank J = C(r, n) + rank M at the same draw, over small and large
    primes: the pointwise identity that lets the rank test rank M."""
    checked = 0
    for p in (7, 11, 101, DEFAULT_PRIME):
        for d, r, n in _below_threshold(range(1, 6), range(1, 7), p):
            rng = random.Random(f"identity:{p}:{d}:{r}:{n}")
            values = existence._draw_parameter_values(d, r, n, p, rng)
            try:
                jac = jacobian_matrix(d, r, n, values)
            except GeneralPositionError:
                with pytest.raises(GeneralPositionError):
                    existence.incidence_matrix(d, r, n, values)
                continue
            inc = existence.incidence_matrix(d, r, n, values)
            e = d - r + n - 1
            assert inc.shape == (comb(r, n - 1) * comb(n + e, e), (n + 1) * r)
            assert linalg.rank_mod(jac, p) == comb(r, n) + linalg.rank_mod(inc, p), \
                ((d, r, n), p)
            checked += 1
    assert checked >= 300, checked


def test_incidence_route_reports_what_the_jacobian_route_reports():
    # same draws, redraws and early stop: only the timing and the route differ
    for seed in (1, 2):
        for d, r, n in _below_threshold(range(1, 7), range(1, 7)):
            inc = jacobian_rank_test(d, r, n, seed=seed)
            jac = jacobian_route_rank_test(d, r, n, seed=seed)
            assert (inc.route, jac.route) == ("incidence", "jacobian")
            assert without_route_and_timing(inc) == without_route_and_timing(jac), \
                (d, r, n, seed)


def test_one_point_reaches_its_ceiling_in_one_trial():
    """At r = n the one point P spans n + 1 directions x_j P^(d-1), so the
    ceiling is n + 1 and a generic draw reaches it: no false defect."""
    for n in range(1, 7):
        for d in range(1, 7):
            for test in (jacobian_route_rank_test, jacobian_rank_test):
                rep = test(d, n, n)
                assert rep.expected_rank == n + 1 == rep.rank, (d, n, test)
                assert rep.defect == 0 and rep.trial_ranks == [n + 1], (d, n, test)
    # the one genuine defect below the degree bound is kept on both routes
    for test in (jacobian_route_rank_test, jacobian_rank_test):
        rep = test(3, 7, 5)
        assert rep.trial_ranks == [55, 55, 55] and rep.defect == 1


@pytest.mark.parametrize("d, r, n, prime, message", [
    (7, 8, 2, 7, "needs p > d"),
    (3, 5, 3, 2, "needs p > d"),
    # these two would fit the Jacobian's cell rule; at r = n, M is the larger matrix
    (42, 16, 3, DEFAULT_PRIME, "incidence matrix, over the limit"),
    (19, 6, 6, DEFAULT_PRIME, "incidence matrix, over the limit"),
    # the first plane triple over the scan's C(r, n) r values
    (406, 407, 2, DEFAULT_PRIME, "incidence matrix, over the limit"),
    (3, 4, 2, 15, "not prime"),
])
def test_incidence_route_refuses_before_any_draw(monkeypatch, d, r, n, prime, message):
    def unguarded(*args):
        raise AssertionError("a refused triple reached the Cramer table")

    monkeypatch.setattr(existence, "cramer_table", unguarded)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        jacobian_rank_test(d, r, n, prime=prime, trials=1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", [101, DEFAULT_PRIME])
@pytest.mark.parametrize("d, r, n", [(3, 4, 2), (5, 6, 2), (6, 5, 2), (3, 5, 3), (4, 6, 3),
                                     (3, 7, 5), (3, 4, 3), (2, 2, 2), (4, 3, 1), (3, 2, 1)])
def test_incidence_matrix_entries_match_their_definition(d, r, n, p):
    """Every entry of M, weights w_S included: the rank identity cannot see
    a wrong weight, since c_S = alpha_S w_S is as random as alpha_S."""
    rng = random.Random(f"entries:{p}:{d}:{r}:{n}")

    def draw():
        values = existence._draw_parameter_values(d, r, n, p, rng)
        return values, existence.incidence_matrix(d, r, n, values)

    (values, matrix), _ = redraw(draw, "an entry check")
    assert matrix.tolist() == incidence_matrix_on_scalars(d, r, n, values)


def test_plane_family_has_full_rank_at_a_cycle_point():
    """The proof of `plane-incidence-cycle` (README), step by step, at a
    general-position point whose weights vanish off the cycle edges
    {u, u+1 mod r}: row u of M meets only the blocks u - 1 and u + 1, and M
    has rank d + 1 = C(d+2, 2) - C(d+1, 2).  Up to d = 13 the Jacobian is
    ranked at the same point too: its weight rows P_S^d are independent,
    rank J = C(r, 2) + rank M with the zero weights, and so J is full."""
    p = DEFAULT_PRIME
    for d in range(3, 61):
        r = d + 1
        rng = random.Random(f"cycle:{d}")
        edges = {(u, u + 1) for u in range(r - 1)} | {(0, r - 1)}
        alphas = [random_scalar(rng, p) if S in edges else Fp(0, p)
                  for S in combinations(range(r), 2)]

        def draw():
            values = [random_scalar(rng, p) for _ in range(3 * r)] + alphas
            return values, existence.incidence_matrix(d, r, 2, values)

        (values, M), _ = redraw(draw, "a cycle point")
        blocks = M.reshape(r, r, 3).any(axis=2)
        cycle = [[(u - j) % r in (1, r - 1) for j in range(r)] for u in range(r)]
        assert blocks.tolist() == cycle, d
        assert linalg.rank_mod(M, p) == d + 1 == comb(d + 2, 2) - comb(r, 2), d
        if d <= 13:
            J = jacobian_matrix(d, r, 2, values)
            assert linalg.rank_mod(J[-comb(r, 2):], p) == comb(r, 2), d
            assert linalg.rank_mod(J, p) == comb(r, 2) + d + 1 == comb(d + 2, 2), d


def test_plane_family_runs_to_the_incidence_bound():
    """The incidence route counts M and the C(r, n) r hyperplane values a
    draw evaluates, never the Jacobian it does not build."""
    def count(d):
        return max(3 * comb(d + 1, 1) * (d + 1), comb(d + 1, 2) * (d + 1))

    assert count(405) <= existence.MAX_JACOBIAN_CELLS < count(406)
    existence.check_rank_test(405, 406, 2, DEFAULT_PRIME, 1)
    rep = jacobian_rank_test(200, 201, 2, trials=1)
    assert rep.route == "incidence" and rep.rank == comb(202, 2) == 20301
    assert rep.trial_ranks == [20301] and rep.defect == 0


@pytest.mark.parametrize("d, r, n", [(3, 5, 2), (2, 9, 3)])
def test_incidence_matrix_is_refused_at_and_above_the_degree_bound(monkeypatch,
                                                                   d, r, n):
    def reached(*args):
        raise AssertionError("the rank test drew a point")

    monkeypatch.setattr(existence, "cramer_table", reached)
    with pytest.raises(ValueError, match="r >= d [+] n, where `classify`"):
        existence.check_incidence_matrix(d, r, n, DEFAULT_PRIME)
    # the rank test ranks the Jacobian there, so it accepts the triple
    with pytest.raises(AssertionError, match="drew a point"):
        jacobian_rank_test(d, r, n, trials=1)

