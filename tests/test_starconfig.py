import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from starpolar import linalg
from starpolar.field import DEFAULT_PRIME, Fp
from starpolar.poly import DUAL, Form, evaluate, parse_form
from starpolar.starconfig import (RESAMPLE_BUDGET, GeneralPositionError,
                                  HilbertFunctionTable,
                                  HyperplaneSet, build_star_configuration,
                                  general_position_violation, hilbert_function,
                                  intersection_points, point_ideal_piece,
                                  random_hyperplanes,
                                  star_ideal_dimension_by_intersection,
                                  star_ideal_dimension_by_products,
                                  star_ideal_graded_dimension,
                                  star_ideal_product_generators,
                                  _points_from_coeff_rows)
from helpers import det_scan_violation

CUSPIDAL_LINES = [parse_form(s, num_vars=3, ring=DUAL) for s in
               ["y0", "y1", "y1 - y2", "y0 + y1 + y2"]]

CUSPIDAL_POINTS = [(0, 0, 1), (0, 1, 1), (0, 1, -1),
                (1, 0, 0), (1, 0, -1), (-2, 1, 1)]


def _cuspidal_set():
    return HyperplaneSet.from_forms(CUSPIDAL_LINES)


def _proj_eq(a, b):
    ka = next(i for i, c in enumerate(a) if c)
    kb = next(i for i, c in enumerate(b) if c)
    if ka != kb:
        return False
    return all(Fraction(x) / a[ka] == Fraction(y) / b[kb] for x, y in zip(a, b))


def test_certify_cuspidal_lines():
    hset = _cuspidal_set()
    assert hset.r == 4 and hset.n == 2
    assert general_position_violation(hset.coeffs, intersection_points(hset)) is None


def test_certify_concurrent_lines_fails_with_witness():
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]  # y0, y1, y0+y1 share [0:0:1]
    assert general_position_violation(rows, _points_from_coeff_rows(rows, 2)) == (0, 1, 2)
    with pytest.raises(GeneralPositionError) as err:
        HyperplaneSet(rows)
    assert err.value.subset == (0, 1, 2)


def test_general_position_witness_matches_det_scan():
    rng = random.Random(2024)
    scalars = {
        "Z": lambda: rng.randint(-2, 2),
        "F_3": lambda: Fp(rng.randrange(3), 3),
        "Q": lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
    }
    cases = violations = 0
    for field, draw in scalars.items():
        for n in range(1, 5):
            for r in range(n, n + 4):
                for _ in range(220):
                    rows = [[draw() for _ in range(n + 1)] for _ in range(r)]
                    if r > 1 and rng.random() < 0.2:
                        # force a dependency: one row a combination of two others
                        i, j, k = (rng.randrange(r) for _ in range(3))
                        a, b = draw(), draw()
                        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
                    expected = det_scan_violation(rows)
                    points = _points_from_coeff_rows(rows, n)
                    assert general_position_violation(rows, points) == expected, (field, rows)
                    cases += 1
                    violations += expected is not None
    assert cases >= 10000 and 0 < violations < cases


def test_fp_cramer_points_match_minors_on_fp_objects():
    # the points of F_p rows are expanded on int residues; the same signed
    # minors taken on the Fp objects themselves must give the same points
    rng = random.Random(2026)
    for p in (3, 101, DEFAULT_PRIME):
        for n in range(1, 5):
            full = (1 << (n + 1)) - 1
            for r in range(n, n + 3):
                for _ in range(8):
                    rows = [[Fp(rng.randrange(p), p) for _ in range(n + 1)]
                            for _ in range(r)]
                    want = []
                    for tau in combinations(range(r), n):
                        found = linalg.minors([rows[j] for j in tau])
                        coords = [found.get(full ^ (1 << j), Fp(0, p)) for j in range(n + 1)]
                        want.append((tau, tuple(-c if j % 2 else c
                                                for j, c in enumerate(coords))))
                    got = _points_from_coeff_rows(rows, n)
                    assert [(pt.tag, pt.coords) for pt in got] == want
                    assert all(isinstance(c, Fp) and c.p == p
                               for pt in got for c in pt.coords)


def test_certify_r_equals_n_is_vacuous():
    hset = HyperplaneSet([(1, 0, 0), (0, 1, 0)])
    assert hset.r == hset.n == 2
    assert len(intersection_points(hset)) == 1


def test_certify_rejects_zero_form_and_small_r():
    with pytest.raises(ValueError):
        HyperplaneSet([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        HyperplaneSet([(1, 0, 0)])  # r=1 < n=2
    with pytest.raises(ValueError, match="need n >= 1"):
        HyperplaneSet([(1,), (2,)])  # one variable: n = 0
    with pytest.raises(ValueError, match="need n >= 1"):
        random_hyperplanes(0, 2, random.Random(1))


def test_intersection_points_cuspidal_lines():
    pts = intersection_points(_cuspidal_set())
    assert len(pts) == 6
    assert [pt.tag for pt in pts] == [(0, 1), (0, 2), (0, 3),
                                      (1, 2), (1, 3), (2, 3)]
    for got, expected in zip(pts, CUSPIDAL_POINTS):
        assert _proj_eq(got.coords, expected)
    # spot check the raw signed minors of the last subset
    assert pts[-1].coords == (2, -1, -1)


def test_intersection_points_coordinate_lines():
    hset = HyperplaneSet([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    pts = intersection_points(hset)
    norm = {pt.normalized() for pt in pts}
    assert norm == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_intersection_point_count():
    rng = random.Random(21)
    hset = random_hyperplanes(3, 5, rng)
    assert len(intersection_points(hset)) == comb(5, 3)


def test_degenerate_r_equals_n_detected():
    with pytest.raises(GeneralPositionError):
        HyperplaneSet([(1, 0, 0), (2, 0, 0)])


def test_one_cramer_pass_per_hyperplane_set(monkeypatch):
    calls = []
    real = linalg.minors

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "minors", counting)
    # moment-curve rows: every 4 x 4 minor is a nonzero Vandermonde
    hset = HyperplaneSet([(1, t, t * t, t ** 3) for t in range(1, 7)])
    pts = intersection_points(hset)
    # one pass per n-subset: the certificate reads the points it keeps
    assert calls == [3] * comb(6, 3) and len(pts) == comb(6, 3)
    assert intersection_points(hset) == pts and len(calls) == comb(6, 3)


def test_product_generators_four_lines():
    hset = _cuspidal_set()
    gens = star_ideal_product_generators(hset)
    l = CUSPIDAL_LINES
    assert gens == [l[1] * l[2] * l[3], l[0] * l[2] * l[3],
                    l[0] * l[1] * l[3], l[0] * l[1] * l[2]]
    assert all(g.degree == 3 for g in gens)


def test_product_generators_r_equals_n():
    hset = HyperplaneSet([(1, 0, 0), (0, 1, 0)])
    gens = star_ideal_product_generators(hset)
    assert len(gens) == 2
    assert all(g.degree == 1 for g in gens)


def test_product_generator_degree():
    rng = random.Random(22)
    hset = random_hyperplanes(3, 7, rng)
    gens = star_ideal_product_generators(hset)
    assert len(gens) == comb(7, 2)
    assert all(g.degree == 5 for g in gens)


def test_route_b_expands_its_generators_once_per_set(monkeypatch):
    rng = random.Random(23)
    hset = random_hyperplanes(3, 6, rng)
    products = []
    real = Form.__mul__

    def mul(self, other):
        products.append(None)
        return real(self, other)

    monkeypatch.setattr(Form, "__mul__", mul)
    dims = [star_ideal_dimension_by_products(hset, t) for t in range(8)]
    # 15 generators, each a product of r - n + 1 = 4 linear forms
    assert len(products) == comb(6, 2) * 3
    assert dims == [comb(3 + t, t) - min(comb(3 + t, t), comb(6, 3))
                    for t in range(8)]
    assert star_ideal_product_generators(hset) == list(hset.product_generators)
    assert len(products) == comb(6, 2) * 3


def test_graded_dimension_cuspidal_lines():
    hset = _cuspidal_set()
    assert star_ideal_graded_dimension(hset, 2) == 0
    assert star_ideal_graded_dimension(hset, 3) == 4
    for t in range(3):  # below the generation degree r - n + 1 = 3
        assert star_ideal_graded_dimension(hset, t) == 0


def test_hilbert_function_cuspidal_lines():
    config = build_star_configuration(_cuspidal_set())
    table = hilbert_function(config.points, 4)
    assert list(table.values) == [1, 3, 6, 6, 6]


def test_hilbert_function_x5():
    rng = random.Random(23)
    hset = random_hyperplanes(2, 5, rng)
    pts = intersection_points(hset)
    table = hilbert_function(pts, 5)
    assert list(table.values) == [1, 3, 6, 10, 10, 10]


def test_hilbert_function_single_point():
    table = hilbert_function([(1, 2, 3)], 3)
    assert list(table.values) == [1, 1, 1, 1]


def test_point_ideal_piece_vanishes_on_points():
    rng = random.Random(24)
    hset = random_hyperplanes(2, 4, rng)
    pts = intersection_points(hset)
    for t in (1, 2, 3):
        for g in point_ideal_piece(pts, t):
            for pt in pts:
                assert not evaluate(g, pt.coords)


@pytest.mark.parametrize("one", [1, Fp(1, DEFAULT_PRIME)])
def test_point_sets_have_one_width(one):
    pts = [(one, 0, 0), (0, one, 0), (0, 0, one)]
    # the points' width must be the declared variable count
    with pytest.raises(ValueError, match="one width"):
        point_ideal_piece(pts, 2, 2)
    assert len(point_ideal_piece(pts, 2, 3)) == 3
    # an empty set takes its width from num_vars alone
    assert len(point_ideal_piece([], 2, 2)) == 3
    for mixed in ([(one, 0, 0), (0, one)], [(one, 0), (0, one, 0)]):
        with pytest.raises(ValueError, match="one width"):
            hilbert_function(mixed, 2)
        with pytest.raises(ValueError, match="one width"):
            point_ideal_piece(mixed, 1)


SHAPES = [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (6, 4)]


def test_hilbert_genericity_random_shapes():
    rng = random.Random(25)
    for r, n in SHAPES:
        for _ in range(2):
            hset = random_hyperplanes(n, r, rng)
            pts = intersection_points(hset)
            table = hilbert_function(pts, r)
            for t, value in enumerate(table.values):
                assert value == min(comb(n + t, t), comb(r, n))


def test_ideal_routes_agree_random_shapes():
    rng = random.Random(26)
    for r, n in [(4, 2), (5, 2), (5, 3)]:
        hset = random_hyperplanes(n, r, rng)
        pts = intersection_points(hset)
        table = hilbert_function(pts, r)
        for t in range(r + 1):
            a = star_ideal_dimension_by_intersection(hset, t)
            b = star_ideal_dimension_by_products(hset, t)
            assert a == b
            assert a == comb(n + t, t) - table.values[t]


def test_generators_vanish_and_points_lie_exactly_on_tags():
    rng = random.Random(27)
    for r, n in [(5, 2), (5, 3), (6, 4)]:
        hset = random_hyperplanes(n, r, rng)
        config = build_star_configuration(hset)  # build validates everything
        assert len(config.points) == comb(r, n)
        assert len({pt.normalized() for pt in config.points}) == comb(r, n)
        for pt in config.points:
            for k, row in enumerate(hset.coeffs):
                value = sum(a * b for a, b in zip(row, pt.coords))
                assert (not value) == (k in pt.tag)


def test_graded_dimension_over_rationals():
    # the intersection and product routes also run in exact rationals
    hset = _cuspidal_set()
    assert star_ideal_dimension_by_intersection(hset, 4) == \
        star_ideal_dimension_by_products(hset, 4) == comb(6, 2) - 6


def test_random_hyperplanes_deterministic():
    a = random_hyperplanes(2, 4, random.Random(99))
    b = random_hyperplanes(2, 4, random.Random(99))
    assert a.coeffs == b.coeffs
    c = random_hyperplanes(2, 4, random.Random(100))
    assert a.coeffs != c.coeffs


class _ZerosFirst:
    """A random stream that yields ``zeros`` zeros before a seeded one."""

    def __init__(self, zeros, seed=0):
        self.zeros, self.calls, self.rng = zeros, 0, random.Random(seed)

    def randrange(self, stop):
        self.calls += 1
        return 0 if self.calls <= self.zeros else self.rng.randrange(stop)


def test_random_hyperplanes_redraws_a_rejected_set():
    rng = _ZerosFirst(zeros=4 * 3)  # the first set is all zero forms
    hset = random_hyperplanes(2, 4, rng)
    assert rng.calls == 2 * 4 * 3
    fresh = random.Random(0)
    assert hset.coeffs == [tuple(Fp(fresh.randrange(DEFAULT_PRIME), DEFAULT_PRIME)
                                 for _ in range(3)) for _ in range(4)]


def test_random_hyperplanes_gives_up_after_the_budget():
    rng = _ZerosFirst(zeros=10**9)
    with pytest.raises(RuntimeError):
        random_hyperplanes(2, 4, rng)
    assert rng.calls == RESAMPLE_BUDGET * 4 * 3
