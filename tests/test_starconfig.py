import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from starpolar import linalg, starconfig
from starpolar.apolar import ideal_piece_dimension, perp_piece
from starpolar.field import DEFAULT_PRIME, Fp, residue_rows
from starpolar.poly import DUAL, Form, evaluate, parse_form
from starpolar.starconfig import (RESAMPLE_BUDGET, GeneralPositionError,
                                  HilbertFunctionTable, ResampleBudgetError,
                                  HyperplaneSet, build_star_configuration,
                                  general_position_violation, hilbert_function,
                                  intersection_points, point_ideal_piece,
                                  random_hyperplanes,
                                  star_ideal_dimension_by_intersection,
                                  star_ideal_dimension_by_products,
                                  star_ideal_graded_dimension,
                                  star_ideal_product_generators,
                                  _points_from_coeff_rows, cramer_table, redraw)
from helpers import (det_scan_violation, hilbert_on_scalars,
                     ideal_piece_dimension_on_scalars, point_ideal_piece_on_scalars,
                     random_form_over, route_a_on_scalars)

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
    points = [pt.coords for pt in intersection_points(hset)]
    assert general_position_violation(None, hset.coeffs, points) is None


def test_certify_concurrent_lines_fails_with_witness():
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]  # y0, y1, y0+y1 share [0:0:1]
    assert general_position_violation(None, rows, _points_from_coeff_rows(rows, 2)) == (0, 1, 2)
    with pytest.raises(GeneralPositionError) as err:
        HyperplaneSet(rows)
    assert err.value.subset == (0, 1, 2)


def test_general_position_witness_matches_det_scan():
    rng = random.Random(2024)
    big = DEFAULT_PRIME
    # field: (entry draw, smallest n, draws per shape (n, r)); over F_p the
    # rows take `HyperplaneSet`'s path, the int64 table and the residue
    # certificate.  Entries near p - 1 make the dot product of a vanishing
    # minor a nonzero multiple of p until it is reduced.
    fields = {
        "Z": (lambda: rng.randint(-2, 2), 1, 220),
        "F_3": (lambda: Fp(rng.randrange(3), 3), 1, 220),
        "Q": (lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3)), 1, 220),
        "F_big": (lambda: Fp(big - 1 - rng.randrange(3) if rng.random() < 0.8
                             else rng.randrange(2), big), 2, 60),
    }
    cases, violations = {}, {}
    for field, (draw, low, draws) in fields.items():
        cases[field] = violations[field] = 0
        for n in range(low, 5):
            for r in range(n, n + 4):
                for _ in range(draws):
                    rows = [[draw() for _ in range(n + 1)] for _ in range(r)]
                    if r > 1 and rng.random() < 0.2:
                        # force a dependency: one row a combination of two others
                        i, j, k = (rng.randrange(r) for _ in range(3))
                        a, b = draw(), draw()
                        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
                    expected = det_scan_violation(rows)
                    p, residues = residue_rows(rows)
                    points = _points_from_coeff_rows(residues, n)
                    if p is not None:  # the table, checked against the minors
                        table = cramer_table(residues, p)[1].tolist()
                        assert table == [[c % p for c in pt] for pt in points]
                        points = table
                    assert general_position_violation(p, residues, points) == expected, \
                        (field, rows)
                    cases[field] += 1
                    violations[field] += expected is not None
    assert cases == {"Z": 3520, "F_3": 3520, "Q": 3520, "F_big": 720}
    assert all(0 < violations[f] < cases[f] for f in fields), violations


def test_fp_cramer_points_match_minors_on_fp_objects():
    # the int64 table reads the points of F_p rows off the cofactors of
    # their (n-1)-subsets; the signed minors of each n-subset, taken on the
    # Fp objects themselves, must give the same points, also for dependent
    # rows and zero rows, for n = 1 (the one empty (n-1)-subset) and for
    # r = n.  At 2^31 - 1 the entries are drawn near p - 1 as well, where an
    # expansion that skipped a reduction mod p would wrap int64 by n = 7.
    rng = random.Random(2026)
    dependent = zero_rows = 0
    for p in (3, 101, DEFAULT_PRIME):
        for n in range(1, 8):
            full = (1 << (n + 1)) - 1
            for r in range(n, n + 3):
                for trial in range(8 if n <= 4 else 4):
                    low = p - 4 if p == DEFAULT_PRIME and trial % 4 < 2 else 0
                    rows = [[Fp(rng.randrange(low, p), p) for _ in range(n + 1)]
                            for _ in range(r)]
                    if trial % 2 and r > 1:
                        rows[-1] = [Fp(2, p) * a + b for a, b in zip(rows[0], rows[1])]
                    if trial % 4 == 2:
                        rows[rng.randrange(r)] = [Fp(0, p)] * (n + 1)
                        zero_rows += 1
                    dependent += det_scan_violation(rows) is not None
                    want = []
                    for tau in combinations(range(r), n):
                        found = linalg.minors([rows[j] for j in tau])
                        coords = [found.get(full ^ (1 << j), Fp(0, p)) for j in range(n + 1)]
                        want.append([(-c if j % 2 else c).value
                                     for j, c in enumerate(coords)])
                    got = cramer_table(residue_rows(rows)[1], p)[1]
                    assert got.dtype == np.int64 and got.tolist() == want, (p, rows)
    assert dependent > 150 and zero_rows == 3 * 3 * (4 * 2 + 3 * 1)


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
    with pytest.raises(ValueError, match="need n >= 1, got n=0"):
        random_hyperplanes(0, 2, random.Random(1))
    with pytest.raises(ValueError, match="need r >= n, got r=1, n=2"):
        random_hyperplanes(2, 1, random.Random(1))


@pytest.mark.parametrize("p", [None, 7, DEFAULT_PRIME, 2147483659])
def test_certify_names_a_zero_row(p):
    """A zero row, raw or zero only mod p such as (7, 0, Fp(0, 7)), is refused
    by the certificate itself, at r = n and r > n and in every position,
    with a subset that holds it; the other rows are in general position.
    A prime of 2^31 or more is refused before the certificate runs."""
    rng = random.Random(11)
    big = p is not None and p >= 2**31

    def draw():
        return rng.randint(-3, 3) if p is None else Fp(rng.randrange(p), p)

    checked = 0
    for n in range(1, 5):
        zeros = [(0,) * (n + 1)]
        if p is not None:
            zeros.append((p,) + (0,) * (n - 1) + (Fp(0, p),))
        for r in range(n, n + 4):
            while True:
                rest = [[draw() for _ in range(n + 1)] for _ in range(r - 1)]
                try:
                    if r > n and not big:
                        HyperplaneSet(rest)
                    break
                except GeneralPositionError:
                    continue
            for zero in zeros:
                for k in range(r):
                    rows = rest[:k] + [zero] + rest[k:]
                    # the int zero row alone (r = n = 1) lies over Q
                    if big and residue_rows(rows)[0] == p:
                        with pytest.raises(ValueError, match="too large"):
                            HyperplaneSet(rows)
                    else:
                        with pytest.raises(GeneralPositionError) as err:
                            HyperplaneSet(rows)
                        assert k in err.value.subset, (zero, k, rest)
                    checked += 1
    assert checked == len(zeros) * sum(r for n in range(1, 5) for r in range(n, n + 4))


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


def test_one_cofactor_pass_per_fp_hyperplane_set(monkeypatch):
    passes, minors = [], []
    real_tables, real_minors = starconfig._cofactor_tables, linalg.minors

    def tables(rows, n, p):
        passes.append((len(rows), n, p))
        return real_tables(rows, n, p)

    def counting(rows):
        minors.append(len(rows))
        return real_minors(rows)

    monkeypatch.setattr(starconfig, "_cofactor_tables", tables)
    monkeypatch.setattr(linalg, "minors", counting)
    hset = HyperplaneSet([[Fp(t ** e) for e in range(4)] for t in range(1, 7)])
    # one batched pass over all 2-subsets: the int64 table reads every
    # point off it, and no subset takes a pass of its own
    assert passes == [(6, 3, DEFAULT_PRIME)] and minors == []
    assert len(hset.points) == comb(6, 3)
    assert all(isinstance(c, Fp) for pt in hset.points for c in pt.coords)


@pytest.mark.parametrize("call", [
    lambda: star_ideal_dimension_by_products(_cuspidal_set(), -1),
    lambda: star_ideal_dimension_by_intersection(_cuspidal_set(), -1),
    lambda: star_ideal_graded_dimension(_cuspidal_set(), -1),
    lambda: ideal_piece_dimension(CUSPIDAL_LINES, -1),
    lambda: ideal_piece_dimension([], -1),
    lambda: hilbert_function(CUSPIDAL_POINTS, -1),
    lambda: hilbert_function([], -1),
    lambda: point_ideal_piece(CUSPIDAL_POINTS, -1),
    lambda: perp_piece(parse_form("x0^2 - x1*x2"), -1),
], ids=["route-b", "route-a", "both-routes", "ideal-piece", "no-generators",
        "hilbert", "no-points", "point-ideal", "perp"])
def test_negative_degrees_are_refused(call):
    # refused before any other work: with no generators or no points too
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        call()


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
    with pytest.raises(ResampleBudgetError, match=r"for \(r,n\)=\(4,2\)"):
        random_hyperplanes(2, 4, rng)
    assert rng.calls == RESAMPLE_BUDGET * 4 * 3


def test_redraw_retries_only_a_general_position_failure():
    calls = []

    def draw():
        calls.append(None)
        if len(calls) < 3:
            raise GeneralPositionError((0, 1, 2))
        return "drawn"

    assert redraw(draw, "a test draw") == ("drawn", 2)
    calls.clear()

    def refused():
        calls.append(None)
        raise ValueError("need r >= n, got r=1, n=2")

    with pytest.raises(ValueError, match="need r >= n") as err:
        redraw(refused, "a test draw")
    assert type(err.value) is ValueError and len(calls) == 1
    calls.clear()

    def degenerate():
        calls.append(None)
        raise GeneralPositionError((0, 1))

    with pytest.raises(ResampleBudgetError, match="degenerate draws in a row for a test draw"):
        redraw(degenerate, "a test draw")
    assert len(calls) == RESAMPLE_BUDGET


def _fp_point_sets(rng, p, nv):
    """Random point sets over F_p with zero coordinates, and degenerate
    ones: a repeated point, and collinear points (combinations of two)."""
    def point():
        return [Fp(rng.randrange(p) if rng.random() < 0.7 else 0, p) for _ in range(nv)]

    a, b = point(), point()
    yield [point() for _ in range(rng.randrange(1, 8))]
    yield [a, b, a, point(), b]
    yield [[x * s + y * u for x, y in zip(a, b)]
           for s, u in ((1, 0), (0, 1), (1, 1), (2, 3), (5, 1))]


def _hyperplane_set(rng, field, r, n):
    while True:
        rows = [[Fp(rng.randrange(field), field) if isinstance(field, int)
                 else Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                 for _ in range(n + 1)] for _ in range(r)]
        try:
            return HyperplaneSet(rows)
        except GeneralPositionError:
            continue


@pytest.mark.parametrize("field", [7, 101, DEFAULT_PRIME, "Q"])
def test_ideal_layer_matches_the_path_on_scalars(field):
    """Hilbert function, point ideal pieces, both routes and
    `ideal_piece_dimension` against the evaluation matrices and product
    rows built on the scalars as given (`Fp` objects over F_p)."""
    rng = random.Random(str(field))
    if isinstance(field, int):
        for nv in (2, 3, 4):
            for pts in _fp_point_sets(rng, field, nv):
                assert hilbert_function(pts, 5).values == hilbert_on_scalars(pts, 5)
                for t in range(5):
                    got = point_ideal_piece(pts, t, nv)
                    want = point_ideal_piece_on_scalars(pts, t, nv)
                    assert [list(g.terms.items()) for g in got] == \
                        [list(w.terms.items()) for w in want]
    # exact rref over Q grows fast in the product rows, so Q stops at (5, 2)
    shapes = ((2, 1), (3, 1), (4, 2), (5, 2)) + ((5, 3), (6, 4)) * isinstance(field, int)
    for r, n in shapes:
        hset = _hyperplane_set(rng, field, r, n)
        for t in range(r + 2):
            assert star_ideal_dimension_by_intersection(hset, t) == \
                route_a_on_scalars(hset, t)
            want = (ideal_piece_dimension_on_scalars(hset.product_generators, t)
                    if t >= r - n + 1 else 0)
            assert star_ideal_dimension_by_products(hset, t) == want
        over = field if isinstance(field, int) else "Q"
        gens = [random_form_over(rng, DUAL, n + 1, rng.randrange(4), over, 0.4)
                for _ in range(4)]
        # dependent generators, which the echelon pre-step of each degree run
        # folds: a duplicate, a scalar multiple, the sum of two of one degree,
        # and mixed degrees with one (degree 5) above every t
        a, b, c = (random_form_over(rng, DUAL, n + 1, 2, over, 1.0) for _ in range(3))
        lin = random_form_over(rng, DUAL, n + 1, 1, over, 1.0)
        high = random_form_over(rng, DUAL, n + 1, 5, over, 0.5)
        scale = Fp(3, field) if isinstance(field, int) else Fraction(-2, 3)
        for gens in (gens, [a, b, a], [a, b * scale, b], [a, b, a + b, c],
                     [lin, a, b, a + b, high, lin * lin, c, lin * scale]):
            for t in range(5):
                assert ideal_piece_dimension(gens, t) == \
                    ideal_piece_dimension_on_scalars(gens, t)


def test_ideal_layer_refuses_a_prime_past_int64():
    p = 2147483659
    pts = [[Fp(c, p) for c in row] for row in ((1, 2, 3), (0, 1, 5), (4, 0, 1))]
    with pytest.raises(ValueError, match="too large"):
        hilbert_function(pts, 2)
    with pytest.raises(ValueError, match="too large"):
        point_ideal_piece(pts, 2)
    # no hyperplane set, and so no route, exists at such a prime: its
    # Cramer table refuses the rows before the certificate runs
    with pytest.raises(ValueError, match="too large"):
        _hyperplane_set(random.Random(3), p, 4, 2)
    with pytest.raises(ValueError, match="too large"):
        ideal_piece_dimension([Form.linear(DUAL, [Fp(1, p), Fp(2, p), 0])], 2)


def test_route_a_finds_its_kernel_points_once_per_set(monkeypatch):
    calls = []
    real = linalg.kernel_basis

    def counting(rows, num_cols):
        calls.append(len(rows))
        return real(rows, num_cols)

    monkeypatch.setattr(linalg, "kernel_basis", counting)
    for r, n in ((5, 2), (6, 3)):
        hset = random_hyperplanes(n, r, random.Random(r))
        assert calls == []  # building the set finds no kernel point
        for t in range(r + 1):
            star_ideal_dimension_by_intersection(hset, t)
        # one kernel per n-subset for all t together, not one per subset and t
        assert calls == [n] * comb(r, n)
        calls.clear()
