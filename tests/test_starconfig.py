import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from starpolar import apolar, linalg, starconfig
from starpolar.apolar import ideal_piece_dimension, perp_piece
from starpolar.field import DEFAULT_PRIME, Fp, residue_array, residue_rows
from starpolar.poly import DUAL, Form, parse_form
from starpolar.starconfig import (POINT_BLOCK, RESAMPLE_BUDGET, GeneralPositionError,
                                  HilbertFunctionTable, ResampleBudgetError,
                                  HyperplaneSet, general_position_violation,
                                  hilbert_function, intersection_points, point_ideal_piece,
                                  random_hyperplanes,
                                  star_ideal_dimension_by_intersection,
                                  star_ideal_dimension_by_products,
                                  star_ideal_product_generators,
                                  _points_from_coeff_rows, cramer_table, redraw)
from helpers import (cofactor_tables_by_masks, det_scan_violation, evaluate, hilbert_on_scalars,
                     ideal_piece_dimension_on_scalars, normalized, point_ideal_piece_on_scalars,
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


@pytest.mark.parametrize("p", [7, None])
def test_certificate_refuses_rows_of_one_coordinate(p):
    """n = 0 has no star points to scan: the certificate and the weights
    refuse it by name, not from deep inside the star index."""
    with pytest.raises(ValueError, match="need n >= 1"):
        general_position_violation(p, [[1], [2]], [[1]])
    with pytest.raises(ValueError, match="need n >= 1"):
        starconfig.star_weights(7, [[1], [2]], [[1]])


def test_general_position_witness_matches_det_scan(monkeypatch):
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
        shapes = [(n, r, draws) for n in range(low, 5) for r in range(n, n + 4)]
        if field in ("Z", "F_3"):
            # up to r = n + 10 on the line and in the plane, where many
            # (S, k) compete for the first witness
            shapes += [(n, r, 20) for n in (1, 2) for r in range(n + 4, n + 11)]
        for n, r, count in shapes:
            for _ in range(count):
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
                    table = cramer_table(residues, p)[1]
                    assert table.tolist() == [[c % p for c in pt] for pt in points]
                    points = table
                # the certificate reads its table in blocks of points, so
                # each case is also read one and three points at a time
                for block in (POINT_BLOCK, 1, 3):
                    monkeypatch.setattr(starconfig, "POINT_BLOCK", block)
                    got = general_position_violation(p, residues, points)
                    # plain ints, as the error message prints them
                    assert got == expected and str(got) == str(expected), \
                        (field, rows, block)
                cases[field] += 1
                violations[field] += expected is not None
    assert cases == {"Z": 3520 + 280, "F_3": 3520 + 280, "Q": 3520, "F_big": 720}
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


def test_exact_cramer_points_match_minors_per_subset():
    # over Z and Q the table runs the same Laplace pass on object arrays;
    # each n-subset's own `linalg.minors` pass (`_points_from_coeff_rows`,
    # the generic map's) must give exactly the same points, as the same
    # Python scalars, also for dependent rows, zero rows and entries far
    # past int64
    rng = random.Random(2027)
    draws = {"Z": lambda: rng.randint(-9, 9),
             "Q": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))}
    cases = dependent = 0
    for field, draw in draws.items():
        for n in range(1, 6):
            for r in range(n, n + 4):
                for trial in range(4):
                    rows = [[draw() for _ in range(n + 1)] for _ in range(r)]
                    if trial == 1 and r > 2:
                        rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
                    if trial == 2:
                        rows[rng.randrange(r)] = [rows[0][0] * 0] * (n + 1)
                    if trial == 3:
                        rows = [[c * 2**40 for c in row] for row in rows]
                    dependent += det_scan_violation(rows) is not None
                    want = [list(pt) for pt in _points_from_coeff_rows(rows, n)]
                    got = cramer_table(rows, None)[1]
                    assert got.dtype == object and got.tolist() == want, (field, rows)
                    assert [[c.__class__ for c in pt] for pt in got.tolist()] == \
                        [[c.__class__ for c in pt] for pt in want], (field, rows)
                    cases += 1
    exact = {c.__class__ for pt in got.tolist() for c in pt}
    assert cases == 2 * 5 * 4 * 4 and dependent > 40 and exact == {Fraction}


def test_planned_cofactor_pass_matches_the_mask_walk_and_the_minors():
    # the pass runs from a per-n plan of index arrays; the dict-of-masks
    # walk it replaced and the exact minors of each (n-1)-subset, taken one
    # at a time on Python ints, must give the same tables, also where
    # minors vanish: zero entries, zero rows and a row that is a combination
    # of two others
    rng = random.Random(3030)
    cases = vanishing = 0
    for p in (2, 3, 7, DEFAULT_PRIME):
        for n in range(1, 8):
            full = (1 << (n + 1)) - 1
            off_diagonal = ~np.eye(n + 1, dtype=bool)
            for r in range(n, n + (3 if n <= 4 else 2)):
                for trial in range(3):
                    rows = [[rng.randrange(p) if rng.random() < 0.8 else 0
                             for _ in range(n + 1)] for _ in range(r)]
                    if trial == 1 and r > 2:
                        rows[-1] = [(2 * a + b) % p for a, b in zip(rows[0], rows[1])]
                    if trial == 2:
                        rows[rng.randrange(r)] = [0] * (n + 1)
                    got = starconfig._cofactor_tables(residue_array(rows, p), n, p)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, cofactor_tables_by_masks(rows, n, p)), (p, rows)
                    want = []
                    for U in combinations(range(r), n - 1):
                        found = linalg.minors([rows[j] for j in U])
                        table = [[0] * (n + 1) for _ in range(n + 1)]
                        for i, j in combinations(range(n + 1), 2):
                            minor = (-1) ** (i + j) * found.get(full ^ 1 << i ^ 1 << j, 0)
                            table[i][j], table[j][i] = minor % p, -minor % p
                        want.append(table)
                    assert got.tolist() == want, (p, rows)
                    cases += 1
                    vanishing += bool((got[:, off_diagonal] == 0).any())
    assert cases == 4 * (4 * 3 + 3 * 2) * 3 and vanishing > 100


@pytest.mark.parametrize("r, n", [(1, 1), (5, 1), (3, 3), (7, 7), (6, 3), (7, 5),
                                  (9, 4), (20, 2), (12, 5)])
def test_star_index_matches_combinations(r, n):
    # (n-1)-subsets, n-subsets and faces, with the empty (n-1)-subset at
    # n = 1, the one n-subset at r = n, and shapes past one scan block
    subsets, sets, faces = starconfig._star_index(r, n)
    where = {U: u for u, U in enumerate(combinations(range(r), n - 1))}
    full = list(combinations(range(r), n))
    assert subsets.dtype == sets.dtype == faces.dtype == np.int64
    assert subsets.shape == (len(where), n - 1)
    assert [tuple(U) for U in subsets.tolist()] == list(where)
    assert [tuple(S) for S in sets.tolist()] == full
    assert faces.tolist() == [[where[S[:q] + S[q + 1:]] for q in range(n)] for S in full]


def test_star_index_memo_is_read_only_and_bounded():
    # shapes of at most one scan block are built once and kept, read-only
    # like the plan of the Laplace pass; a larger shape is built per call
    kept = starconfig._star_index(7, 5)
    assert starconfig._star_index(7, 5) is kept
    levels, final = starconfig._laplace_plan(5)
    for a in list(kept) + levels + [final]:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1
    held = starconfig._kept_star_index.cache_info().currsize
    assert comb(20, 2) + comb(20, 1) > POINT_BLOCK
    big = starconfig._star_index(20, 2)
    assert big is not starconfig._star_index(20, 2)
    assert starconfig._kept_star_index.cache_info().currsize == held


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
    norm = {normalized(pt.coords) for pt in pts}
    assert norm == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_intersection_point_count():
    rng = random.Random(21)
    hset = random_hyperplanes(3, 5, rng)
    assert len(intersection_points(hset)) == comb(5, 3)


def test_degenerate_r_equals_n_detected():
    with pytest.raises(GeneralPositionError):
        HyperplaneSet([(1, 0, 0), (2, 0, 0)])


def test_one_cramer_pass_per_hyperplane_set(monkeypatch):
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
    # moment-curve rows, over Z and scaled into Q: every 4 x 4 minor is a
    # nonzero Vandermonde
    for rows in ([(1, t, t * t, t ** 3) for t in range(1, 7)],
                 [(Fraction(1, t), 1, t, t * t) for t in range(1, 7)]):
        passes.clear()
        hset = HyperplaneSet(rows)
        pts = intersection_points(hset)
        # one batched pass over all 2-subsets, as over F_p: the certificate
        # reads the points it gives, and no subset takes a pass of its own
        assert passes == [(6, 3, None)] and minors == [] and len(pts) == comb(6, 3)
        assert intersection_points(hset) == pts and len(passes) == 1
        assert all(c.__class__ in (int, Fraction) for pt in pts for c in pt.coords)


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
    lambda: ideal_piece_dimension(CUSPIDAL_LINES, -1),
    lambda: ideal_piece_dimension([], -1),
    lambda: hilbert_function(CUSPIDAL_POINTS, -1),
    lambda: hilbert_function([], -1),
    lambda: point_ideal_piece(CUSPIDAL_POINTS, -1),
    lambda: perp_piece(parse_form("x0^2 - x1*x2"), -1),
], ids=["route-b", "route-a", "ideal-piece", "no-generators",
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
    # zero below the generation degree r - n + 1 = 3, then the 4 generators
    for t, expected in enumerate([0, 0, 0, 4]):
        assert star_ideal_dimension_by_intersection(hset, t) == \
            star_ideal_dimension_by_products(hset, t) == expected


def test_hilbert_function_cuspidal_lines():
    table = hilbert_function(_cuspidal_set().points, 4)
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


def _degenerate_point_sets(scalar, nv):
    """A single zero point, a zero point among others, repeated,
    proportional and collinear points, and random points, each
    coordinate made by ``scalar`` from an int."""
    rng = random.Random(f"degenerate:{nv}")

    def point():
        return tuple(scalar(rng.randint(-4, 4)) for _ in range(nv))

    zero = tuple(scalar(0) for _ in range(nv))
    a, b, c = point(), point(), point()
    yield [zero]
    yield [a]
    yield [zero, a, b]
    yield [a, b, a, c, b]
    yield [a, tuple(x * 3 for x in a), b, tuple(-x for x in c), c]
    yield [tuple(x + y * scalar(k) for x, y in zip(a, b)) for k in range(5)]
    yield [point() for _ in range(comb(nv + 1, 2) + 1)]


def _counting_tables(monkeypatch):
    """The (degree, p) of every evaluation table `starconfig` forms."""
    tables = []
    real = starconfig.monomial_table

    def counting(points, degree, p):
        tables.append((degree, p))
        return real(points, degree, p)

    monkeypatch.setattr(starconfig, "monomial_table", counting)
    return tables


@pytest.mark.parametrize("field", ["Z", "Q", 7, DEFAULT_PRIME])
def test_hilbert_function_stops_at_the_point_count(field, monkeypatch):
    """The early stop against `hilbert_on_scalars`, which ranks every
    degree: the same values on degenerate point sets, and no table past
    the first t >= 1 at which HF(t) is the number of points.  Each degree
    forms at most one table per path: exactly one over F_p; over Z and Q
    one mod `DEFAULT_PRIME` and at most one exact."""
    scalar = {"Z": int, "Q": lambda v: Fraction(v, 3)}.get(field, lambda v: Fp(v, field))
    tables = _counting_tables(monkeypatch)
    first = field if isinstance(field, int) else DEFAULT_PRIME
    paths = {first} if isinstance(field, int) else {first, None}
    for nv in (2, 3, 4):
        for pts in _degenerate_point_sets(scalar, nv):
            t_max = len(pts) + 2
            tables.clear()
            values = hilbert_function(pts, t_max).values
            assert values == hilbert_on_scalars(pts, t_max), (nv, pts)
            full = next((t for t in range(1, t_max + 1) if values[t] == len(pts)), t_max)
            assert sorted({t for t, _ in tables}) == list(range(full + 1)), (nv, pts)
            assert len(set(tables)) == len(tables), (nv, pts)
            assert {p for _, p in tables} <= paths, (nv, pts)
            assert [t for t, p in tables if p == first] == list(range(full + 1)), (nv, pts)


def test_hilbert_function_over_q_settles_mod_p_collisions_exactly(monkeypatch):
    """Points distinct over Q but equal mod `DEFAULT_PRIME`, and entries or
    denominators of 2^63 or more: the values of `hilbert_on_scalars`, with
    an exact table wherever the mod-p rank falls short."""
    q, big = DEFAULT_PRIME, 2**63
    tables = _counting_tables(monkeypatch)
    for pts, collides in [([(1, 0), (1, q)], True),
                          ([(1, 2, 3), (1, 2 + q, 3), (1 + q, 2, 3 - q), (0, 1, 1)], True),
                          ([(Fraction(1, q + 1), 1, 0), (1, 1, 0), (0, 0, 1)], True),
                          ([(2**70, 1, 3), (1, 0, 0), (0, 1, 0)], False),
                          ([(big, big + 1, 1), (big - 1, 2, big), (1, 1, 1), (5, -big, 7)], False),
                          ([(Fraction(1, big), 1, 2), (Fraction(3, 2**64 + 1), Fraction(1, 7), 1),
                            (1, Fraction(big + 5, 2**65), 0), (2, 3, 5)], False)]:
        tables.clear()
        values = hilbert_function(pts, len(pts) + 2).values
        assert values == hilbert_on_scalars(pts, len(pts) + 2), pts
        assert values[-1] == len(pts)
        assert any(p is None for _, p in tables) == collides, pts


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
    # an empty set takes its width from num_vars alone, and has none without it
    assert len(point_ideal_piece([], 2, 2)) == 3
    assert point_ideal_piece([], 1, 3) == [Form.linear(DUAL, row)
                                           for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for degree in (0, 2):
        with pytest.raises(ValueError, match="num_vars"):
            point_ideal_piece([], degree)
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
    for r, n in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 4), (7, 3)]:
        hset = random_hyperplanes(n, r, rng)
        pts = intersection_points(hset)
        table = hilbert_function(pts, r + 1)
        for t in range(r + 2):
            a = star_ideal_dimension_by_intersection(hset, t)
            b = star_ideal_dimension_by_products(hset, t)
            assert a == b
            assert a == comb(n + t, t) - table.values[t]


def test_generators_vanish_and_points_lie_exactly_on_tags():
    """Every product generator is exactly 0 at every point, over F_p and
    over Q: the package never evaluates one, so only this test checks it."""
    rng = random.Random(27)
    sets = [random_hyperplanes(n, r, rng) for r, n in [(5, 2), (5, 3), (6, 4)]]
    sets += [_hyperplane_set(rng, "Q", r, n) for r, n in [(4, 2), (5, 2), (5, 3), (4, 1)]]
    for hset in sets:
        r, n = hset.r, hset.n
        assert len(hset.points) == comb(r, n)
        assert len({normalized(pt.coords) for pt in hset.points}) == comb(r, n)
        assert len(hset.product_generators) == comb(r, n - 1)
        for g in hset.product_generators:
            for pt in hset.points:
                assert evaluate(g, pt.coords) == 0, (r, n, pt.tag)
        for pt in hset.points:
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
    """A certified seeded set over F_p (``field`` a prime), Z ("Z", entries
    in -5..5) or Q ("Q", `Fraction`s with denominators 1 to 3)."""
    while True:
        rows = [[Fp(rng.randrange(field), field) if isinstance(field, int)
                 else rng.randrange(-5, 6) if field == "Z"
                 else Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                 for _ in range(n + 1)] for _ in range(r)]
        try:
            return HyperplaneSet(rows)
        except GeneralPositionError:
            continue


@pytest.mark.parametrize("field", [7, 101, DEFAULT_PRIME, "Q"])
def test_ideal_layer_matches_the_path_on_scalars(field, monkeypatch):
    """Hilbert function, point ideal pieces, both routes and
    `ideal_piece_dimension` against the evaluation matrices and product
    rows built on the scalars as given (`Fp` objects over F_p).

    Over F_p, (5, 3), (6, 4) and, at the default prime, (7, 4) take route
    B's leading-term block; over F_7 and F_101 its leading terms fall
    short, so some Schur complement has positive rank.  Over Q the block
    is never taken."""
    blocks = []  # (Schur complement rank, whether generators of degree t joined)
    schur_rank = apolar._schur_rank

    def spy(p, runs, *rest):
        # a run of degree t is placed by the one row of `where` for m = 1
        blocks.append((schur_rank(p, runs, *rest), any(len(where) == 1 for _, where, _ in runs)))
        return blocks[-1][0]

    monkeypatch.setattr(apolar, "_schur_rank", spy)
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
    for r, n in shapes + ((7, 4),) * (field == DEFAULT_PRIME):
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
        # in 3 variables, two lines' products lead at all quadrics but one,
        # so at t = 2 the quadric a joins route B's block
        lin2 = random_form_over(rng, DUAL, n + 1, 1, over, 1.0)
        for gens in (gens, [a, b, a], [a, b * scale, b], [a, b, a + b, c],
                     [lin, a, b, a + b, high, lin * lin, c, lin * scale], [lin, lin2, a]):
            for t in range(5):
                assert ideal_piece_dimension(gens, t) == \
                    ideal_piece_dimension_on_scalars(gens, t)
    if field == "Q":
        assert not blocks
        return
    assert any(joined for _, joined in blocks)
    if field != DEFAULT_PRIME:
        assert any(rank for rank, _ in blocks)
    else:
        # (6, 4) at t = 6 and (6, 3) at t = 6 rank only their Schur
        # complements, on f = HF(6) = 15 and 20 columns; wide plane sets,
        # (14, 2) at t = 14 and (8, 2) at t = 9, where f > k0, rank their
        # full rows
        widths = []
        rank_mod = linalg.rank_mod
        monkeypatch.setattr(linalg, "rank_mod",
                            lambda rows, p: widths.append(np.shape(rows)) or rank_mod(rows, p))
        gens = _hyperplane_set(rng, field, 6, 4).product_generators
        assert ideal_piece_dimension(gens, 6) == comb(10, 4) - comb(6, 4)
        assert widths and all(w <= 15 for _, w in widths)
        widths.clear()
        gens = _hyperplane_set(rng, field, 6, 3).product_generators
        assert ideal_piece_dimension(gens, 6) == comb(9, 3) - comb(6, 3)
        assert [w for _, w in widths] == [20]
        widths.clear()
        gens = _hyperplane_set(rng, field, 14, 2).product_generators
        assert ideal_piece_dimension(gens, 14) == comb(16, 2) - comb(14, 2)
        assert widths == [(3 * 14, comb(16, 2))]
        widths.clear()
        gens = _hyperplane_set(rng, field, 8, 2).product_generators
        assert ideal_piece_dimension(gens, 9) == comb(11, 2) - comb(8, 2)
        assert widths == [(6 * 8, comb(11, 2))]


@pytest.mark.parametrize("field", [7, 101, DEFAULT_PRIME, "Q"])
def test_route_b_reduces_each_degree_run_once(field, monkeypatch):
    """Route B asked about t = r + 1 down to 0 on one set reduces its
    product generators, one run of degree r - n + 1, once: one
    `linalg.rref_over` call of C(r, n-1) rows, kept read-only in
    `HyperplaneSet.product_basis`.  Each answer is the rank of the product
    rows on the scalars as given."""
    calls = []
    rref_over = linalg.rref_over
    rng = random.Random(f"route-b-once:{field}")
    # exact rref over Q grows fast in the product rows, so Q stops at (5, 2)
    shapes = ((4, 2), (5, 2)) + ((5, 3), (6, 3), (6, 4)) * isinstance(field, int)
    for r, n in shapes:
        hset = _hyperplane_set(rng, field, r, n)
        ts = range(r + 1, -1, -1)
        want = [ideal_piece_dimension_on_scalars(hset.product_generators, t)
                if t >= r - n + 1 else 0 for t in ts]
        calls.clear()
        monkeypatch.setattr(linalg, "rref_over",
                            lambda p, rows: calls.append(np.shape(rows)) or rref_over(p, rows))
        assert [star_ideal_dimension_by_products(hset, t) for t in ts] == want
        monkeypatch.undo()
        assert calls == [(comb(r, n - 1), comb(r + 1, n))]
        (_, R, pivots, order), = hset.product_basis.runs
        assert not any(a.flags.writeable for a in (R, pivots, order))


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
    real = linalg.kernel_over

    def counting(p, rows, num_cols):
        calls.append(len(rows))
        return real(p, rows, num_cols)

    monkeypatch.setattr(linalg, "kernel_over", counting)
    for r, n in ((5, 2), (6, 3)):
        hset = random_hyperplanes(n, r, random.Random(r))
        assert calls == []  # building the set finds no kernel point
        for t in range(r + 1):
            star_ideal_dimension_by_intersection(hset, t)
        # one kernel per n-subset for all t together, not one per subset and t
        assert calls == [n] * comb(r, n)
        calls.clear()


# shapes for route A's separator certificate: r = n, n = 1, and C(r, n) up to 35
SEPARATOR_SHAPES = ((1, 1), (2, 2), (4, 4), (3, 1), (5, 1), (4, 2), (5, 2), (5, 3),
                    (6, 3), (6, 4), (7, 3))
# shapes with no set in general position over a small prime, where r
# lines in P^n are in general position when their coefficient vectors are
# an arc: over F_3, P^1 has 4 points and an arc has at most 4 points in
# P^2 and 5 in P^3; over F_5 an arc in P^3 has at most 6
EMPTY_SHAPES = {3: {(5, 1), (5, 2), (6, 3), (7, 3)}, 5: {(7, 3)}}


@pytest.mark.parametrize("field", [3, 5, 7, 101, DEFAULT_PRIME, "Z", "Q"])
def test_route_a_separators_match_the_rank(field):
    """Route A's closed form C(n + t, t) - min(C(n + t, t), C(r, n)) equals
    the rank route, C(n + t, t) minus the rank of the degree-t evaluation
    table at the same kernel points, for every t <= r + 2 on three seeded
    sets of each shape: below r - n, where no form vanishes on the points,
    and from r - n on, where the separators separate them.  Over F_3 and
    F_5 the `EMPTY_SHAPES`, for which `_hyperplane_set` would draw forever,
    are left out."""
    rng = random.Random(f"separators:{field}")
    for r, n in SEPARATOR_SHAPES:
        if (r, n) in EMPTY_SHAPES.get(field, ()):
            continue
        for _ in range(3):
            hset = _hyperplane_set(rng, field, r, n)
            for t in range(r + 3):
                want = comb(n + t, t) - starconfig._rank_in_degree(*hset.kernel_points, t)
                assert star_ideal_dimension_by_intersection(hset, t) == want, (r, n, t)


@pytest.mark.parametrize("field", [7, DEFAULT_PRIME, "Q"])
def test_route_a_reads_every_degree_off_one_scan(field, monkeypatch):
    """Route A answers every t <= r + 2 by its closed form with no
    evaluation table and no `_rank_in_degree` call, and scans its kernel
    points once per set, by one `general_position_violation` for all t
    together (the set's own scan of its Cramer points at construction
    is not counted)."""
    tables = _counting_tables(monkeypatch)
    ranks, scans = [], []
    rank, scan = starconfig._rank_in_degree, starconfig.general_position_violation
    monkeypatch.setattr(starconfig, "_rank_in_degree",
                        lambda *args: ranks.append(args) or rank(*args))
    monkeypatch.setattr(starconfig, "general_position_violation",
                        lambda p, rows, points: scans.append(points) or scan(p, rows, points))
    rng = random.Random(f"separation-degree:{field}")
    for r, n in SEPARATOR_SHAPES:
        hset = _hyperplane_set(rng, field, r, n)
        scans.clear()
        for t in range(r + 3):
            monomials = comb(n + t, t)
            assert star_ideal_dimension_by_intersection(hset, t) == \
                monomials - min(monomials, comb(r, n)), (r, n, t)
        assert tables == [] and ranks == []
        assert len(scans) == 1 and scans[0] is hset.kernel_points[1], (r, n)


@pytest.mark.parametrize("field", [DEFAULT_PRIME, "Q"])
def test_route_a_raises_on_kernel_points_the_scan_refuses(field, monkeypatch):
    """A negative control: with `linalg.kernel_over` tampered before first
    use so that the point of {0, 2} of a (5, 2) set is the point of {0, 1},
    which lies on l_1, ``kernel_points`` and route A at every degree raise
    `GeneralPositionError` naming (0, 2, 1), and nothing is kept.  The
    closed form would be wrong on those points: nine distinct points give
    dimensions 1, 6, 12 at t = 3, 4, 5, where it claims 0, 5, 11."""
    hset = _hyperplane_set(random.Random(f"refused:{field}"), field, 5, 2)
    p, rows = residue_rows(hset.coeffs)
    real = linalg.kernel_over

    def tampered(p, block, num_cols):
        return real(p, [rows[0], rows[1]] if block == [rows[0], rows[2]] else block, num_cols)

    monkeypatch.setattr(linalg, "kernel_over", tampered)
    for answer in [lambda: hset.kernel_points] + [
            lambda t=t: star_ideal_dimension_by_intersection(hset, t) for t in range(8)]:
        with pytest.raises(GeneralPositionError) as err:
            answer()
        assert err.value.subset == (0, 2, 1)
    assert "kernel_points" not in hset.__dict__
    monkeypatch.undo()
    coords = hset.kernel_points[1]
    coords = [coords[0], coords[0], *coords[2:]]
    assert [comb(2 + t, t) - starconfig._rank_in_degree(p, coords, t)
            for t in range(3, 6)] == [1, 6, 12]
    assert [star_ideal_dimension_by_intersection(hset, t) for t in range(3, 6)] == [0, 5, 11]
