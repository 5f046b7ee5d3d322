import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from starpolar import apolar, linalg, poly
from starpolar.apolar import (CatalecticantMatrix, WaringDecomposition, _coefficient_runs,
                              _degrevlex_plan, _scatter, annihilates, catalecticant,
                              ideal_piece_dimension, is_apolar_ideal_contained, perp_piece,
                              solve_waring, verify_perp_generators)
from starpolar.field import DEFAULT_PRIME, Fp, random_scalar
from starpolar.poly import (DUAL, PRIMAL, Form, coefficient_vector, contract, format_form,
                            monomial_basis, parse_form, shift_table)
from starpolar.starconfig import GeneralPositionError, HyperplaneSet, point_ideal_piece

from helpers import (ideal_piece_dimension_on_scalars, normalized, random_form_over,
                     rank_on_scalars, rref_generic, rref_kernel)

CUSPIDAL = parse_form("x0^3 - x1^2*x2")
CONIC_TANGENT = parse_form("x0*(x2^2+x0*x1)")

# a five-element generating set of the cuspidal cubic's annihilator
CUSPIDAL_PERP_GENS = [parse_form(s, num_vars=3) for s in
                      ["y2^2", "y0*y2", "y0*y1", "y1^3", "y0^3 + 3*y1^2*y2"]]

# a five-element generating set of the conic-plus-tangent annihilator
CONIC_TANGENT_PERP_GENS = [parse_form(s, num_vars=3) for s in
                           ["y1*y2", "y1^2", "y0*y1 - y2^2", "y0^2*y2", "y0^3"]]

# four concurrent-free lines whose star configuration is apolar to the cuspidal cubic
CUSPIDAL_LINES = [parse_form(s, num_vars=3, ring=DUAL) for s in
                  ["y0", "y1", "y1 - y2", "y0 + y1 + y2"]]

# the six pairwise intersections of those lines, as primal points
CUSPIDAL_X4_POINTS = [(0, 0, 1), (0, 1, 1), (0, 1, -1),
                      (1, 0, 0), (1, 0, -1), (-2, 1, 1)]


def _spans_contain(basis_forms, f):
    rows = [coefficient_vector(b, f.degree) for b in basis_forms]
    target = coefficient_vector(f)
    return rank_on_scalars(rows) == rank_on_scalars(rows + [target])


def test_catalecticant_cuspidal_degree_two():
    cat = catalecticant(CUSPIDAL, 2)
    assert len(cat.col_basis) == 6
    assert len(cat.row_basis) == 3
    kernel = linalg.kernel_over(None, cat.entries, 6)
    assert len(kernel) == 3
    piece = perp_piece(CUSPIDAL, 2)
    assert [str(b) for b in piece.basis] == ["y0*y1", "y0*y2", "y2^2"]


def test_catalecticant_power_of_x0():
    f = parse_form("x0^4", num_vars=3)
    piece = perp_piece(f, 1)
    assert [str(b) for b in piece.basis] == ["y1", "y2"]


def test_catalecticant_degree_zero_has_trivial_kernel():
    for f in (CUSPIDAL, CONIC_TANGENT, parse_form("x0^5", num_vars=2)):
        assert perp_piece(f, 0).dimension == 0


@pytest.mark.parametrize("field", ["Z", "Q", 7, 2**31 - 1])
def test_catalecticant_matches_the_per_monomial_contraction_build(field):
    rng = random.Random(str(field))
    cases = 0
    for nv in (1, 2, 3, 4):
        for d in range(6):
            for density in (0.3, 1.0):
                f = random_form_over(rng, PRIMAL, nv, d, field, density)
                if f.is_zero():
                    continue
                for i in range(d + 1):
                    cols = [coefficient_vector(contract(Form.monomial(DUAL, m), f))
                            for m in monomial_basis(nv, i)]
                    entries = [list(row) for row in zip(*cols)]
                    want = CatalecticantMatrix(i, d - i, entries,
                                               monomial_basis(nv, d - i),
                                               monomial_basis(nv, i))
                    got = catalecticant(f, i)
                    assert got == want
                    assert ([[type(e) for e in row] for row in got.entries]
                            == [[type(e) for e in row] for row in entries])
                    assert got.to_json_dict() == want.to_json_dict()
                    cases += 1
    assert cases > 100


def test_catalecticant_range_check():
    with pytest.raises(ValueError):
        catalecticant(CUSPIDAL, 4)
    with pytest.raises(ValueError):
        catalecticant(CUSPIDAL, -1)


def test_perp_piece_cuspidal_degree_three():
    piece = perp_piece(CUSPIDAL, 3)
    assert piece.dimension == comb(5, 2) - 1  # one independent condition
    assert _spans_contain(piece.basis, parse_form("y1^3", num_vars=3))
    assert _spans_contain(piece.basis, parse_form("y0^3 + 3*y1^2*y2"))
    assert not _spans_contain(piece.basis, parse_form("y0^3", num_vars=3))


def test_perp_piece_conic_tangent_degree_two():
    piece = perp_piece(CONIC_TANGENT, 2)
    assert piece.dimension == 3
    for s in ("y1*y2", "y1^2", "y0*y1 - y2^2"):
        assert _spans_contain(piece.basis, parse_form(s, num_vars=3))


def test_perp_piece_past_degree_is_everything():
    piece = perp_piece(CUSPIDAL, 4)
    assert piece.dimension == len(monomial_basis(3, 4))


@pytest.mark.parametrize("one", [1, Fp(1, 7), Fp(1, 2**31 - 1)])
def test_zero_form_is_annihilated_by_everything(one):
    # Ann(0) is all of T: the zero catalecticant's kernel in every degree,
    # generated by the constant 1 over Q and over F_p
    for nv, d in ((2, 0), (3, 2), (4, 3)):
        g = Form.monomial(PRIMAL, (d,) + (0,) * (nv - 1), one)
        zero = g - g
        assert zero.is_zero() and zero.degree == d
        for i in range(d + 2):
            piece = perp_piece(zero, i)
            assert piece.dimension == comb(nv - 1 + i, i)
            if i <= d:
                assert catalecticant(zero, i).rank() == 0
        assert verify_perp_generators(zero, [Form.monomial(DUAL, (0,) * nv, one)])
        assert not verify_perp_generators(
            zero, [Form.monomial(DUAL, (1,) + (0,) * (nv - 1), one)])


def test_annihilates_examples():
    y0, y1, y2 = (Form.linear(DUAL, [1 if k == i else 0 for k in range(3)])
                  for i in range(3))
    assert annihilates(y1 * (y1 - y2) * (y0 + y1 + y2), CUSPIDAL)
    assert not annihilates(parse_form("y1^2*y2"), CUSPIDAL)
    assert annihilates(parse_form("y0^4", num_vars=3), CUSPIDAL)


def test_is_apolar_ideal_contained_products():
    lines = CUSPIDAL_LINES
    gens = []
    for omit in range(4):
        g = None
        for k, l in enumerate(lines):
            if k == omit:
                continue
            g = l if g is None else g * l
        gens.append(g)
    check = is_apolar_ideal_contained(gens, CUSPIDAL)
    assert check.contained and bool(check)
    assert check.failing_generator is None


def test_is_apolar_ideal_contained_witness():
    bad = parse_form("y1^2*y2")
    check = is_apolar_ideal_contained([bad], CUSPIDAL)
    assert not check
    assert check.failing_generator == bad
    assert check.residual == Form(PRIMAL, 3, 0, {(0, 0, 0): Fraction(-2)})


def test_empty_generator_list_is_contained():
    assert is_apolar_ideal_contained([], CUSPIDAL).contained


def test_verify_perp_generators_golden():
    assert verify_perp_generators(CUSPIDAL, CUSPIDAL_PERP_GENS)
    assert verify_perp_generators(CONIC_TANGENT, CONIC_TANGENT_PERP_GENS)
    # dropping the cubic generators leaves the degree-3 piece short
    assert not verify_perp_generators(CUSPIDAL, CUSPIDAL_PERP_GENS[:3])
    # a non-annihilating generator fails containment
    assert not verify_perp_generators(
        CUSPIDAL, CUSPIDAL_PERP_GENS + [parse_form("y1^2*y2")])


def test_ideal_piece_dimension_matches_hand_count():
    gens = CUSPIDAL_PERP_GENS[:3]  # y2^2, y0*y2, y0*y1
    # degree-3 products hit 7 distinct monomials
    assert ideal_piece_dimension(gens, 3) == 7
    assert ideal_piece_dimension(gens, 2) == 3
    assert ideal_piece_dimension(gens, 1) == 0
    assert ideal_piece_dimension([], 5) == 0


def test_product_rows_match_form_products():
    """Rows placed by `_degrevlex_plan` against rows expanded by
    `Form.__mul__`, both read with their columns in degrevlex order, and
    route B's dimension against the rank of the expanded rows in their own
    field."""
    rng = random.Random(41)
    fields = (lambda: Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
              lambda: Fp(rng.randrange(7), 7),
              lambda: random_scalar(rng))  # F_p, p = DEFAULT_PRIME
    for trial in range(60):
        scalar = fields[trial % 3]
        nv = rng.randrange(1, 5)
        gens = []
        for _ in range(rng.randrange(1, 5)):
            deg = rng.randrange(4)
            terms = {m: scalar() for m in monomial_basis(nv, deg)
                     if rng.random() < 0.5}
            gens.append(Form(DUAL, nv, deg, terms))
        gens.append(Form.zero(DUAL, nv, rng.randrange(4)))
        nonzero = [g for g in gens if not g.is_zero()]
        for t in range(5):
            top = _degrevlex_plan(nv, 0, t)[0]
            expanded = [[row[i] for i in top]
                        for g in nonzero if g.degree <= t
                        for m in monomial_basis(nv, t - g.degree)
                        for row in [coefficient_vector(Form.monomial(DUAL, m) * g)]]
            p, rows = None, []
            if nonzero:
                p, runs = _coefficient_runs(nonzero, t)
                runs = [(coeffs[:, order], where) for e, coeffs in runs
                        for order, where in [_degrevlex_plan(nv, t - e, e)]]
                rows = _scatter(runs, len(top))
                rows = rows if p is not None else rows.tolist()
            rank = rank_on_scalars(expanded)
            if trial % 3 and nonzero:  # over F_p: one int64 array of residues
                assert p == (7, DEFAULT_PRIME)[trial % 3 - 1]
                assert rows.dtype == np.int64
                rows = rows.tolist()
                expanded = [[int(c) for c in row] for row in expanded]
            else:
                assert p is None
            assert rows == expanded
            assert ideal_piece_dimension(gens, t) == rank


def test_leading_term_levels_match_the_product_rank(monkeypatch):
    """Route B against the rank of the product rows on `Fp` objects where
    its level schedule is deep and its leading terms fall short: star
    sets (5, 3), (6, 3) and (6, 4) for every t <= r + 1, and random
    generator sets of mixed degrees, over F_7, F_11 and F_101.  A spy
    reads each block's level count (its `_sparse_products` calls, less
    one for the other rows and one for a run of degree t) and its Schur
    complement rank."""
    blocks, calls = [], []
    schur_rank, products = apolar._schur_rank, apolar._sparse_products

    def spy(p, reduced, full, *rest):
        calls.clear()
        rank = schur_rank(p, reduced, full, *rest)
        blocks.append((len(calls) - 1 - bool(full), rank))
        return rank

    monkeypatch.setattr(apolar, "_sparse_products", lambda *a: calls.append(None) or products(*a))
    monkeypatch.setattr(apolar, "_schur_rank", spy)
    rng = random.Random(38)
    for p in (7, 11, 101):
        for r, n in ((5, 3), (6, 3), (6, 4)):
            while True:
                try:
                    hset = HyperplaneSet([[Fp(rng.randrange(p), p) for _ in range(n + 1)]
                                          for _ in range(r)])
                    break
                except GeneralPositionError:
                    continue
            for t in range(r + 2):
                gens = hset.product_generators
                assert ideal_piece_dimension(gens, t) == \
                    ideal_piece_dimension_on_scalars(gens, t), (p, r, n, t)
        taken = 0
        for _ in range(6):
            nv = rng.choice((3, 4))
            gens = [random_form_over(rng, DUAL, nv, rng.choice((1, 2, 2, 3)), p,
                                     rng.choice((0.5, 1.0)))
                    for _ in range(rng.randrange(nv, nv + 4))]
            before = len(blocks)
            for t in range(6):
                assert ideal_piece_dimension(gens, t) == \
                    ideal_piece_dimension_on_scalars(gens, t), (p, gens, t)
            taken += len(blocks) > before
        assert taken >= 3, (p, taken)
    assert max(levels for levels, _ in blocks) >= 5
    assert any(rank for _, rank in blocks)


def test_shift_table_matches_monomial_products():
    for nv in range(1, 5):
        for shift in range(4):
            for degree in range(4):
                target = monomial_basis(nv, shift + degree)
                table = shift_table(nv, shift, degree)
                for m, positions in zip(monomial_basis(nv, shift), table,
                                        strict=True):
                    for b, pos in zip(monomial_basis(nv, degree), positions,
                                      strict=True):
                        product = Form.monomial(DUAL, m) * Form.monomial(DUAL, b)
                        assert list(product.terms) == [target[pos]]


def _degrevlex_greater(a, b) -> bool:
    """a > b in degrevlex with x0 > x1 > ..., for a != b of one degree:
    the last nonzero entry of a - b is negative."""
    diff = [x - y for x, y in zip(a, b) if x != y]
    return diff[-1] < 0


def test_degrevlex_plan_orders_and_places_products():
    """`_degrevlex_plan` lists each degree in degrevlex order, read off its
    definition, and places m * b at its product's degrevlex position, in
    increasing positions; its arrays are read-only."""
    for nv in range(1, 5):
        for shift in range(4):
            for degree in range(4):
                order, where = _degrevlex_plan(nv, shift, degree)
                basis = [monomial_basis(nv, degree)[i] for i in order]
                assert all(_degrevlex_greater(a, b) for a, b in zip(basis, basis[1:]))
                top_order = _degrevlex_plan(nv, 0, shift + degree)[0]
                target = [monomial_basis(nv, shift + degree)[i] for i in top_order]
                assert where.shape == (comb(nv - 1 + shift, shift), len(basis))
                for m, positions in zip(monomial_basis(nv, shift), where, strict=True):
                    assert list(positions) == sorted(positions)
                    for b, pos in zip(basis, positions, strict=True):
                        product = Form.monomial(DUAL, m) * Form.monomial(DUAL, b)
                        assert list(product.terms) == [target[pos]]
                assert not order.flags.writeable and not where.flags.writeable


def test_solve_waring_cuspidal_star():
    deco = solve_waring(CUSPIDAL_X4_POINTS, CUSPIDAL)
    assert deco is not None
    assert deco.residual(CUSPIDAL).is_zero()


def test_solve_waring_binary_example():
    f = parse_form("x0^2", num_vars=2)
    deco = solve_waring([(1, 1), (1, -1), (0, 1)], f)
    assert deco is not None
    assert deco.coefficients == [Fraction(1, 2), Fraction(1, 2), Fraction(-1)]
    assert deco.residual(f).is_zero()


def test_q_waring_solve_takes_the_one_power_table(monkeypatch):
    # over Q the columns are rows of `poly.linear_power_table`, as over F_p,
    # and no point goes through the generic `linear_power_coefficients`
    calls, fields = [], []
    real = apolar.linear_power_table
    for owner in (poly, apolar):
        monkeypatch.setattr(owner, "linear_power_coefficients", lambda *a: calls.append(a))
    monkeypatch.setattr(apolar, "linear_power_table",
                        lambda pts, d, p: fields.append(p) or real(pts, d, p))
    f = parse_form("x0^2", num_vars=2)
    deco = solve_waring([(1, 1), (1, -1), (0, 1)], f)
    assert deco.coefficients == [Fraction(1, 2), Fraction(1, 2), Fraction(-1)]
    deco = solve_waring(CUSPIDAL_X4_POINTS, CUSPIDAL)
    assert deco.residual(CUSPIDAL).is_zero()
    assert all(a.__class__ in (int, Fraction) for a in deco.coefficients)
    assert calls == [] and fields == [None, None]


def _combination_by_powers(deco):
    """sum alpha * L^d, term by term through `Form.__pow__`."""
    total = None
    for alpha, lf in zip(deco.coefficients, deco.linear_forms):
        piece = (lf ** deco.degree) * alpha
        total = piece if total is None else total + piece
    return total


def _seeded_decompositions(rng, coord, weight, draws=40):
    """Decompositions in 1-4 variables, degrees 0-6, some coordinates and
    weights zero, with a form G of the same degree to take residuals of."""
    def sparse(scalar):
        return 0 if rng.random() < 0.2 else scalar()

    for _ in range(draws):
        nv, d, count = rng.randrange(1, 5), rng.randrange(7), rng.randrange(1, 7)
        lines = [Form.linear(PRIMAL, [sparse(coord) for _ in range(nv)]) for _ in range(count)]
        deco = WaringDecomposition(lines, [sparse(weight) for _ in lines], d)
        G = Form(PRIMAL, nv, d, {m: weight() for m in monomial_basis(nv, d)
                                 if rng.random() < 0.5})
        yield deco, G


@pytest.mark.parametrize("coord, weight", [
    ("F_7", "F_7"), ("F_101", "F_101"), ("F_big", "F_big"), ("Q", "Q"),
    ("Z", "F_7"), ("Q", "F_101"), ("F_7", "Q"), ("F_big", "Z")])
def test_combination_matches_the_sum_of_form_powers(coord, weight, monkeypatch):
    rng = random.Random(f"combination:{coord}:{weight}")
    scalars = {"Z": lambda: rng.randint(-5, 5),
               "Q": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
    scalars.update({f"F_{p}": (lambda p=p: Fp(rng.randrange(p), p)) for p in (7, 101)})
    scalars["F_big"] = lambda: Fp(rng.randrange(DEFAULT_PRIME), DEFAULT_PRIME)
    cases = []
    for deco, G in _seeded_decompositions(rng, scalars[coord], scalars[weight]):
        expected = _combination_by_powers(deco)
        cases.append((deco, G, expected, [expected - G, -G]))
    assert any(not res.is_zero() for *_, (res, _) in cases)
    calls = []
    real = poly._term_products
    monkeypatch.setattr(poly, "_term_products", lambda *a: calls.append(1) or real(*a))
    for deco, G, expected, (residual, shifted) in cases:
        got = deco.combination()
        assert (got.ring, got.num_vars, got.degree, got.prime) == (
            expected.ring, expected.num_vars, expected.degree, expected.prime)
        assert got.terms == expected.terms and format_form(got) == format_form(expected)
        assert deco.residual(G) == residual
        assert deco.residual(expected).is_zero()
        assert deco.residual(expected + G) == shifted
    # the combination expands no power by term-pair products
    assert calls == []
    assert WaringDecomposition([], [], 3).combination() is None


def test_solve_waring_infeasible():
    f = parse_form("x0*x1")
    assert solve_waring([(1, 0)], f) is None


def test_solve_waring_rejects_proportional_points():
    with pytest.raises(ValueError):
        solve_waring([(1, 2), (2, 4)], parse_form("x0^2", num_vars=2))
    # (1, 2) and (1, 9) are one point of F_7: refused over F_7 whether they
    # come as ints or as `Fp`s, and independent over Q; (3, 2) is 3 * (1, 3)
    # in F_7, though its minor with (1, 3) is -7 on the residues
    p = 7
    f = Form.linear(PRIMAL, [Fp(1, p), Fp(3, p)]) ** 2
    for pts in ([(1, 2), (1, 9)], [(Fp(1, p), Fp(2, p)), (Fp(1, p), Fp(9, p))],
                [(1, 3), (3, 2)]):
        with pytest.raises(ValueError, match="linear forms 0 and 1 are proportional"):
            solve_waring(pts, f)
    g = Form.linear(PRIMAL, [1, 2]) ** 2 - Form.linear(PRIMAL, [1, 9]) ** 2
    assert solve_waring([(1, 2), (1, 9)], g).coefficients == [1, -1]


def test_perp_dimension_complements_catalecticant_rank():
    rng = random.Random(12)
    p = 2**31 - 1
    for _ in range(10):
        n1 = rng.randrange(2, 4)
        d = rng.randrange(2, 5)
        terms = {m: random_scalar(rng, p) for m in monomial_basis(n1, d)
                 if rng.random() < 0.7}
        if not terms:
            continue
        f = Form(PRIMAL, n1, d, terms)
        for i in range(d + 1):
            cat = catalecticant(f, i)
            assert perp_piece(f, i).dimension + cat.rank() == comb(n1 - 1 + i, i)


def test_catalecticant_rank_symmetry():
    rng = random.Random(13)
    p = 2**31 - 1
    for _ in range(10):
        n1 = rng.randrange(2, 4)
        d = rng.randrange(2, 6)
        terms = {m: random_scalar(rng, p) for m in monomial_basis(n1, d)
                 if rng.random() < 0.6}
        if not terms:
            continue
        f = Form(PRIMAL, n1, d, terms)
        for i in range(d + 1):
            assert catalecticant(f, i).rank() == catalecticant(f, d - i).rank()


def test_generic_catalecticant_has_maximal_rank():
    rng = random.Random(14)
    p = 2**31 - 1
    for n1, d in ((3, 4), (3, 3), (4, 3)):
        terms = {m: random_scalar(rng, p) for m in monomial_basis(n1, d)}
        f = Form(PRIMAL, n1, d, terms)
        for i in range(d // 2 + 1):
            expected = min(comb(n1 - 1 + i, i), comb(n1 - 1 + d - i, d - i))
            assert catalecticant(f, i).rank() == expected


def _random_apolar_instance(rng, p, n1, d, count):
    """F as a random weighted power sum of pairwise independent points."""
    while True:
        pts = [tuple(random_scalar(rng, p) for _ in range(n1)) for _ in range(count)]
        if all(any(pt) for pt in pts) and len({normalized(pt) for pt in pts}) == count:
            break
    alphas = [random_scalar(rng, p) for _ in range(count)]
    total = None
    for a, pt in zip(alphas, pts):
        piece = (Form.linear(PRIMAL, pt) ** d) * a
        total = piece if total is None else total + piece
    return pts, total


def test_apolarity_round_trip():
    # the two directions of the power-sum correspondence on random instances
    rng = random.Random(15)
    p = 2**31 - 1
    for _ in range(10):
        n1 = rng.randrange(2, 4)
        d = rng.randrange(2, 5)
        count = rng.randrange(2, min(comb(n1 - 1 + d, d), 7))
        pts, f = _random_apolar_instance(rng, p, n1, d, count)
        if f is None or f.is_zero():
            continue
        for j in range(1, d + 1):
            for g in point_ideal_piece(pts, j, n1):
                assert annihilates(g, f)
        deco = solve_waring(pts, f)
        assert deco is not None
        assert deco.residual(f).is_zero()


def test_fp_power_sum_takes_the_mod_p_path(monkeypatch):
    p = 10007
    rng = random.Random(43)
    f = None
    for _ in range(4):
        pt = [random_scalar(rng, p) for _ in range(3)]
        piece = (Form.linear(PRIMAL, pt) ** 4) * random_scalar(rng, p)
        f = piece if f is None else f + piece
    expected = []
    for i in range(1, 5):
        cat = catalecticant(f, i)
        lifted = [[int(e) for e in row] for row in cat.entries]
        rank = linalg.rank_mod(lifted, p)
        kernel = linalg.kernel_mod(lifted, len(cat.col_basis), p).tolist()
        # the int64 kernels agree with exact elimination over F_p
        assert rank == len(rref_generic(cat.entries)[1])
        assert kernel == [[int(e) for e in row]
                          for row in rref_kernel(cat.entries, len(cat.col_basis))]
        expected.append((rank, kernel))
    calls = []
    for name in ("rank_mod", "kernel_mod"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for i, (rank, kernel) in enumerate(expected, start=1):
        calls.clear()
        assert catalecticant(f, i).rank() == rank
        basis = perp_piece(f, i).basis
        assert calls == ["rank_mod", "kernel_mod"]
        assert [[int(c) for c in coefficient_vector(b)] for b in basis] == kernel
        assert all(isinstance(c, Fp) for b in basis for c in b.terms.values())


@pytest.mark.parametrize("p", [10007, DEFAULT_PRIME])
@pytest.mark.parametrize("n", [2, 3])
def test_waring_points_are_vertices_of_an_apolar_cycle_star(n, p):
    """The apolarity lemma through a star: F = sum a_i P_i^3 over s = n + 2
    seeded points, and hyperplane i is the span of the n points off the
    cycle edge {i, i + 1}.  Each point then lies on the n hyperplanes whose
    edges miss it, so it is a star vertex, and I_X in I_P in F^perp: the
    certified configuration is apolar to F."""
    rng = random.Random(f"cycle-star:{n}:{p}")
    s = n + 2
    for _ in range(50):
        pts = [[rng.randrange(p) for _ in range(n + 1)] for _ in range(s)]
        F = Form.zero(PRIMAL, n + 1, 3)
        for pt in pts:
            F = F + Form.linear(PRIMAL, [Fp(c, p) for c in pt]) ** 3 * Fp(rng.randrange(p), p)
        rows = []
        for i in range(s):
            off = [pts[j] for j in range(s) if j not in (i, (i + 1) % s)]
            (normal,) = linalg.kernel_over(p, off, n + 1)
            rows.append([Fp(c, p) for c in normal])
        hset = HyperplaneSet(rows)  # raises GeneralPositionError unless certified
        vertices = {normalized(pt.coords) for pt in hset.points}
        assert all(normalized([Fp(c, p) for c in pt]) in vertices for pt in pts)
        assert is_apolar_ideal_contained(hset.product_generators, F).contained
