import random
from fractions import Fraction
from math import comb

import pytest

from starpolar import linalg
from starpolar.apolar import (CatalecticantMatrix, _product_rows, annihilates,
                              catalecticant, ideal_piece_dimension,
                              is_apolar_ideal_contained, perp_piece,
                              solve_waring, verify_perp_generators)
from starpolar.field import Fp, random_scalar
from starpolar.poly import (DUAL, PRIMAL, Form, coefficient_vector, contract,
                            monomial_basis, parse_form, shift_table)
from starpolar.starconfig import point_ideal_piece

from helpers import random_form_over, rref_kernel

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
    return linalg.rank(rows) == linalg.rank(rows + [target])


def test_catalecticant_cuspidal_degree_two():
    cat = catalecticant(CUSPIDAL, 2)
    assert len(cat.col_basis) == 6
    assert len(cat.row_basis) == 3
    kernel = linalg.kernel_basis(cat.entries, 6)
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
    """Rows placed by `shift_table` against rows expanded by `Form.__mul__`."""
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
            expanded = [coefficient_vector(Form.monomial(DUAL, m) * g)
                        for g in nonzero if g.degree <= t
                        for m in monomial_basis(nv, t - g.degree)]
            assert (_product_rows(nonzero, t) if nonzero else []) == expanded
            rank = len(linalg.rref(expanded)[1]) if expanded else 0
            assert ideal_piece_dimension(gens, t) == rank


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


def test_solve_waring_infeasible():
    f = parse_form("x0*x1")
    assert solve_waring([(1, 0)], f) is None


def test_solve_waring_rejects_proportional_points():
    with pytest.raises(ValueError):
        solve_waring([(1, 2), (2, 4)], parse_form("x0^2", num_vars=2))


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
        normalized = set()
        ok = True
        for pt in pts:
            if not any(pt):
                ok = False
                break
            k = next(i for i, c in enumerate(pt) if c)
            normalized.add(tuple(c / pt[k] for c in pt))
        if ok and len(normalized) == count:
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
        assert rank == len(linalg.rref(cat.entries)[1])
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
