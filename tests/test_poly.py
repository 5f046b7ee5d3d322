import math
import random
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from starpolar import poly
from starpolar.field import DEFAULT_PRIME, Fp
from starpolar.starconfig import point_ideal_piece
from starpolar.poly import (DUAL, MAX_EXPONENT, MAX_VARIABLE_INDEX, PRIMAL,
                            Form, HomogeneityError, ParseError,
                            coefficient_vector, contract, contraction_row,
                            form_from_vector, format_form,
                            linear_power_coefficients, monomial_basis,
                            monomial_table, monomial_values, multinomial,
                            parse_form)
from helpers import (contract_by_pairs, dp_add, dp_diff, evaluate, form_mul_on_scalars,
                     random_form_over)


def test_monomial_basis_examples():
    assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(monomial_basis(3, 3)) == 10  # C(5,2)
    assert monomial_basis(4, 2)[0] == (2, 0, 0, 0)  # starts at x0^2


def test_form_arithmetic_examples():
    x0 = Form.linear(PRIMAL, [1, 0])
    x1 = Form.linear(PRIMAL, [0, 1])
    prod = (x0 + x1) * (x0 - x1)
    assert prod == parse_form("x0^2 - x1^2")
    y = [Form.linear(DUAL, [1 if k == i else 0 for k in range(3)]) for i in range(3)]
    assert y[0] * y[1] * (y[1] - y[2]) == parse_form("y0*y1^2 - y0*y1*y2")
    f = parse_form("x0^2 - x1^2")
    assert (f * 0).is_zero()
    assert (f * 0).terms == {}


def test_form_validation_errors():
    f2 = parse_form("x0^2", num_vars=2)
    f3 = parse_form("x0^3", num_vars=2)
    with pytest.raises(ValueError):
        f2 + f3
    with pytest.raises(ValueError):
        f2 + parse_form("y0^2", num_vars=2)
    with pytest.raises(ValueError):
        Form(PRIMAL, 2, 2, {(1, 0): 1})  # degree mismatch inside constructor


CUSPIDAL = "x0^3 - x1^2*x2"


def test_contract_examples():
    C = parse_form(CUSPIDAL)
    # third partial d^3/dx1^2 dx2 of -x1^2 x2 is -2
    res = contract(parse_form("y1^2*y2"), C)
    assert res == Form(PRIMAL, 3, 0, {(0, 0, 0): Fraction(-2)})
    assert contract(parse_form("y0*y1", num_vars=3), C).is_zero()
    d = 6
    x0d = parse_form("x0^6")
    res = contract(parse_form("y0", num_vars=1), x0d)
    assert res == Form(PRIMAL, 1, d - 1, {(d - 1,): d})


def test_contract_ring_mismatch():
    with pytest.raises(ValueError):
        contract(parse_form("x0"), parse_form("x0^2"))
    with pytest.raises(ValueError):
        contract(parse_form("y0"), parse_form("y0^2"))


def _random_form(rng, ring, nvars, degree, density=0.5):
    terms = {}
    for mono in monomial_basis(nvars, degree):
        if rng.random() < density:
            c = Fraction(rng.randrange(-5, 6))
            if c:
                terms[mono] = c
    return Form(ring, nvars, degree, terms)


def test_contract_is_bilinear():
    rng = random.Random(77)
    for _ in range(25):
        n1 = rng.randrange(2, 4)
        d = rng.randrange(2, 5)
        e = rng.randrange(1, d)
        f = _random_form(rng, PRIMAL, n1, d)
        op1 = _random_form(rng, DUAL, n1, e)
        op2 = _random_form(rng, DUAL, n1, e)
        a = Fraction(rng.randrange(-4, 5))
        lhs = contract(op1 * a + op2, f)
        rhs = contract(op1, f) * a + contract(op2, f)
        assert lhs == rhs


def test_contract_is_a_module_action():
    rng = random.Random(78)
    for _ in range(25):
        n1 = rng.randrange(2, 4)
        d = rng.randrange(2, 6)
        e1 = rng.randrange(1, 3)
        e2 = rng.randrange(1, max(2, d - e1))
        f = _random_form(rng, PRIMAL, n1, d)
        op1 = _random_form(rng, DUAL, n1, e1)
        op2 = _random_form(rng, DUAL, n1, e2)
        assert contract(op1 * op2, f) == contract(op1, contract(op2, f))


def test_overdegree_contraction_annihilates():
    rng = random.Random(79)
    for _ in range(10):
        n1 = rng.randrange(2, 4)
        d = rng.randrange(1, 4)
        f = _random_form(rng, PRIMAL, n1, d, density=0.8)
        op = _random_form(rng, DUAL, n1, d + 1, density=0.8)
        assert contract(op, f).is_zero()


def test_contract_matches_iterated_derivatives():
    # over F_7 with degrees up to 8 some multiplicities vanish mod p
    rng = random.Random(81)
    for p in (None, 7, 101):
        def scalar():
            if p is None:
                return Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            return Fp(rng.randrange(p), p)

        for _ in range(20):
            n1 = rng.randrange(1, 4)
            d = rng.randrange(0, 9)
            e = rng.randrange(0, d + 2)
            f = Form(PRIMAL, n1, d, {m: scalar() for m in monomial_basis(n1, d)
                                     if rng.random() < 0.6})
            op = Form(DUAL, n1, e, {m: scalar() for m in monomial_basis(n1, e)
                                    if rng.random() < 0.6})
            expect = {}
            for beta, c in op.terms.items():
                dp = dict(f.terms)
                for j, b in enumerate(beta):
                    for _ in range(b):
                        dp = dp_diff(dp, j)
                expect = dp_add(expect, {m: c * v for m, v in dp.items()})
            got = contract(op, f)
            assert got.terms == expect
            assert got.degree == (d - e if e <= d else 0)


def _contract_against_pairs(op, f):
    """Compare `contract` with the pair loop, coefficient types included;
    returns True when the call read `contraction_row`s."""
    before = contraction_row.cache_info()
    got = contract(op, f)
    after = contraction_row.cache_info()
    want = contract_by_pairs(op, f)
    assert got == want and got.degree == want.degree, (op, f)
    assert ({m: type(c) for m, c in got.terms.items()}
            == {m: type(c) for m, c in want.terms.items()})
    return after.hits + after.misses > before.hits + before.misses


@pytest.mark.parametrize("field", ["Z", "Q", 7, 101, 2**31 - 1])
def test_contract_matches_the_pair_loop(field):
    rng = random.Random(str(field))
    walks = {True: 0, False: 0}
    for nv in (1, 2, 3, 4):
        for d in range(5):
            for density in (0.0, 0.3, 1.0):
                f = random_form_over(rng, PRIMAL, nv, d, field, density)
                for e in range(d + 2):
                    for op_density in (0.0, 0.5, 1.0):
                        op = random_form_over(rng, DUAL, nv, e, field, op_density)
                        walks[_contract_against_pairs(op, f)] += 1
    # both walks ran: along the rows, and along F's terms
    assert walks[True] > 100 and walks[False] > 100


def test_contract_matches_the_pair_loop_where_factorials_vanish_mod_p():
    # exponents >= 7 over F_7: some falling factorials are 0 mod 7
    rng = random.Random(707)
    vanished = 0
    for _ in range(120):
        nv = rng.randrange(1, 4)
        d = rng.randrange(7, 13)
        e = rng.randrange(0, d + 2)
        f = random_form_over(rng, PRIMAL, nv, d, 7, 0.5)
        op = random_form_over(rng, DUAL, nv, e, 7, 0.5)
        _contract_against_pairs(op, f)
        vanished += any(math.prod(map(math.perm, a, b)) % 7 == 0
                        and all(x >= y for x, y in zip(a, b))
                        for a in f.terms for b in op.terms)
    assert vanished > 20


def test_contract_of_fractions_on_fp_forms_matches_the_pair_loop():
    rng = random.Random(708)
    for p in (7, 101, 2**31 - 1):
        for _ in range(40):
            nv = rng.randrange(1, 4)
            d = rng.randrange(0, 6)
            e = rng.randrange(0, d + 2)
            f = random_form_over(rng, PRIMAL, nv, d, p, 0.7)
            op = random_form_over(rng, DUAL, nv, e, "Q", 0.7)
            _contract_against_pairs(op, f)
            assert all(isinstance(c, Fp) for c in contract(op, f).terms.values())


def test_contract_rejects_mixed_moduli():
    f = Form(PRIMAL, 2, 2, {(2, 0): Fp(3, 11), (1, 1): Fp(1, 11)})
    for op in (Form(DUAL, 2, 1, {(1, 0): Fp(2, 7)}),
               Form(DUAL, 2, 2, {(2, 0): Fp(2, 7), (0, 2): 5})):
        with pytest.raises(ValueError, match="mixed prime-field moduli"):
            contract(op, f)
        with pytest.raises(ValueError, match="mixed prime-field moduli"):
            contract_by_pairs(op, f)


def test_contract_keeps_the_sparse_bound():
    # dim S_100 in 10 variables is about 4e12, so the call must walk F's two
    # terms and build no row, basis or index of that size
    f = parse_form("x0^200 + x9^200")
    op = parse_form("y0^100", num_vars=10)
    caches = (contraction_row, monomial_basis)
    sizes = [c.cache_info().currsize for c in caches]
    for scale in (1, Fp(1, 2**31 - 1)):
        got = contract(op, f * scale)
        assert got == Form(PRIMAL, 10, 100, {(100,) + (0,) * 9: math.perm(200, 100) * scale})
        assert len(got.terms) == 1
    assert [c.cache_info().currsize for c in caches] == sizes


def test_linear_power_matches_form_power():
    rng = random.Random(80)
    for _ in range(15):
        n1 = rng.randrange(2, 4)
        d = rng.randrange(1, 5)
        coords = [Fraction(rng.randrange(-3, 4)) for _ in range(n1)]
        if not any(coords):
            coords[0] = Fraction(1)
        vec = linear_power_coefficients(coords, d)
        form = Form.linear(PRIMAL, coords) ** d
        assert vec == coefficient_vector(form, d)
    # degree 0, and F_p coordinates (mod 3 some multinomials vanish)
    for d in range(5):
        for coords in ([Fraction(2), Fraction(-1)], [Fp(1, 3), Fp(2, 3), Fp(0, 3)],
                       [Fp(rng.randrange(1, 101), 101) for _ in range(3)]):
            vec = linear_power_coefficients(coords, d)
            assert vec == coefficient_vector(Form.linear(PRIMAL, coords) ** d, d)


def test_multinomial():
    assert multinomial(3, (3, 0, 0)) == 1
    assert multinomial(3, (1, 1, 1)) == 6
    assert sum(multinomial(4, m) for m in monomial_basis(3, 4)) == 3**4


def test_evaluate():
    # `helpers.evaluate`, by `coefficient_vector` and `monomial_values`: the
    # vanishing checks of the ideal layer read it
    C = parse_form(CUSPIDAL)
    assert evaluate(C, [1, 0, 0]) == 1
    assert evaluate(C, [1, 1, 1]) == 0
    assert evaluate(C, [Fp(2, 7), Fp(1, 7), Fp(1, 7)]) == Fp(0, 7)
    const = parse_form("5", num_vars=3)
    assert const.degree == 0
    assert evaluate(const, [2, 3, 4]) == 5
    assert evaluate(const, [Fp(2, 7), Fp(0, 7), Fp(1, 7)]) == 5


# ---------------------------------------------------------------------------
# parser / printer


def test_parse_cubic_normal_forms():
    C = parse_form(CUSPIDAL)
    assert C.ring == PRIMAL and C.num_vars == 3 and C.degree == 3
    assert C.terms == {(3, 0, 0): 1, (0, 2, 1): -1}
    G = parse_form("x0*(x2^2+x0*x1)")
    assert G.terms == {(1, 0, 2): 1, (2, 1, 0): 1}


def test_parse_rational_coefficients():
    f = parse_form("y0 + 47/132*y1 - 3*y2")
    assert f.terms[(0, 1, 0)] == Fraction(47, 132)
    assert f.terms[(0, 0, 1)] == -3
    for text in ("y0 + 47/132*y1 - 3*y2", "x0^3 - x1^2*x2", "(x0 - 2*x1)^3", "7"):
        assert all(type(c) is Fraction for c in parse_form(text).terms.values())


def test_parse_expands_through_cancellation_and_zero_powers():
    f = parse_form("(x0 + 1)*(x0 - 1) + 1")
    assert (f.num_vars, f.degree, f.terms) == (1, 2, {(2,): 1})
    f = parse_form("x0^0")
    assert (f.num_vars, f.degree, f.terms) == (1, 0, {(0,): 1})
    f = parse_form("(1 + x0)^0 - 1 + x1")
    assert (f.num_vars, f.degree, f.terms) == (2, 1, {(0, 1): 1})


def test_parse_rejects_inhomogeneous():
    with pytest.raises(HomogeneityError) as err:
        parse_form("x0 + x1^2")
    assert "degree 1" in str(err.value) and "degree 2" in str(err.value)
    assert "x0" in str(err.value)
    # one term of each of the two lowest degrees is named, without coefficient
    with pytest.raises(HomogeneityError) as err:
        parse_form("x1^2 + 3 + x0 + x0*x1")
    assert str(err.value) == ("inhomogeneous input: term 1 has degree 0 "
                              "but term x0 has degree 1")


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_form("x0 + + x1")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_form("x0 @ x1")
    with pytest.raises(ParseError):
        parse_form("x")
    with pytest.raises(ParseError):
        parse_form("x0 x1")  # explicit '*' required


def test_parse_respects_declared_variable_count():
    with pytest.raises(ParseError) as err:
        parse_form("x0 + x5", num_vars=3)
    assert "x5" in str(err.value)
    f = parse_form("x0^2", num_vars=4)
    assert f.num_vars == 4


def test_parse_rejects_deep_nesting_and_oversized_tokens():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_form("(" * 5000 + "x0" + ")" * 5000)
    with pytest.raises(ParseError) as err:
        parse_form("x0^100000000")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse_form("x0 + x1000000000")
    assert err.value.position == 5
    f = parse_form(f"x{MAX_VARIABLE_INDEX}^{MAX_EXPONENT}")
    assert f.num_vars == MAX_VARIABLE_INDEX + 1 and f.degree == MAX_EXPONENT


def test_parse_refuses_an_expansion_over_its_budget_quickly():
    start = time.perf_counter()
    with pytest.raises(ParseError, match="term products") as err:
        parse_form("(x0+x1+x2)^1000")
    assert time.perf_counter() - start < 1
    assert err.value.position == 10  # the '^'
    # the budget is one parse's total: each power fits, the product does not
    with pytest.raises(ParseError, match="term products") as err:
        parse_form("(x0+x1+x2)^40*(x0+x1+x2)^20")
    assert err.value.position == 13  # the '*'
    f = parse_form("(x0+x1+x2)^40")
    assert f.degree == 40 and len(f.terms) == comb(42, 2)
    assert f.terms[(14, 13, 13)] == multinomial(40, (14, 13, 13))


def test_parse_validates_terms_linearly_in_the_summands(monkeypatch):
    # a sum of N distinct cubic monomials: each summand's terms are checked
    # a bounded number of times, where summing one `Form.__add__` at a time
    # re-checked the whole accumulated form, about N^2 / 2 terms
    monos = [(i, j, k) for i in range(40) for j in range(i, 40)
             for k in range(j, 40)]
    random.Random(31).shuffle(monos)
    checked = []
    real = Form.__init__

    def counting(self, ring, num_vars, degree, terms):
        checked.append(len(terms))
        real(self, ring, num_vars, degree, terms)

    monkeypatch.setattr(Form, "__init__", counting)
    counts = {}
    for n in (250, 500, 1000):
        text = " - ".join(f"{c + 2}*x{i}*x{j}*x{k}" for c, (i, j, k)
                          in enumerate(monos[:n]))
        checked.clear()
        f = parse_form(text)
        counts[n] = sum(checked)
        assert len(f.terms) == n
        first, second = (tuple(m.count(v) for v in range(40)) for m in monos[:2])
        assert (f.terms[first], f.terms[second]) == (2, -3)
    assert all(counts[n] <= 16 * n for n in counts)
    assert counts[1000] <= 4.2 * counts[250]


def test_parse_rejects_mixed_rings():
    with pytest.raises(ParseError):
        parse_form("x0*y1")


def test_canonical_printing():
    assert format_form(parse_form(CUSPIDAL)) == "x0^3 - x1^2*x2"
    assert format_form(parse_form("x0*(x2^2+x0*x1)")) == "x0^2*x1 + x0*x2^2"
    assert format_form(Form.zero(PRIMAL, 2, 3)) == "0"
    assert format_form(parse_form("-x0 - 1/2*x1")) == "-x0 - 1/2*x1"
    assert format_form(Form(PRIMAL, 2, 0, {(0, 0): Fraction(5)})) == "5"


def test_print_parse_round_trip_random():
    rng = random.Random(4)
    for _ in range(50):
        n1 = rng.randrange(1, 4)
        d = rng.randrange(0, 5)
        terms = {}
        for mono in monomial_basis(n1, d):
            if rng.random() < 0.5:
                c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                if c:
                    terms[mono] = c
        f = Form(DUAL if rng.random() < 0.5 else PRIMAL, n1, d, terms)
        if f.is_zero():
            continue
        assert parse_form(format_form(f), num_vars=n1, ring=f.ring) == f


def test_parse_zero():
    z = parse_form("0")
    assert z.is_zero()
    assert (z.ring, z.num_vars, z.degree) == (PRIMAL, 1, 0)
    for z, width in ((parse_form("x0 - x0", num_vars=2), 2),
                     (parse_form("x2^2 - x2*x2"), 3),
                     (parse_form("0", num_vars=4, ring=DUAL), 4)):
        assert z.is_zero()
        assert (z.num_vars, z.degree) == (width, 0)


@pytest.mark.parametrize("p", [2, 7, 101, DEFAULT_PRIME, "Z", "Q"])
def test_monomial_table_matches_monomial_values_on_fp(p):
    """Over F_p against `monomial_values` on `Fp` objects; over Z and Q
    (p None) against it on the scalars as given, with no reduction."""
    rng = random.Random(p)
    field, p = p, (None if p in ("Z", "Q") else p)
    # over Z and Q, entries of both signs whose powers pass 2^63
    top, low = (p, 0) if p else (2**40, -2**40)
    for nv in range(1, 6):
        # zero coordinates, a zero point, and the largest residue p - 1
        points = [[0] * nv, [top - 1] * nv]
        points += [[rng.randrange(low, top) if rng.random() < 0.6 else 0 for _ in range(nv)]
                   for _ in range(4)]
        if field == "Q":
            points = [[Fraction(c, rng.randint(1, 2**35)) for c in pt] for pt in points]
        for degree in range(7):
            width = comb(nv - 1 + degree, degree)
            expected = [monomial_values(pt if p is None else [Fp(c, p) for c in pt], degree)
                        for pt in points]
            if p is None:
                table = monomial_table(points, degree, None)
                assert table.dtype == object
                assert table.shape == (len(points), width)
                assert table.tolist() == expected
                assert all(isinstance(v, (int, Fraction)) for row in table for v in row)
                empty = monomial_table(np.zeros((0, nv), dtype=np.int64), degree, None)
                assert (empty.dtype, empty.shape) == (object, (0, width))
                continue
            expected = [[int(v) % p for v in row] for row in expected]
            table = monomial_table(np.array(points, dtype=np.int64), degree, p)
            assert table.dtype == np.int64
            assert table.shape == (len(points), width)
            assert table.tolist() == expected
            assert monomial_table(points, degree, p).tolist() == expected
            empty = monomial_table(np.zeros((0, nv), dtype=np.int64), degree, p)
            assert (empty.dtype, empty.shape) == (np.int64, (0, width))
            # the exponent rows are built once per shape and are read-only
            exps = poly._exponent_array(nv, degree)
            assert exps is poly._exponent_array(nv, degree)
            assert exps.tolist() == [list(m) for m in monomial_basis(nv, degree)]
            with pytest.raises(ValueError, match="read-only"):
                exps[0, 0] = 1


def test_monomial_table_refuses_a_prime_past_int64():
    with pytest.raises(ValueError, match="too large"):
        monomial_table([[1, 2]], 3, 2147483659)


def _term_items(f):
    return [(m, c.__class__, c) for m, c in f.terms.items()]


@pytest.mark.parametrize("field", ["Z", "Q", 2, 7, 101, DEFAULT_PRIME, 2147483659])
def test_form_products_match_the_term_pair_loop(field):
    """Terms, their order and their coefficient types, on the residue loop
    over F_p (p >= 2^31 included: the loop runs on Python ints) and on
    the scalars as given over Z and Q."""
    rng = random.Random(str(field))
    for _ in range(60):
        nv = rng.randrange(1, 5)
        f = random_form_over(rng, PRIMAL, nv, rng.randrange(4), field, rng.random())
        g = random_form_over(rng, PRIMAL, nv, rng.randrange(4), field, rng.random())
        prod, want = f * g, form_mul_on_scalars(f, g)
        assert _term_items(prod) == _term_items(want)
        # built without the constructor's checks, a product still passes them
        assert (prod.ring, prod.num_vars, prod.degree) == \
            (want.ring, want.num_vars, want.degree)
        # an int scalar form times an F_p form
        one = Form(PRIMAL, nv, 0, {(0,) * nv: 1})
        assert _term_items(one * g) == _term_items(form_mul_on_scalars(one, g))
    if isinstance(field, int):
        lf = random_form_over(rng, PRIMAL, 4, 1, field, 1.0)
        power = Form(PRIMAL, 4, 0, {(0,) * 4: 1})
        for _ in range(5):
            power = form_mul_on_scalars(power, lf)
        assert _term_items(lf ** 5) == _term_items(power)


@pytest.mark.parametrize("one", [1, Fp(1, 7)])
def test_form_products_drop_cancelled_terms_and_keep_the_loop_order(one):
    f = Form(PRIMAL, 3, 2, {(2, 0, 0): one, (1, 1, 0): one, (1, 0, 1): one})
    g = Form(PRIMAL, 3, 2, {(0, 1, 1): one, (1, 0, 1): -one, (1, 1, 0): one})
    # x0^2*x1*x2 gets +1, then -1 (it leaves), then +1 (it comes back last)
    prod = f * g
    assert list(prod.terms)[-1] == (2, 1, 1)
    assert _term_items(prod) == _term_items(form_mul_on_scalars(f, g))
    x0, x1 = (Form.linear(PRIMAL, [one * (k == j) for k in range(2)]) for j in range(2))
    assert ((x0 + x1) * (x0 - x1)).terms == {(2, 0): one, (0, 2): -one}


def test_form_products_over_f2_drop_the_cross_term():
    s = Form.linear(PRIMAL, [Fp(1, 2), Fp(1, 2)])
    assert (s * s).terms == {(2, 0): Fp(1, 2), (0, 2): Fp(1, 2)}


def test_zeroth_power_over_fp_is_the_fp_one():
    f = Form.linear(PRIMAL, [Fp(3, 7), Fp(2, 7)])
    assert _term_items(f ** 0) == [((0, 0), Fp, Fp(1, 7))]
    assert (f ** 0).degree == 0
    # over Q the empty product is the int 1
    assert _term_items(Form.linear(PRIMAL, [3, 2]) ** 0) == [((0, 0), int, 1)]


def _assert_built_right(f, p):
    """``f`` equals its terms rebuilt through the validating constructor,
    and every stored coefficient is a nonzero `Fp` of the prime p."""
    rebuilt = Form(f.ring, f.num_vars, f.degree, f.terms)
    assert f == rebuilt and f.terms == rebuilt.terms and f.degree == rebuilt.degree
    assert all(c.__class__ is Fp and c.p == p and c.value for c in f.terms.values()), f


@pytest.mark.parametrize("p", [2, 7, 101, DEFAULT_PRIME])
def test_fp_forms_are_built_right(p):
    """Every form the arithmetic, `contract`, `form_from_vector` and
    `point_ideal_piece` build without the constructor's checks passes them."""
    rng = random.Random(p + 1)
    built = 0
    for _ in range(25):
        nv, d = rng.randrange(1, 4), rng.randrange(4)
        f = random_form_over(rng, PRIMAL, nv, d, p, rng.random())
        g = random_form_over(rng, PRIMAL, nv, d, p, rng.random())
        h = random_form_over(rng, PRIMAL, nv, rng.randrange(3), p, 0.8)
        op = random_form_over(rng, DUAL, nv, rng.randrange(d + 1), p, 0.8)
        lf = Form.linear(PRIMAL, [Fp(rng.randrange(1, p), p) for _ in range(nv)])
        c = Fp(rng.randrange(1, p), p)
        # multiplying by p or an F_p zero drops every product
        assert (f * p).is_zero() and (f * Fp(0, p)).is_zero() and (p * f).is_zero()
        results = [lf ** e for e in range(4)]
        results += [f * g, f * h, f * c, c * f, f * 3, f * Fraction(1, 3), f * p,
                    f + g, f - g, -f, f + (-f), f - f, contract(op, f)]
        vec = [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in monomial_basis(nv, d)]
        results += [form_from_vector(DUAL, nv, d, vec, p),
                    form_from_vector(DUAL, nv, d, [Fp(v, p) for v in vec])]
        points = [[Fp(rng.randrange(p), p) for _ in range(nv)]
                  for _ in range(rng.randrange(1, 5))]
        results += point_ideal_piece(points, d, nv)
        for form in results:
            _assert_built_right(form, p)
            built += 1
    assert built > 400
