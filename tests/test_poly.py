import random
import time
from fractions import Fraction
from math import comb

import pytest

from starpolar.field import Fp
from starpolar.poly import (DUAL, MAX_EXPONENT, MAX_VARIABLE_INDEX, PRIMAL,
                            Form, HomogeneityError, ParseError,
                            coefficient_vector, contract, evaluate,
                            format_form, linear_power_coefficients,
                            monomial_basis, multinomial, parse_form)
from helpers import dp_add, dp_diff


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
