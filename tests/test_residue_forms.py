"""Forms over F_p hold int residues.

Each derived form is checked against the same computation on the integer
lifts of its operands over Z (`contract_by_pairs`, `form_mul_on_scalars`
and plain dict loops), reduced mod p by a plain loop, and its `.terms`
must hold only nonzero `Fp`s of its prime.  The maps the loops read
(`field_terms`) must hold the same residues, as ints in [1, p).  The
last test counts `Fp.__init__` calls: the arithmetic the apolarity checks run makes no
`Fp` object, so per-call wrapping cannot come back unnoticed.
"""

import random
from fractions import Fraction

import pytest

from helpers import contract_by_pairs, form_mul_on_scalars, random_form_over
from starpolar.apolar import annihilates, solve_waring
from starpolar.field import DEFAULT_PRIME, Fp
from starpolar.poly import (DUAL, PRIMAL, Form, contract, field_terms, form_from_vector,
                            monomial_basis)
from starpolar.starconfig import point_ideal_piece

PRIMES = [2, 3, 7, 101, DEFAULT_PRIME]


def lift(f):
    """The integer form with the residues of an F_p form as coefficients."""
    return Form(f.ring, f.num_vars, f.degree, {m: c.value for m, c in f.terms.items()})


def reduced(terms, p):
    """An integer term map reduced mod p, zeros dropped."""
    return {m: c % p for m, c in terms.items() if c % p}


def residues(f, p):
    """The residues of an F_p form, after checking that its `.terms` view
    and the map the loops read (`field_terms`) hold the same residues in
    [1, p)."""
    assert all(c.__class__ is Fp and c.p == p and c.value for c in f.terms.values()), f
    view = {m: c.value for m, c in f.terms.items()}
    prime, (terms,) = field_terms(f)
    # a form with no terms has no prime
    assert prime == f.prime == (p if view else None) and terms == view
    assert all(v.__class__ is int and 0 < v < p for v in terms.values())
    return view


def summed(f, g, sign=1):
    """f + sign * g on integer term maps, by a plain loop."""
    terms = dict(f.terms)
    for m, c in g.terms.items():
        terms[m] = terms.get(m, 0) + sign * c
    return terms


def powered(f, e):
    """f^e over Z by `form_mul_on_scalars`, from the constant 1."""
    out = Form(f.ring, f.num_vars, 0, {(0,) * f.num_vars: 1})
    for _ in range(e):
        out = form_mul_on_scalars(out, f)
    return out


def unit_fraction(rng, p):
    """A nonzero `Fraction` whose denominator p does not divide."""
    den = rng.choice([d for d in range(1, 8) if d % p])
    return Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), den)


@pytest.mark.parametrize("p", PRIMES)
def test_residue_forms_match_integer_lifts_reduced_mod_p(p):
    rng = random.Random(f"residues:{p}")
    checked = 0
    for _ in range(30):
        nv, d = rng.randrange(1, 4), rng.randrange(4)
        f, g = (random_form_over(rng, PRIMAL, nv, d, p, rng.random()) for _ in range(2))
        h = Form.zero(PRIMAL, nv)
        while h.is_zero():
            # a form with no terms has no prime: its 0-th power is the int 1
            h = random_form_over(rng, PRIMAL, nv, rng.randrange(3), p, 0.8)
        op = random_form_over(rng, DUAL, nv, rng.randrange(d + 2), p, 0.8)
        lf, lg, lh, lop = lift(f), lift(g), lift(h), lift(op)
        k, q = rng.randrange(-3 * p, 3 * p), unit_fraction(rng, p)
        c = Fp(rng.randrange(p), p)
        cases = [
            (f + g, summed(lf, lg)),
            (f - g, summed(lf, lg, -1)),
            (-f, {m: -v for m, v in lf.terms.items()}),
            (f * k, {m: v * k for m, v in lf.terms.items()}),
            (k * f, {m: v * k for m, v in lf.terms.items()}),
            (f * q, {m: v * q.numerator * pow(q.denominator, -1, p)
                     for m, v in lf.terms.items()}),
            (f * c, {m: v * c.value for m, v in lf.terms.items()}),
            (c * f, {m: v * c.value for m, v in lf.terms.items()}),
            (f * h, form_mul_on_scalars(lf, lh).terms),
            (contract(op, f), contract_by_pairs(lop, lf).terms),
        ]
        cases += [(h ** e, powered(lh, e).terms) for e in range(4)]
        vec = [rng.randrange(-2 * p, 2 * p) if rng.random() < 0.6 else 0
               for _ in monomial_basis(nv, d)]
        cases.append((form_from_vector(DUAL, nv, d, vec, p),
                      dict(zip(monomial_basis(nv, d), vec))))
        for got, want in cases:
            assert residues(got, p) == reduced(want, p)
            checked += 1
    assert checked == 30 * 15


def test_mixed_moduli_raise():
    a = Form.linear(PRIMAL, [Fp(1, 7), 2])
    b = Form.linear(PRIMAL, [Fp(3, 11), 1])
    op = Form.linear(DUAL, [Fp(3, 11), 1])
    for attempt in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: contract(op, a),
                    lambda: a * Fp(1, 11), lambda: Form.linear(PRIMAL, [Fp(1, 7), Fp(1, 11)])):
        with pytest.raises(ValueError, match="mixed prime-field moduli"):
            attempt()


def test_int_and_fraction_operands_land_in_fp():
    x = Form.linear(PRIMAL, [Fp(1, 7), 0])
    half = Form.linear(PRIMAL, [Fraction(1, 2), 0])
    # 1/2 is 4 in F_7
    assert (half * x).terms == {(2, 0): Fp(4, 7)}
    assert (x * half).prime == 7 and (half + x).terms == {(1, 0): Fp(5, 7)}
    assert (x * Fraction(1, 2)).terms == {(1, 0): Fp(4, 7)}
    assert (Form.linear(PRIMAL, [3, 1]) * Fp(2, 7)).terms == {(1, 0): Fp(6, 7), (0, 1): Fp(2, 7)}
    assert contract(Form.linear(DUAL, [Fraction(1, 2), 0]), x * x).terms == {(1, 0): Fp(1, 7)}
    # a form built from ints and `Fp`s reads all `Fp`s, and an int that is 0 mod p goes
    mixed = Form(PRIMAL, 2, 1, {(1, 0): 3, (0, 1): Fp(2, 7)})
    assert mixed.terms == {(1, 0): Fp(3, 7), (0, 1): Fp(2, 7)}
    assert all(c.__class__ is Fp for c in mixed.terms.values())
    assert Form(PRIMAL, 2, 1, {(1, 0): 14, (0, 1): Fp(2, 7)}).terms == {(0, 1): Fp(2, 7)}


def test_fp_form_equals_the_int_form_with_the_same_residues():
    assert Form.linear(PRIMAL, [Fp(1, 7), Fp(3, 7)]) == Form.linear(PRIMAL, [1, 3])
    assert Form.linear(PRIMAL, [1, 3]) == Form.linear(PRIMAL, [Fp(1, 7), Fp(3, 7)])
    assert Form.linear(PRIMAL, [Fp(1, 7), Fp(3, 7)]) == Form.linear(PRIMAL, [8, 3])
    assert Form.linear(PRIMAL, [Fp(1, 7), Fp(3, 7)]) != Form.linear(PRIMAL, [1, 4])
    assert Form.linear(PRIMAL, [Fp(1, 7), Fp(3, 7)]) != Form.linear(PRIMAL, [Fp(1, 11), Fp(3, 11)])
    # a form with no terms has no prime, over any field
    zero = Form.linear(PRIMAL, [Fp(1, 7), 0]) * 7
    assert zero.is_zero() and not zero and zero.prime is None
    assert zero == Form.zero(PRIMAL, 2, 1) == Form.linear(PRIMAL, [Fp(0, 11), 0])


@pytest.fixture
def fp_made(monkeypatch):
    """A list whose length counts the `Fp` objects made since it was cleared."""
    made, init = [], Fp.__init__

    def counting(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fp, "__init__", counting)
    return made


@pytest.mark.parametrize("p", [101, DEFAULT_PRIME])
def test_apolarity_hot_paths_make_no_fp(fp_made, p):
    rng = random.Random(f"no-fp:{p}")
    n1, d = 3, 4
    pts = [tuple(Fp(rng.randrange(1, p), p) for _ in range(n1)) for _ in range(6)]
    weights = [Fp(rng.randrange(1, p), p) for _ in pts]
    lines = [Form.linear(PRIMAL, pt) for pt in pts]
    fp_made.clear()
    powers = [line ** d for line in lines]
    F = powers[0] * weights[0]
    for power, w in zip(powers[1:], weights[1:]):
        F = F + power * w
    product = lines[0] * lines[1]
    assert not fp_made and F.prime == p and product.prime == p
    gens = [g for j in range(1, d + 1) for g in point_ideal_piece(pts, j, n1)]
    assert len(gens) > 10 and all(annihilates(g, F) for g in gens)
    assert not fp_made
    deco = solve_waring(pts, F)
    assert len(fp_made) == len(deco.coefficients) == len(pts)
    assert deco.coefficients == weights
    fp_made.clear()
    assert deco.residual(F).is_zero() and not fp_made
    # reading `.terms` builds the view once
    assert len(F.terms) == len(fp_made) > 0
    F.terms
    assert len(fp_made) == len(F.terms)
