"""Existence of an apolar star configuration for the generic degree-d form:
the parameter-count necessary condition, the closed-form classification,
and the randomized Jacobian rank test that certifies the remaining cases.

The rank test evaluates the polynomial map sending hyperplane coefficients
and mixing weights (a, alpha) to the coefficient vector of the weighted
power sum  sum_i alpha_i * L_i^d,  where the L_i are the configuration
points built from the a's by signed minors.  Differentiating through the
whole composite with jet arithmetic gives the exact Jacobian over F_p; a
full-rank evaluation at one random point certifies that the map dominates
the space of degree-d forms (a nonzero minor mod p certifies a nonzero
minor in characteristic zero), while a rank deficit at one prime and seed
is recorded as evidence only.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from math import comb

from . import linalg
from .field import (DEFAULT_PRIME, DEFAULT_SEED, Fp, Jet, constant_part,
                    random_scalar)
from .poly import linear_power_coefficients, monomial_basis
from .starconfig import (RESAMPLE_BUDGET, DegenerateIntersectionError,
                         _points_from_coeff_rows, general_position_violation)

# the five below-threshold triples (d, r, n) tabulated as existence cases
EXCEPTIONAL_TRIPLES = frozenset({(3, 5, 3), (4, 6, 3), (5, 7, 3), (3, 6, 4), (3, 7, 5)})


class DegenerateParametersError(RuntimeError):
    """The drawn parameter point fails general position; resample it."""


class ResampleBudgetError(RuntimeError):
    """Too many degenerate draws in a row (astronomically unlikely over a
    large prime unless something is wrong)."""


def _validate_triple(d: int, r: int, n: int):
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if r < n:
        raise ValueError(f"need r >= n, got r={r}, n={n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")


def rho(d: int, r: int, n: int) -> int:
    """Parameter count C(r,n) + n*r - C(d+n,d); negative means no apolar
    configuration of r hyperplanes can exist for the generic form."""
    _validate_triple(d, r, n)
    return comb(r, n) + n * r - comb(d + n, d)


def rho_n2(d: int, r: int) -> int:
    """The n=2 specialization (r(r-1) + 4r - (d+2)(d+1)) / 2, exactly."""
    if r < 2:
        raise ValueError(f"need r >= 2 in the plane, got r={r}")
    num = r * (r - 1) + 4 * r - (d + 2) * (d + 1)
    if num % 2:
        raise ArithmeticError("parity violation in the n=2 count")
    return num // 2


class Verdict(str, Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    CONJECTURAL_EXISTS = "ConjecturalExists"
    UNDETERMINED = "Undetermined"


@dataclass
class ClassificationVerdict:
    """Closed-form answer for a triple, tagged with the rule that fired."""

    verdict: Verdict
    rule: str
    note: str = ""

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict.value, "rule": self.rule, "note": self.note}


def classify(d: int, r: int, n: int) -> ClassificationVerdict:
    """Decide existence of an apolar star configuration for the generic
    degree-d form in n+1 variables, as a pure function of (d, r, n).

    Rules, in order: binary forms are out of scope; degree one is out of
    scope below the degree bound; quadrics exist iff r >= n + 1; r >= d + n
    always suffices (the configuration ideal starts in degree r - n + 1 >
    d, where the annihilator is everything); below that threshold the
    parameter count is negative except for five exceptional triples, and
    in the plane the boundary family r = d + 1 is conjectural (verified
    computationally through degree 13).
    """
    _validate_triple(d, r, n)
    if n == 1:
        return ClassificationVerdict(
            Verdict.UNDETERMINED, "binary-forms-out-of-scope",
            "the classification covers n >= 2 only")
    if d == 1:
        if r >= d + n:
            return ClassificationVerdict(Verdict.EXISTS, "ideal-degree-bound")
        return ClassificationVerdict(
            Verdict.UNDETERMINED, "degree-one-out-of-scope",
            "the classification covers d >= 2 only")
    if d == 2:
        if r >= n + 1:
            return ClassificationVerdict(Verdict.EXISTS, "quadric-threshold")
        return ClassificationVerdict(
            Verdict.NOT_EXISTS, "quadric-threshold",
            "a generic quadric needs n + 1 independent points")
    if r >= d + n:
        return ClassificationVerdict(Verdict.EXISTS, "ideal-degree-bound")
    if n >= 6:
        return ClassificationVerdict(
            Verdict.NOT_EXISTS, "parameter-count",
            f"rho = {rho(d, r, n)} < 0")
    if n in (3, 4, 5):
        if (d, r, n) in EXCEPTIONAL_TRIPLES:
            return ClassificationVerdict(
                Verdict.EXISTS, "exceptional-triple",
                "tabulated below-threshold entry; cross-check with the rank test")
        return ClassificationVerdict(
            Verdict.NOT_EXISTS, "parameter-count",
            f"rho = {rho(d, r, n)} < 0")
    # n == 2
    if r <= d:
        return ClassificationVerdict(
            Verdict.NOT_EXISTS, "parameter-count",
            f"rho = {rho(d, r, n)} < 0")
    return ClassificationVerdict(
        Verdict.CONJECTURAL_EXISTS, "ternary-conjecture",
        "verified computationally for d <= 13" if d <= 13
        else "open; verified computationally only for d <= 13")


# ---------------------------------------------------------------------------
# the coefficient map and its Jacobian


def parameter_count(d: int, r: int, n: int) -> int:
    """Number of map parameters: (n+1) per hyperplane plus one weight per
    configuration point."""
    _validate_triple(d, r, n)
    return (n + 1) * r + comb(r, n)


def gamma_coefficients(d: int, r: int, n: int, params):
    """Coefficient vector of  sum_i alpha_i * L_i^d  over the degree-d basis.

    ``params`` holds, per hyperplane k = 0..r-1, its n+1 coefficients
    a_{0,k}..a_{n,k}, followed by one weight per n-subset in subset order.
    Works over any commutative scalars with the field ops (prime-field
    elements, rationals, jets); general position is certified on the value
    parts, and a degenerate draw raises
    :class:`DegenerateParametersError` so the caller can resample.
    """
    _validate_triple(d, r, n)
    m = parameter_count(d, r, n)
    params = list(params)
    if len(params) != m:
        raise ValueError(f"expected {m} parameters, got {len(params)}")
    rows = [params[k * (n + 1):(k + 1) * (n + 1)] for k in range(r)]
    value_rows = [[constant_part(a) for a in row] for row in rows]
    for k, row in enumerate(value_rows):
        if not any(row):
            raise DegenerateParametersError(f"hyperplane {k} degenerated to zero")
    violation = general_position_violation(value_rows)
    if violation is not None:
        raise DegenerateParametersError(
            f"hyperplanes {violation} lost general position")
    try:
        points = _points_from_coeff_rows(rows, n)
    except DegenerateIntersectionError as exc:
        raise DegenerateParametersError(str(exc)) from exc
    alphas = params[(n + 1) * r:]
    size = len(monomial_basis(n + 1, d))
    out = [0] * size
    for alpha, pt in zip(alphas, points):
        if not alpha:
            continue
        powers = linear_power_coefficients(pt.coords, d)
        for i, c in enumerate(powers):
            if c:
                out[i] = out[i] + alpha * c
    return out


def _draw_parameter_values(d, r, n, prime, rng):
    """Random parameter point over F_p (a's, then alphas), uncertified:
    `jacobian_matrix` raises :class:`DegenerateParametersError` on a bad one."""
    return [random_scalar(rng, prime) for _ in range(parameter_count(d, r, n))]


def jacobian_matrix(d: int, r: int, n: int, values):
    """Exact Jacobian of the coefficient map at the given F_p point, as an
    integer matrix with one row per parameter (m x C(n+d,d)).

    Every parameter is promoted to a jet carrying a unit gradient, so one
    evaluation of the map yields all partial derivatives at once.
    """
    m = len(values)
    jets = [Jet.seed(v, k, m) for k, v in enumerate(values)]
    coeffs = gamma_coefficients(d, r, n, jets)
    rows = [[0] * len(coeffs) for _ in range(m)]
    for i, c in enumerate(coeffs):
        if isinstance(c, Jet):
            for k, g in enumerate(c.grad):
                rows[k][i] = g.value if isinstance(g, Fp) else int(g)
    return rows


def _jacobian_at_random_point(d, r, n, prime, rng):
    """Jacobian at a fresh random point, redrawn while the draw is degenerate."""
    for _ in range(RESAMPLE_BUDGET):
        try:
            return jacobian_matrix(d, r, n, _draw_parameter_values(d, r, n, prime, rng))
        except DegenerateParametersError:
            continue
    raise ResampleBudgetError(
        f"{RESAMPLE_BUDGET} degenerate draws in a row for (d,r,n)="
        f"({d},{r},{n}) over p={prime}")


@dataclass
class JacobianTestReport:
    """Outcome of the randomized rank test; records prime and seed so a
    verdict is reproducible and auditable."""

    d: int
    r: int
    n: int
    m: int
    target: int
    prime: int
    seed: int
    trials: int
    rank: int
    verdict: str
    elapsed_ms: int
    note: str = ""

    @property
    def rank_full(self) -> bool:
        return self.rank == self.target

    def to_json_dict(self) -> dict:
        return {
            "d": self.d, "r": self.r, "n": self.n,
            "m": self.m, "target": self.target,
            "prime": self.prime, "seed": self.seed, "trials": self.trials,
            "rank": self.rank, "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms, "note": self.note,
        }


def jacobian_rank_test(d: int, r: int, n: int, prime: int = DEFAULT_PRIME,
                       seed: int = DEFAULT_SEED, trials: int = 3) -> JacobianTestReport:
    """Max Jacobian rank over independently seeded random trials.

    Full rank at any trial certifies existence for the generic form (the
    witness minor is nonzero in characteristic zero as well); staying below
    the target is one-sided evidence of nonexistence, never proof, which is
    why the report carries the prime and seed.  Trial t owns the stream
    seeded with seed + t, so trials are independent and order-insensitive.
    """
    _validate_triple(d, r, n)
    linalg.check_modulus(prime)
    if trials < 1:
        raise ValueError("need at least one trial")
    m = parameter_count(d, r, n)
    target = comb(n + d, d)
    start = time.perf_counter()
    best = 0
    for t in range(trials):
        rows = _jacobian_at_random_point(d, r, n, prime, random.Random(seed + t))
        # plain ints mod p carry no modulus, so rank them with the mod-p kernel
        best = max(best, linalg.rank_mod(rows, prime))
        if best == target:
            break
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    full = best == target
    return JacobianTestReport(
        d=d, r=r, n=n, m=m, target=target, prime=prime, seed=seed,
        trials=trials, rank=best, verdict="RankFull" if full else "RankDeficient",
        elapsed_ms=elapsed_ms,
        note=("full rank at one point certifies the generic statement" if full
              else "rank deficit at this prime and seed is evidence of "
                   "nonexistence, not proof"),
    )
