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

import numpy as np

from . import linalg
from .field import DEFAULT_PRIME, DEFAULT_SEED, Jet, random_scalar
from .poly import linear_power_coefficients, monomial_basis
from .starconfig import (RESAMPLE_BUDGET, _points_from_coeff_rows,
                         general_position_violation)

# the below-threshold triples (d, r, n) with rho >= 0: four existence cases,
# and one defective case with the generic Jacobian rank of its map
EXCEPTIONAL_TRIPLES = frozenset({(3, 5, 3), (4, 6, 3), (5, 7, 3), (3, 6, 4)})
DEFECTIVE_TRIPLES = {(3, 7, 5): 55}
# the plane family (d, d+1, 2) reaches full Jacobian rank for 3 <= d <= this
# degree; acceptance criterion 4 checks the whole range
PLANE_VERIFIED_DEGREE = 13


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
    # r(r-1), 4r and (d+2)(d+1) are all even
    return (r * (r - 1) + 4 * r - (d + 2) * (d + 1)) // 2


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
    parameter count is negative except for four exceptional triples, which
    exist, and (3, 7, 5), which does not: rho = 0 there, but the coefficient
    map has generic rank 55 < 56, certified exactly in characteristic zero
    by an integer normal vector to its image; in the plane the boundary
    family r = d + 1 is conjectural (verified computationally through
    degree ``PLANE_VERIFIED_DEGREE``).
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
    if (d, r, n) in EXCEPTIONAL_TRIPLES:
        return ClassificationVerdict(
            Verdict.EXISTS, "exceptional-triple",
            "tabulated below-threshold entry; cross-check with the rank test")
    if (d, r, n) in DEFECTIVE_TRIPLES:
        return ClassificationVerdict(
            Verdict.NOT_EXISTS, "certified-defective",
            f"rho = {rho(d, r, n)}, but the generic Jacobian rank is "
            f"{DEFECTIVE_TRIPLES[d, r, n]} < {comb(n + d, d)}")
    if n == 2 and r == d + 1:
        return ClassificationVerdict(
            Verdict.CONJECTURAL_EXISTS, "ternary-conjecture",
            f"verified computationally for d <= {PLANE_VERIFIED_DEGREE}"
            if d <= PLANE_VERIFIED_DEGREE
            else f"open; verified computationally only for d <= {PLANE_VERIFIED_DEGREE}")
    return ClassificationVerdict(
        Verdict.NOT_EXISTS, "parameter-count", f"rho = {rho(d, r, n)} < 0")


# ---------------------------------------------------------------------------
# the coefficient map and its Jacobian


def parameter_count(d: int, r: int, n: int) -> int:
    """Number of map parameters: (n+1) per hyperplane plus one weight per
    configuration point."""
    _validate_triple(d, r, n)
    return (n + 1) * r + comb(r, n)


def _hyperplane_rows(d: int, r: int, n: int, params):
    """Check the parameter count and split off the r hyperplane rows."""
    m = parameter_count(d, r, n)
    if len(params) != m:
        raise ValueError(f"expected {m} parameters, got {len(params)}")
    return [params[k * (n + 1):(k + 1) * (n + 1)] for k in range(r)]


def gamma_coefficients(d: int, r: int, n: int, params):
    """Coefficient vector of  sum_i alpha_i * L_i^d  over the degree-d basis.

    ``params`` holds, per hyperplane k = 0..r-1, its n+1 coefficients
    a_{0,k}..a_{n,k}, followed by one weight per n-subset in subset order.
    Works over any commutative scalars with the field ops (prime-field
    elements, rationals, jets).  The map is defined everywhere: a
    dependent n-subset's point L_i is zero.
    """
    params = list(params)
    points = _points_from_coeff_rows(_hyperplane_rows(d, r, n, params), n)
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
    """Exact Jacobian of the coefficient map at the given F_p point, as a
    matrix of Python ints in [0, p) with one row per parameter
    (m x C(n+d,d)).

    A point whose hyperplanes fail general position raises
    :class:`DegenerateParametersError` before any jet is made.  Then
    every parameter is promoted to a jet carrying a unit gradient, so one
    evaluation of the map yields all partial derivatives at once; the
    coefficients' int64 gradients are stacked as the columns.
    """
    violation = general_position_violation(_hyperplane_rows(d, r, n, values))
    if violation is not None:
        raise DegenerateParametersError(
            f"hyperplanes {violation} lost general position")
    m = len(values)
    jets = [Jet.seed(v, k, m) for k, v in enumerate(values)]
    coeffs = gamma_coefficients(d, r, n, jets)
    zero = np.zeros(m, dtype=np.int64)
    return np.stack([c.grad if isinstance(c, Jet) else zero for c in coeffs],
                    axis=1).tolist()


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
    def expected_rank(self) -> int:
        """Generic rank if nothing beyond the r hyperplane rescalings is lost:
        min(target, m - r)."""
        return min(self.target, self.m - self.r)

    @property
    def defect(self) -> int:
        """How far the rank falls short of `expected_rank`: 0 when a deficit
        is forced by rho < 0, positive on a genuinely defective triple."""
        return self.expected_rank - self.rank

    def to_json_dict(self) -> dict:
        return {
            "d": self.d, "r": self.r, "n": self.n,
            "m": self.m, "target": self.target,
            "prime": self.prime, "seed": self.seed, "trials": self.trials,
            "rank": self.rank, "expected_rank": self.expected_rank,
            "defect": self.defect, "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms, "note": self.note,
        }


def jacobian_rank_test(d: int, r: int, n: int, prime: int = DEFAULT_PRIME,
                       seed: int = DEFAULT_SEED, trials: int = 3) -> JacobianTestReport:
    """Max Jacobian rank over independently seeded random trials.

    Full rank at any trial certifies existence for the generic form (the
    witness minor is nonzero in characteristic zero as well); staying below
    the target is one-sided evidence of nonexistence, never proof, which is
    why the report carries the prime and seed.  Trial t owns the stream
    seeded with the string "seed:d:r:n:t", which `random.Random` hashes
    with SHA-512, so no two (seed, triple, trial) share a stream and no
    draw depends on PYTHONHASHSEED.
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
        rng = random.Random(f"{seed}:{d}:{r}:{n}:{t}")
        rows = _jacobian_at_random_point(d, r, n, prime, rng)
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
