"""Existence of an apolar star configuration for the generic degree-d form:
the parameter-count necessary condition, the closed-form classification,
and the randomized Jacobian rank test that certifies the remaining cases.

The rank test takes the polynomial map sending hyperplane coefficients
and mixing weights (a, alpha) to the coefficient vector of the weighted
power sum  sum_i alpha_i * L_i^d,  where the L_i are the configuration
points built from the a's by signed minors.  Its exact Jacobian over F_p
is assembled by the chain rule (the tangent directions of a sum of
powers, as in Terracini's lemma) in int64 arrays mod p, with the
derivatives of the points read off signed cofactors; `gamma_coefficients`
stays the generic map, which the tests differentiate independently.  A
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
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .field import (DEFAULT_PRIME, DEFAULT_SEED, INT64_PRIME_LIMIT,
                    random_scalar, residue_rows)
from .poly import (linear_power_coefficients, monomial_basis, multinomial,
                   shift_table)
from .starconfig import (RESAMPLE_BUDGET, StarPoint, _points_from_coeff_rows,
                         general_position_violation)

# the below-threshold triples (d, r, n) with rho >= 0: four existence cases,
# and one defective case with the generic Jacobian rank of its map
EXCEPTIONAL_TRIPLES = frozenset({(3, 5, 3), (4, 6, 3), (5, 7, 3), (3, 6, 4)})
DEFECTIVE_TRIPLES = {(3, 7, 5): 55}
# the plane family (d, d+1, 2) reaches full Jacobian rank for 3 <= d <= this
# degree; acceptance criterion 4 checks the whole range
PLANE_VERIFIED_DEGREE = 13
# int64 cells C(r,n) * (n+1) * C(n+d,d) of the largest array the Jacobian
# assembly holds (2^25 cells, 256 MiB); the plane family fits up to d = 80
MAX_JACOBIAN_CELLS = 2**25


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


def _power_table(points, degree: int, p: int):
    """Coefficient vectors of (P_0 x_0 + ... + P_n x_n)^degree mod p, one row
    per row P of the int64 residue array ``points``: multinomial times
    monomial value, read off a power table per coordinate, with every
    product reduced mod p before the next is taken."""
    basis = monomial_basis(points.shape[1], degree)
    exps = np.array(basis, dtype=np.int64)
    pows = np.ones(points.shape + (degree + 1,), dtype=np.int64)
    for e in range(1, degree + 1):
        pows[:, :, e] = pows[:, :, e - 1] * points % p
    table = np.array([multinomial(degree, e) % p for e in basis], dtype=np.int64)
    for j in range(points.shape[1]):
        table = table * pows[:, j, exps[:, j]] % p
    return table


def _cofactor_tables(rows, n: int, p: int):
    """The (n-1)-subsets U of the hyperplane rows, each with its table E_U mod p.

    Let S = U + {k} have k in position q.  The Cramer coordinate P_{S,j} is
    multilinear in the rows, and d P_{S,j} / d a_{k,i} = (-1)^q E_U[i, j]:
    the signed maximal minor of U's rows on the columns other than i and j,
    with E_U antisymmetric and zero on the diagonal.  One `linalg.minors`
    pass per U serves every set S that contains it.
    """
    full = (1 << (n + 1)) - 1
    subsets = list(combinations(range(len(rows)), n - 1))
    tables = np.zeros((len(subsets), n + 1, n + 1), dtype=np.int64)
    for u, sub in enumerate(subsets):
        found = linalg.minors([rows[k] for k in sub])
        for i, j in combinations(range(n + 1), 2):
            minor = found.get(full ^ (1 << i) ^ (1 << j), 0)
            if (i + j) % 2:
                minor = -minor
            tables[u, i, j] = minor % p
            tables[u, j, i] = -minor % p
    return subsets, tables


def jacobian_matrix(d: int, r: int, n: int, values):
    """Exact Jacobian of the coefficient map at the given F_p point, as a
    matrix of Python ints in [0, p) with one row per parameter
    (m x C(n+d,d)).

    A prime p >= 2^31 raises ``ValueError``, and a point whose hyperplanes
    fail general position raises :class:`DegenerateParametersError` before
    any Jacobian entry is formed.  The rows come from the chain rule, in
    int64 arrays mod p for all C(r, n) points at once: the row of the
    weight alpha_S is the coefficient vector of P_S^d, and the row of the
    hyperplane coefficient a_{k,i} is

        sum over S containing k of  d alpha_S sum_j (d P_{S,j} / d a_{k,i})
                                                  * coeff(x_j P_S^(d-1)),

    with the cofactors d P_{S,j} / d a_{k,i} from `_cofactor_tables`.  The
    points themselves are P_S = a_k . (d P_S / d a_k) for the first k in S;
    general position is read off their residues (`Fp` times int reduces
    mod p), so a draw takes one `linalg.minors` pass per (n-1)-subset.
    """
    hyperplanes = _hyperplane_rows(d, r, n, values)
    p, (params,) = residue_rows([values])
    if p is None:
        raise ValueError("the Jacobian is taken at a point over F_p")
    if p >= INT64_PRIME_LIMIT:
        raise ValueError(f"prime {p} too large for the int64 Jacobian (need p < 2^31)")
    params = np.array(params, dtype=np.int64)
    coeffs = params[:(n + 1) * r].reshape(r, n + 1)
    # Python ints, so a minor cannot overflow before its reduction mod p
    subsets, tables = _cofactor_tables(coeffs.tolist(), n, p)
    where = {sub: u for u, sub in enumerate(subsets)}
    point_sets = list(combinations(range(r), n))
    sets = np.array(point_sets, dtype=np.int64)
    # cofactor[q][s] = d P_S / d a_k for k = S[q], as an (i, j) table
    cofactor = []
    for q in range(n):
        table = tables[[where[S[:q] + S[q + 1:]] for S in point_sets]]
        cofactor.append(-table % p if q % 2 else table)
    points = np.zeros((len(sets), n + 1), dtype=np.int64)
    for i in range(n + 1):
        points = (points + coeffs[sets[:, 0], i, None] * cofactor[0][:, i, :] % p) % p
    stars = [StarPoint(S, tuple(pt)) for S, pt in zip(point_sets, points.tolist())]
    violation = general_position_violation(hyperplanes, stars)
    if violation is not None:
        raise DegenerateParametersError(
            f"hyperplanes {violation} lost general position")
    size = comb(n + d, d)
    # the tangent along P_j is d x_j P^(d-1); fold in the weight alpha_S too
    weights = d * params[(n + 1) * r:] % p
    lower = _power_table(points, d - 1, p) * weights[:, None] % p
    shifts = shift_table(n + 1, 1, d - 1)
    # an entry of grads sums one residue per point through k, far fewer
    # than 2^32 for any point set that fits in memory, so int64 holds it
    grads = np.zeros((r, n + 1, size), dtype=np.int64)
    for q in range(n):
        block = np.zeros((len(sets), n + 1, size), dtype=np.int64)
        for j, cols in enumerate(shifts):
            block[:, :, cols] += cofactor[q][:, :, j, None] * lower[:, None, :] % p
        np.add.at(grads, sets[:, q], block % p)
    return np.concatenate([grads.reshape(-1, size) % p,
                           _power_table(points, d, p)]).tolist()


def _jacobian_at_random_point(d, r, n, prime, rng):
    """Jacobian at a fresh random point, redrawn while the draw is degenerate;
    returns it with the number of degenerate draws before it."""
    for resamples in range(RESAMPLE_BUDGET):
        try:
            values = _draw_parameter_values(d, r, n, prime, rng)
            return jacobian_matrix(d, r, n, values), resamples
        except DegenerateParametersError:
            continue
    raise ResampleBudgetError(
        f"{RESAMPLE_BUDGET} degenerate draws in a row for (d,r,n)="
        f"({d},{r},{n}) over p={prime}")


@dataclass
class JacobianTestReport:
    """Outcome of the randomized rank test; records prime and seed so a
    verdict is reproducible and auditable, the rank of each trial that ran
    (``trial_ranks``; full rank stops the test early) and the number of
    degenerate draws redrawn over all trials (``resamples``)."""

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
    trial_ranks: list
    resamples: int
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
            "trial_ranks": self.trial_ranks, "resamples": self.resamples,
            "elapsed_ms": self.elapsed_ms, "note": self.note,
        }


def check_rank_test(d: int, r: int, n: int, prime: int, trials: int):
    """Raise ``ValueError`` unless `jacobian_rank_test` accepts these
    inputs: a valid triple, a prime below 2^31, at least one trial, and a
    Jacobian whose assembly stays within ``MAX_JACOBIAN_CELLS`` int64 cells."""
    _validate_triple(d, r, n)
    linalg.check_modulus(prime)
    if trials < 1:
        raise ValueError("need at least one trial")
    cells = comb(r, n) * (n + 1) * comb(n + d, d)
    if cells > MAX_JACOBIAN_CELLS:
        raise ValueError(f"(d,r,n)=({d},{r},{n}) needs {cells} int64 cells for its "
                         f"Jacobian, over the limit of {MAX_JACOBIAN_CELLS}")


def jacobian_rank_test(d: int, r: int, n: int, prime: int = DEFAULT_PRIME,
                       seed: int = DEFAULT_SEED, trials: int = 3) -> JacobianTestReport:
    """Max Jacobian rank over independently seeded random trials.

    Full rank at any trial certifies existence for the generic form (the
    witness minor is nonzero in characteristic zero as well); staying below
    the target is one-sided evidence of nonexistence, never proof, which is
    why the report carries the prime and seed.  Trial t owns the stream
    seeded with the string "seed:d:r:n:t", which `random.Random` hashes
    with SHA-512, so no two (seed, triple, trial) share a stream and no
    draw depends on PYTHONHASHSEED.  Inputs are checked by `check_rank_test`
    before the first draw.
    """
    check_rank_test(d, r, n, prime, trials)
    m = parameter_count(d, r, n)
    target = comb(n + d, d)
    start = time.perf_counter()
    trial_ranks, resamples = [], 0
    for t in range(trials):
        rng = random.Random(f"{seed}:{d}:{r}:{n}:{t}")
        rows, redrawn = _jacobian_at_random_point(d, r, n, prime, rng)
        resamples += redrawn
        # plain ints mod p carry no modulus, so rank them with the mod-p kernel
        trial_ranks.append(linalg.rank_mod(rows, prime))
        if trial_ranks[-1] == target:
            break
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    best = max(trial_ranks)
    full = best == target
    return JacobianTestReport(
        d=d, r=r, n=n, m=m, target=target, prime=prime, seed=seed,
        trials=trials, rank=best, verdict="RankFull" if full else "RankDeficient",
        elapsed_ms=elapsed_ms, trial_ranks=trial_ranks, resamples=resamples,
        note=("full rank at one point certifies the generic statement" if full
              else "rank deficit at this prime and seed is evidence of "
                   "nonexistence, not proof"),
    )
