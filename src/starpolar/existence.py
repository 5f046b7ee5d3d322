"""Existence of an apolar star configuration for the generic degree-d form:
the parameter-count necessary condition, the closed-form classification,
and the randomized Jacobian rank test that certifies the remaining cases.

The rank test takes the polynomial map sending hyperplane coefficients
and mixing weights (a, alpha) to the coefficient vector of the weighted
power sum  sum_i alpha_i * L_i^d,  where the L_i are the configuration
points built from the a's by signed minors.  Its exact Jacobian over F_p
is assembled by the chain rule (the tangent directions of a sum of
powers, as in Terracini's lemma) in int64 arrays mod p, from the points
and signed cofactors of `starconfig.cramer_table`, one batched cofactor
pass mod p per draw; `gamma_coefficients` stays the generic map, which the
tests differentiate independently.  The size rule `check_jacobian_size`
refuses a triple before any array is allocated.  A draw whose hyperplanes
fail general position raises `starconfig.GeneralPositionError`, and
`starconfig.redraw` draws again.  A full-rank evaluation at one random
point certifies that the map dominates the space of degree-d forms (a
nonzero minor mod p certifies a nonzero minor in characteristic zero),
while a rank deficit at one prime and seed is recorded as evidence only.
No draw can exceed m - r, since the r hyperplane rescalings lie in the
left kernel of every Jacobian, so the test stops at the first trial that
reaches min(target, m - r).
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .field import (DEFAULT_PRIME, DEFAULT_SEED, INT64_PRIME_LIMIT,
                    random_scalar, residue_rows)
from .poly import (linear_power_coefficients, monomial_basis, monomial_table,
                   multinomial, shift_table)
from .starconfig import (GeneralPositionError, ResampleBudgetError,  # noqa: F401, re-export
                         _points_from_coeff_rows, cramer_table,
                         general_position_violation, redraw)

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
    _validate_triple(d, r, 2)
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
    for alpha, coords in zip(alphas, points):
        if not alpha:
            continue
        powers = linear_power_coefficients(coords, d)
        for i, c in enumerate(powers):
            if c:
                out[i] = out[i] + alpha * c
    return out


def _draw_parameter_values(d, r, n, prime, rng):
    """Random parameter point over F_p (a's, then alphas), uncertified:
    `jacobian_matrix` raises `GeneralPositionError` on a bad one."""
    return [random_scalar(rng, prime) for _ in range(parameter_count(d, r, n))]


def _power_table(points, degree: int, p: int):
    """Coefficient vectors of (P_0 x_0 + ... + P_n x_n)^degree mod p, one row
    per row P of the int64 residue array ``points``: the multinomials times
    the monomial values (`poly.monomial_table`)."""
    multinomials = np.array([multinomial(degree, e) % p
                             for e in monomial_basis(points.shape[1], degree)],
                            dtype=np.int64)
    return monomial_table(points, degree, p) * multinomials % p


def jacobian_matrix(d: int, r: int, n: int, values):
    """Exact Jacobian of the coefficient map at the given F_p point, as an
    int64 array of residues in [0, p) with one row per parameter
    (m x C(n+d,d)).

    A triple over `check_jacobian_size` or a prime p >= 2^31 raises
    ``ValueError`` before anything is allocated, and a point whose
    hyperplanes fail general position raises `GeneralPositionError`, naming
    the witness subset, before any Jacobian entry is formed.  The rows come
    from the chain rule, in int64 arrays mod p for all C(r, n) points at
    once: the row of the weight alpha_S is the coefficient vector of P_S^d,
    and the row of the hyperplane coefficient a_{k,i} is

        sum over S containing k of  d alpha_S sum_j (d P_{S,j} / d a_{k,i})
                                                  * coeff(x_j P_S^(d-1)),

    with the cofactors d P_{S,j} / d a_{k,i} and the points P_S from the
    int64 table `starconfig.cramer_table`, one batched cofactor pass over
    all (n-1)-subsets.  General position is certified on the residues of
    the rows and points (`general_position_violation`).
    """
    check_jacobian_size(d, r, n)
    p, (params,) = residue_rows([values])
    rows = _hyperplane_rows(d, r, n, params)
    if p is None:
        raise ValueError("the Jacobian is taken at a point over F_p")
    if p >= INT64_PRIME_LIMIT:
        raise ValueError(f"prime {p} too large for the int64 Jacobian (need p < 2^31)")
    cofactor, points = cramer_table(rows, p)
    violation = general_position_violation(p, rows, points.tolist())
    if violation is not None:
        raise GeneralPositionError(violation)
    sets = np.array(list(combinations(range(r), n)), dtype=np.int64)
    size = comb(n + d, d)
    # the tangent along P_j is d x_j P^(d-1); fold in the weight alpha_S too
    weights = d * np.array(params[(n + 1) * r:], dtype=np.int64) % p
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
                           _power_table(points, d, p)])


def _rank_ceiling(target: int, m: int, r: int) -> int:
    """min(target, m - r), a bound on the rank of every Jacobian draw.

    Rescaling a_k -> t a_k and alpha_S -> t^-d alpha_S for every S containing
    k fixes the form, since P_S is linear in each row.  So the vector with
    a_k on k's coefficient block and -d alpha_S on each such alpha_S is in
    the left kernel of the Jacobian, over Z and mod p alike.  General
    position allows no zero row, and these r vectors have disjoint blocks,
    so they are independent.
    """
    return min(target, m - r)


@dataclass
class JacobianTestReport:
    """Outcome of the randomized rank test; records prime and seed so a
    verdict is reproducible and auditable, the rank of each trial that ran
    (``trial_ranks``; a trial that reaches ``expected_rank``, which no
    trial can exceed, stops the test) and the number of degenerate draws
    redrawn over all trials (``resamples``).  It stores only what was
    measured; ``verdict``, ``note``, ``expected_rank`` and ``defect`` are
    derived from it."""

    d: int
    r: int
    n: int
    m: int
    target: int
    prime: int
    seed: int
    trials: int
    rank: int
    elapsed_ms: int
    trial_ranks: list
    resamples: int

    @property
    def verdict(self) -> str:
        return "RankFull" if self.rank == self.target else "RankDeficient"

    @property
    def note(self) -> str:
        if self.rank == self.target:
            return "full rank at one point certifies the generic statement"
        return "rank deficit at this prime and seed is evidence of nonexistence, not proof"

    @property
    def expected_rank(self) -> int:
        """Generic rank if nothing beyond the r hyperplane rescalings is lost:
        min(target, m - r) (`_rank_ceiling`)."""
        return _rank_ceiling(self.target, self.m, self.r)

    @property
    def defect(self) -> int:
        """How far the rank falls short of `expected_rank`: 0 when a deficit
        is forced by rho < 0, positive on a genuinely defective triple."""
        return self.expected_rank - self.rank

    def to_json_dict(self) -> dict:
        return {**asdict(self), "expected_rank": self.expected_rank,
                "defect": self.defect, "verdict": self.verdict, "note": self.note}


def check_jacobian_size(d: int, r: int, n: int):
    """Raise ``ValueError`` unless (d, r, n) is a valid triple whose Jacobian
    assembly stays within ``MAX_JACOBIAN_CELLS`` int64 cells, the
    C(r, n) * (n+1) * C(n+d, d) of its largest array."""
    _validate_triple(d, r, n)
    cells = comb(r, n) * (n + 1) * comb(n + d, d)
    if cells > MAX_JACOBIAN_CELLS:
        raise ValueError(f"(d,r,n)=({d},{r},{n}) needs {cells} int64 cells for its "
                         f"Jacobian, over the limit of {MAX_JACOBIAN_CELLS}")


def check_rank_test(d: int, r: int, n: int, prime: int, trials: int):
    """Raise ``ValueError`` unless `jacobian_rank_test` accepts these
    inputs: a valid triple, a prime below 2^31, at least one trial, and a
    Jacobian within `check_jacobian_size`."""
    _validate_triple(d, r, n)
    linalg.check_modulus(prime)
    if trials < 1:
        raise ValueError("need at least one trial")
    check_jacobian_size(d, r, n)


def jacobian_rank_test(d: int, r: int, n: int, prime: int = DEFAULT_PRIME,
                       seed: int = DEFAULT_SEED, trials: int = 3) -> JacobianTestReport:
    """Max Jacobian rank over independently seeded random trials, stopping
    at the first trial that reaches ``expected_rank``: no trial exceeds it
    (`_rank_ceiling`), so the later trials could not change the answer.

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
    ceiling = _rank_ceiling(target, m, r)
    start = time.perf_counter()
    what = f"(d,r,n)=({d},{r},{n}) over p={prime}"
    trial_ranks, resamples = [], 0
    for t in range(trials):
        rng = random.Random(f"{seed}:{d}:{r}:{n}:{t}")
        rows, redrawn = redraw(lambda: jacobian_matrix(
            d, r, n, _draw_parameter_values(d, r, n, prime, rng)), what)
        resamples += redrawn
        # an int64 array carries no modulus, so rank it with the mod-p kernel
        trial_ranks.append(linalg.rank_mod(rows, prime))
        if trial_ranks[-1] == ceiling:
            break
    return JacobianTestReport(
        d=d, r=r, n=n, m=m, target=target, prime=prime, seed=seed,
        trials=trials, rank=max(trial_ranks),
        elapsed_ms=int((time.perf_counter() - start) * 1000),
        trial_ranks=trial_ranks, resamples=resamples)
