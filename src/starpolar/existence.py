"""Existence of an apolar star configuration for the generic degree-d form:
the parameter-count necessary condition, the closed-form classification
of every triple, and the randomized Jacobian rank test that cross-checks it.
Below the degree bound `classify` has one rule, proved in its docstring:
Exists iff r = d + n - 1 and rho >= 0, (3, 7, 5) apart.

The rank test takes the polynomial map sending hyperplane coefficients
and mixing weights (a, alpha) to the coefficient vector of the weighted
power sum  sum_i alpha_i * L_i^d,  where the L_i are the configuration
points built from the a's by signed minors.  Its exact Jacobian over F_p
is assembled by the chain rule (the tangent directions of a sum of
powers, as in Terracini's lemma) in int64 arrays mod p, from the points,
cofactor tables and face index of `starconfig.cramer_table`, one batched
cofactor pass mod p per draw; `gamma_coefficients` stays the generic map,
which the tests differentiate independently.  A draw whose hyperplanes
fail general position raises `starconfig.GeneralPositionError`, and
`starconfig.redraw` draws again.
A full-rank evaluation at one random point certifies that the map
dominates the space of degree-d forms (a nonzero minor mod p certifies a
nonzero minor in characteristic zero), while a rank deficit at one prime
and seed is recorded as evidence only.
No draw can exceed m - r, since the r hyperplane rescalings lie in the
left kernel of every Jacobian, nor n + 1 when r = n, so the test stops at
the first trial that reaches that ceiling (`_rank_ceiling`).

Below the degree bound, r <= d + n - 1, the same draws are ranked through
a much smaller matrix, `incidence_matrix` M.  The star configuration's ideal
is generated by the C(r, n-1) products of r - n + 1 of the hyperplanes
(Geramita-Harbourne-Migliore), and the configuration is apolar to the form
iff every degree-d multiple mu * prod_{i in T} l_i kills it (the apolarity
lemma; Iarrobino-Kanev).  Differentiating these conditions along the
hyperplanes gives rank J = C(r, n) + rank M at every draw with p > d,
zero weights included, as the boundary proof of `classify` needs.
So `jacobian_rank_test` ranks M below the bound and J at and above it
(`_route`), each under its own size rule (`check_incidence_matrix`,
`check_jacobian_size`); J stays the oracle of the identity.  M takes its
weights w_S from `starconfig.star_weights`, the scan that certifies the
draw, and this module evaluates no hyperplane itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, fields
from decimal import Decimal  # prints ints past sys.get_int_max_str_digits()
from enum import Enum
from math import comb

import numpy as np

from . import linalg
from .field import DEFAULT_PRIME, DEFAULT_SEED, random_scalar, residue_rows
from .poly import (linear_power_coefficients, linear_power_table, monomial_basis,
                   monomial_table, shift_table)
from .starconfig import (GeneralPositionError, ResampleBudgetError,  # noqa: F401, re-export
                         _points_from_coeff_rows, cramer_table,
                         general_position_violation, redraw, star_weights)

# (3, 7, 5) has rho = 0, but the generic Jacobian rank of its map is 55 < 56
DEFECTIVE_TRIPLES = {(3, 7, 5): 55}
# int64 cells of the largest array a draw holds (2^25 cells, 256 MiB): the
# Jacobian's C(r,n) * (n+1) * C(n+d,d), or for M `check_incidence_matrix`'s
# count; the plane family (d, d+1, 2), ranked through M, fits up to d = 405.
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

    Rules, in order: binary forms (n = 1) exist iff 2r >= d + 1, at least
    Sylvester's generic rank (apolar points may carry zero weights); for
    d = 1 the one star point of r = n hyperplanes can be L itself; quadrics
    exist iff r >= n + 1; r >= d + n always suffices (the configuration
    ideal starts in degree r - n + 1 > d); (3, 7, 5), where rho = 0 but an
    integer normal vector certifies generic rank 55 < 56, does not; the
    rest exist iff r = d + n - 1 and rho >= 0.  As rho(r + 1) - rho(r) =
    C(r, n-1) + n > 0 and rho(d + n - 2) < 0 for d >= 3, rho < 0 below that
    boundary.  On it rho = n r - C(r, n-1), which is r for n = 2 and, for
    n >= 3, >= 0 only at (3,5,3), (4,6,3), (5,7,3), (3,6,4) and (3,7,5);
    at each existing cell M has full rank at a point weighted on a support
    (README, "The boundary r = d + n - 1"), a cycle of the lines for n = 2.
    """
    _validate_triple(d, r, n)
    if n == 1:
        return ClassificationVerdict(
            Verdict.EXISTS if 2 * r >= d + 1 else Verdict.NOT_EXISTS, "binary-sylvester",
            f"the generic binary form of degree {Decimal(d)} has Waring rank "
            f"{Decimal((d + 2) // 2)}")
    if d == 1 and r == n:
        return ClassificationVerdict(Verdict.EXISTS, "linear-point")
    if d == 2:
        if r >= n + 1:
            return ClassificationVerdict(Verdict.EXISTS, "quadric-threshold")
        return ClassificationVerdict(
            Verdict.NOT_EXISTS, "quadric-threshold",
            "a generic quadric needs n + 1 independent points")
    if r >= d + n:
        return ClassificationVerdict(Verdict.EXISTS, "ideal-degree-bound")
    if (d, r, n) in DEFECTIVE_TRIPLES:
        return ClassificationVerdict(
            Verdict.NOT_EXISTS, "certified-defective",
            f"rho = {rho(d, r, n)}, but the generic Jacobian rank is "
            f"{DEFECTIVE_TRIPLES[d, r, n]} < {comb(n + d, d)}")
    count = rho(d, r, n)
    if r == d + n - 1 and count >= 0:
        return ClassificationVerdict(
            Verdict.EXISTS, "boundary-support",
            f"rho = {Decimal(count)} >= 0 on the boundary r = d + n - 1; M has full "
            "rank at a point weighted on a support; proof in README")
    return ClassificationVerdict(
        Verdict.NOT_EXISTS, "parameter-count", f"rho = {Decimal(count)} < 0")


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


def _int64_point(d: int, r: int, n: int, values, matrix: str):
    """(p, params, rows) of a parameter point over F_p, read as int
    residues; ``matrix`` names what is taken there, in the error.  A prime
    of 2^31 or more is refused by `cramer_table`, before any product."""
    p, (params,) = residue_rows([values])
    if p is None:
        raise ValueError(f"the {matrix} is taken at a point over F_p")
    return p, params, _hyperplane_rows(d, r, n, params)


def jacobian_matrix(d: int, r: int, n: int, values):
    """Exact Jacobian of the coefficient map at the given F_p point, as an
    int64 array of residues in [0, p) with one row per parameter
    (m x C(n+d,d)).

    A triple over `check_jacobian_size` or a prime p >= 2^31 raises
    ``ValueError`` before anything is allocated, and a point whose
    hyperplanes fail general position (`general_position_violation`, on
    the residues of the rows and points) raises `GeneralPositionError`,
    naming the witness subset, before any Jacobian entry is formed.  The
    rows come from the chain rule, in int64 arrays mod p for all C(r, n)
    points at once: the row of the weight alpha_S is the coefficient vector
    of P_S^d, and the row of the hyperplane coefficient a_{k,i} is

        sum over S containing k of  d alpha_S sum_j (d P_{S,j} / d a_{k,i})
                                                  * coeff(x_j P_S^(d-1)),

    with the points P_S and, for k = S[q], the cofactors d P_{S,j} / d a_{k,i}
    gathered from the face tables of the int64 `starconfig.cramer_table`.
    """
    check_jacobian_size(d, r, n)
    p, params, rows = _int64_point(d, r, n, values, "Jacobian")
    tables, points, sets, faces = cramer_table(rows, p)
    violation = general_position_violation(p, rows, points)
    if violation is not None:
        raise GeneralPositionError(violation)
    size = comb(n + d, d)
    # the tangent along P_j is d x_j P^(d-1); fold in the weight alpha_S too
    weights = d * np.array(params[(n + 1) * r:], dtype=np.int64) % p
    lower = linear_power_table(points, d - 1, p) * weights[:, None] % p
    shifts = shift_table(n + 1, 1, d - 1)
    # an entry of grads sums one residue per point through k, far fewer
    # than 2^32 for any point set that fits in memory, so int64 holds it
    grads = np.zeros((r, n + 1, size), dtype=np.int64)
    for q in range(n):
        cofactor = tables[faces[:, q]]
        if q % 2:
            cofactor = -cofactor % p
        block = np.zeros((len(sets), n + 1, size), dtype=np.int64)
        for j, cols in enumerate(shifts):
            block[:, :, cols] += cofactor[:, :, j, None] * lower[:, None, :] % p
        np.add.at(grads, sets[:, q], block % p)
    return np.concatenate([grads.reshape(-1, size) % p,
                           linear_power_table(points, d, p)])


def _rank_ceiling(target: int, m: int, r: int, n: int) -> int:
    """A bound on the rank of every Jacobian draw: min(target, m - r), and
    min(target, n + 1) when r = n.

    Rescaling a_k -> t a_k and alpha_S -> t^-d alpha_S for every S containing
    k fixes the form, since P_S is linear in each row.  So the vector with
    a_k on k's coefficient block and -d alpha_S on each such alpha_S is in
    the left kernel of the Jacobian, over Z and mod p alike.  General
    position allows no zero row, and these r vectors have disjoint blocks,
    so they are independent.

    When r = n there is one point P and the form is alpha P^d.  The row of
    alpha is P^d = sum_j P_j x_j P^(d-1), and the row of a_{k,i} is
    d alpha sum_j (d P_j / d a_{k,i}) x_j P^(d-1), so every row lies in the
    span of the n + 1 forms x_j P^(d-1), while m - r = n^2 + 1.
    """
    return min(target, n + 1 if r == n else m - r)


@dataclass
class JacobianTestReport:
    """Outcome of the randomized rank test; records prime and seed so a
    verdict is reproducible and auditable, the rank of each trial that ran
    (``trial_ranks``; a trial that reaches ``expected_rank``, which no
    trial can exceed, stops the test), the number of degenerate draws
    redrawn over all trials (``resamples``) and the matrix each draw ranked
    (``route``, `_route`): "incidence", the matrix M of `incidence_matrix`,
    whose rank plus C(r, n) is the Jacobian's at the same draw, or
    "jacobian", the tangent Jacobian itself.  It stores only what was
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
    route: str

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
        min(target, m - r), or min(target, n + 1) when r = n (`_rank_ceiling`)."""
        return _rank_ceiling(self.target, self.m, self.r, self.n)

    @property
    def defect(self) -> int:
        """How far the rank falls short of `expected_rank`: 0 when a deficit
        is forced by rho < 0, positive on a genuinely defective triple."""
        return self.expected_rank - self.rank

    def to_json_dict(self) -> dict:
        """The fields in declaration order, ``trial_ranks`` as a copy, then the
        derived values; shallow, where `dataclasses.asdict` copies deeply."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["trial_ranks"] = list(self.trial_ranks)
        return {**out, "expected_rank": self.expected_rank,
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


def _route(d: int, r: int, n: int) -> str:
    """The matrix the rank test ranks: M below the degree bound, else J."""
    return "incidence" if r <= d + n - 1 else "jacobian"


def _check_pairing_prime(d: int, p: int):
    """Refuse p <= d, where a rank deficit could come from the prime."""
    if p <= d:
        raise ValueError(f"the rank test needs p > d, since the apolarity "
                         f"pairing carries d!; got p={p}, d={d}")


def check_rank_test(d: int, r: int, n: int, prime: int, trials: int):
    """Raise ``ValueError`` unless `jacobian_rank_test` accepts these
    inputs: a valid triple, a prime below 2^31 and above d on both routes,
    at least one trial, and the size rule of the matrix `_route` ranks:
    `check_incidence_matrix` below the degree bound, `check_jacobian_size`
    at and above it."""
    _validate_triple(d, r, n)
    linalg.check_modulus(prime)
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_pairing_prime(d, prime)
    if _route(d, r, n) == "incidence":
        check_incidence_matrix(d, r, n, prime)
    else:
        check_jacobian_size(d, r, n)


def _rank_test(d: int, r: int, n: int, prime: int, seed: int, trials: int,
               route: str) -> JacobianTestReport:
    """The trial loop of the rank test: draw, rank through ``route``'s
    matrix, and stop at the first trial that reaches the ceiling."""
    build, offset = ((jacobian_matrix, 0) if route == "jacobian"
                     else (incidence_matrix, comb(r, n)))
    m = parameter_count(d, r, n)
    target = comb(n + d, d)
    ceiling = _rank_ceiling(target, m, r, n)
    start = time.perf_counter()
    what = f"(d,r,n)=({d},{r},{n}) over p={prime}"
    trial_ranks, resamples = [], 0
    for t in range(trials):
        rng = random.Random(f"{seed}:{d}:{r}:{n}:{t}")
        rows, redrawn = redraw(lambda: build(
            d, r, n, _draw_parameter_values(d, r, n, prime, rng)), what)
        resamples += redrawn
        # an int64 array carries no modulus, so rank it with the mod-p kernel
        trial_ranks.append(offset + linalg.rank_mod(rows, prime))
        if trial_ranks[-1] == ceiling:
            break
    return JacobianTestReport(
        d=d, r=r, n=n, m=m, target=target, prime=prime, seed=seed,
        trials=trials, rank=max(trial_ranks),
        elapsed_ms=int((time.perf_counter() - start) * 1000),
        trial_ranks=trial_ranks, resamples=resamples, route=route)


def jacobian_rank_test(d: int, r: int, n: int, prime: int = DEFAULT_PRIME,
                       seed: int = DEFAULT_SEED, trials: int = 3) -> JacobianTestReport:
    """Max Jacobian rank over independently seeded random trials, stopping
    at the first trial that reaches ``expected_rank``: no trial exceeds it
    (`_rank_ceiling`), so the later trials could not change the answer.

    Below the degree bound, r <= d + n - 1, each draw's Jacobian rank is
    read as C(r, n) + rank M (`incidence_matrix`).  Full rank at any trial
    certifies existence for the generic form (the witness minor is nonzero
    in characteristic zero as well); staying below the target is one-sided
    evidence of nonexistence, never proof, which is why the report carries
    the prime and seed.  Trial t owns the stream seeded with the string
    "seed:d:r:n:t", which `random.Random` hashes with SHA-512, so no two
    (seed, triple, trial) share a stream and no draw depends on
    PYTHONHASHSEED.  Inputs are checked by `check_rank_test` before the
    first draw.
    """
    check_rank_test(d, r, n, prime, trials)
    return _rank_test(d, r, n, prime, seed, trials, _route(d, r, n))


# ---------------------------------------------------------------------------
# the incidence matrix of the star ideal's generators


def check_incidence_matrix(d: int, r: int, n: int, p: int):
    """Raise ``ValueError`` unless `incidence_matrix` is defined for (d, r, n)
    over F_p and fits: r <= d + n - 1 (above that `classify` answers in
    closed form), p > d (the apolarity pairing carries d!), and within
    ``MAX_JACOBIAN_CELLS`` int64 cells both M, C(r, n-1) C(n+e, e) r (n+1),
    and the C(r, n) r values `starconfig.star_weights` evaluates.  At r = n,
    M can be larger than the Jacobian; at (6, 6, 6) it is 18 times larger."""
    _validate_triple(d, r, n)
    if r >= d + n:
        raise ValueError(f"(d,r,n)=({d},{r},{n}) has r >= d + n, where `classify` "
                         "answers in closed form (ideal-degree-bound); the "
                         "incidence rank test covers r <= d + n - 1")
    _check_pairing_prime(d, p)
    e = d - r + n - 1
    cells = max(comb(n + e, e) * (n + 1) * comb(r, n - 1) * r, comb(r, n) * r)
    if cells > MAX_JACOBIAN_CELLS:
        raise ValueError(f"(d,r,n)=({d},{r},{n}) needs {cells} int64 cells for its "
                         f"incidence matrix, over the limit of {MAX_JACOBIAN_CELLS}")


def incidence_matrix(d: int, r: int, n: int, values):
    """The incidence matrix M of the star ideal's generators at the given
    F_p point (same parameters as `jacobian_matrix`), as an int64 array of
    residues in [0, p), for r <= d + n - 1 and p > d.

    Let e = d - r + n - 1 and c_S = alpha_S * w_S, with one weight
    w_S = prod_{i not in S} l_i(P_S) per point S.  The rows are the pairs
    (U, mu), U an (n-1)-subset in `combinations` order and mu a degree-e
    monomial; the columns are r blocks of n + 1, one per hyperplane j.  The
    block ((U, mu), j) is c_S mu(P_S) P_S with S = U + {j} for j not in U,
    and 0 for j in U: the derivative along l_j of the generator
    mu * prod_{i not in U} l_i at P_S.  At every draw with p > d,
    rank J = C(r, n) + rank M.  The points, the faces U = S minus S[q] and
    the w_S come from `starconfig` (`cramer_table`, `star_weights`, which
    certifies general position as it goes), and the inputs are checked by
    `check_incidence_matrix`, before any block is formed.
    """
    p, params, rows = _int64_point(d, r, n, values, "incidence matrix")
    check_incidence_matrix(d, r, n, p)
    tables, points, sets, faces = cramer_table(rows, p)
    weights = np.array(params[(n + 1) * r:], dtype=np.int64) * star_weights(p, rows, points) % p
    table = monomial_table(points, d - r + n - 1, p) * weights[:, None] % p
    blocks = table[:, :, None] * points[:, None, :] % p
    M = np.zeros((len(tables), table.shape[1], r, n + 1), dtype=np.int64)
    for q in range(n):
        # each (U, j) names one point S = U + {j}, so no two blocks collide
        M[faces[:, q], :, sets[:, q], :] = blocks
    return M.reshape(-1, r * (n + 1))
