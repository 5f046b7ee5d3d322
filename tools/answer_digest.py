"""Print one sha256 over the answers of a fixed, seeded set of computations.

A refactor that must not change any answer is checked by running this
script on the commit before it and on the commit after it; the two
digests must be equal.  Timings are left out.  The records cover:

- `jacobian_rank_test` reports for n = 1..5, d <= 5, r = n..d+n+1, at
  p = 101 and 2^31 - 1, with a `ResampleBudgetError` or `ValueError`
  recorded as its message;
- the bytes of `jacobian_matrix` and `incidence_matrix` at seeded
  parameter draws over p = 7, 101 and 2^31 - 1, or the error a draw raises;
- `HyperplaneSet` points, or the general-position witness, over Z, Q,
  F_3, F_7 and F_(2^31 - 1);
- the (40, 41, 2) and (80, 81, 2) rank-test reports;
- the apolarity layer on seeded power sums over F_7, F_101, F_(2^31 - 1)
  and Q: the forms, `perp_piece` bases, `point_ideal_piece` bases,
  `contract` results, `solve_waring` weights and whether the residual is
  zero, `ideal_piece_dimension` of a star configuration's product
  generators and `is_apolar_ideal_contained` against them;
- the `star --json` and `apolar-check --json` output and exit code of
  `cli.main` on seeded line sets over Z and Q, n = 2, 3 and r = n..n+4,
  one of them dependent, read from files in a temporary directory;
- `hilbert_function` on degenerate point sets over Z, Q, F_7 and
  F_(2^31 - 1): a single zero point, repeated, proportional and collinear
  points;
- both ideal-dimension routes for every t <= r on seeded line sets over
  Z, Q, F_7, F_101 and F_(2^31 - 1), n = 2, 3 and r = n..n+3, or the
  error a set raises;
- `hilbert_function` of general integer and rational line sets in P^2,
  r = 10..14, of points with an entry or a denominator of 2^63 or more,
  and of points that are distinct but equal mod 2^31 - 1;
- `point_ideal_piece` of the empty point set with a declared width;
- the bytes of the four `cramer_table` arrays and of `star_weights`, or
  the error, on seeded rows over F_7, F_101 and F_(2^31 - 1) for n = 1..7
  and r = n..n+4, with draws that hold a zero row or a dependent
  (n+1)-subset;
- the bytes of `jacobian_matrix` and `incidence_matrix` for n = 5, 6 and
  d <= 4, or the error a draw raises;
- route B (`star_ideal_dimension_by_products`, `ideal_piece_dimension`)
  where its leading-term block has edges: seeded (6, 4), (7, 4) and (7, 5)
  sets over F_(2^31 - 1) for every t <= r + 1; seeded (6, 4) and (7, 4)
  sets over F_7, F_11 and F_101, whose leading terms fall short of the
  rank; the two-variable set y0^2, y0*y1 + y1^2 and the cuspidal cubic's
  mixed-degree annihilator generators over Q and over F_p; one wide
  (14, 2) set at t = 14, 15; and seeded (5, 3) and (6, 3) sets over F_7,
  F_11, F_101 and F_(2^31 - 1) for every t <= r + 1, whose tall product
  rows route B's leading-term block takes under its f <= k0 rule;
- `WaringDecomposition` combinations, residuals against F and against F
  plus one monomial, and JSON, for n + 1 = 1..5, d = 0..7 and 1, 3 or 8
  points: `solve_waring`'s answer on a seeded power sum and a
  decomposition built directly, some weights and coordinates zero, over
  F_7, F_11, F_(2^31 - 1) and Q, int points with an F_p form, F_p points
  with a Q form, int and `Fraction` points with F_p weights and F_p
  points with int weights; the empty decomposition; `waring --json`
  through `cli.main`;
- `rref_mod`, `kernel_mod` and `solve_over` over F_7, F_101 and
  F_(2^31 - 1) on seeded matrices: empty, 0 x 4, 3 x 0, 1 x 1, zero rows
  and columns, a pivot below zeros, rank-deficient, wide and tall, and
  consistent and inconsistent systems; `rank_mod` of each of these
  matrices and of its transpose;
- `rref`, `rank_over`, `kernel_over` and `solve_over` over Q on the same
  shapes of matrix, read as ints and as `Fraction`s with denominators
  1 to 3, and on rank-deficient consistent and inconsistent systems;
- `perp_piece` over Q of dense integer and rational forms in 2, 3 and 4
  variables, in every degree i <= d + 1, most of whose catalecticants
  have full column rank, and of forms whose catalecticant loses rank mod
  2^31 - 1; `point_ideal_piece` over Q of more points than monomials,
  some equal mod 2^31 - 1; `kernel_over` over Q of full-rank matrices
  with an entry 2^31 - 1;
- the `classify` verdict, rule and note of every triple with
  1 <= n <= 40, 1 <= d <= 60 and n <= r <= d + n + 2.

Arrays are hashed as little-endian int64 bytes, the same on every
platform.  `quick_records` is a subset of the records with at least one of
each kind; a tier-1 test pins its digest, so a change that alters an
answer must update that pin and say which records changed and why.

Run from the repository root, with the package under test on the path:

    PYTHONPATH=src python tools/answer_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from math import comb

import numpy as np

from starpolar import apolar, cli, existence, linalg
from starpolar.existence import (GeneralPositionError, ResampleBudgetError,
                                 incidence_matrix, jacobian_matrix, jacobian_rank_test)
from starpolar.field import DEFAULT_PRIME, Fp, scalar_from_str, scalar_to_str
from starpolar.poly import DUAL, PRIMAL, Form, format_form, monomial_basis, parse_form
from starpolar.starconfig import (HyperplaneSet, cramer_table, hilbert_function,
                                  point_ideal_piece, star_ideal_dimension_by_intersection,
                                  star_ideal_dimension_by_products, star_weights)

PRIMES = (7, 101, DEFAULT_PRIME)


def report(d, r, n, prime):
    try:
        rep = jacobian_rank_test(d, r, n, prime=prime)
    except (ResampleBudgetError, ValueError) as err:
        return ["report", d, r, n, prime, type(err).__name__, str(err)]
    data = rep.to_json_dict()
    data.pop("elapsed_ms")
    return ["report", data]


def _sha(a):
    return hashlib.sha256(a.astype("<i8").tobytes()).hexdigest()


def matrix(build, d, r, n, values):
    try:
        a = build(d, r, n, values)
    except (GeneralPositionError, ValueError) as err:
        return [build.__name__, type(err).__name__, str(err)]
    return [build.__name__, list(a.shape), _sha(a)]


def draw_record(tag, p, d, r, n, draw):
    """Both matrices of (d, r, n) at one seeded parameter draw mod p."""
    rng = random.Random(f"{tag}:{p}:{d}:{r}:{n}:{draw}")
    values = existence._draw_parameter_values(d, r, n, p, rng)
    return [d, r, n, p, draw, matrix(jacobian_matrix, d, r, n, values),
            matrix(incidence_matrix, d, r, n, values)]


def power_sum(points, weights, d):
    total = Form.zero(PRIMAL, len(points[0]), d)
    for pt, w in zip(points, weights):
        total = total + (Form.linear(PRIMAL, pt) ** d) * w
    return total


def error(err):
    return [type(err).__name__, str(err)]


def apolar_records(field, scalar, rng, ns=(1, 2, 3)):
    """Power sums over the star points of seeded hyperplane sets, and over
    random points, each read by every apolarity entry point."""
    for n in ns:
        for r in range(n, n + 4):
            try:
                hset = HyperplaneSet([[scalar() for _ in range(n + 1)] for _ in range(r)])
            except (GeneralPositionError, ValueError) as err:
                yield [field, n, r, error(err)]
                continue
            gens = hset.product_generators
            star = [pt.coords for pt in hset.points]
            loose = [tuple(scalar() for _ in range(n + 1)) for _ in range(rng.randrange(1, 6))]
            for d in (2, 3, 4):
                for pts in (star, loose):
                    F = power_sum(pts, [scalar() for _ in pts], d)
                    ops = [Form(DUAL, n + 1, e, {m: scalar() for m in monomial_basis(n + 1, e)
                                                 if rng.random() < 0.5}) for e in range(d + 2)]
                    try:
                        deco = apolar.solve_waring(pts, F)
                        waring = None if deco is None else [
                            [scalar_to_str(a) for a in deco.coefficients],
                            deco.residual(F).is_zero()]
                    except ValueError as err:
                        waring = error(err)
                    check = apolar.is_apolar_ideal_contained(gens, F)
                    yield [field, n, r, d, format_form(F),
                           [[format_form(b) for b in apolar.perp_piece(F, i).basis]
                            for i in range(d + 2)],
                           [[format_form(g) for g in point_ideal_piece(pts, j, n + 1)]
                            for j in range(d + 1)],
                           [format_form(apolar.contract(op, F)) for op in ops],
                           waring,
                           [apolar.ideal_piece_dimension(gens, t) for t in range(r - n + 3)],
                           [check.contained, str(check.failing_generator), str(check.residual)]]


def run_cli(argv):
    """Exit code, stdout and stderr of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def cli_records(rng, ns=(2, 3)):
    """`star` and `apolar-check` on seeded line sets over Z and Q, each
    checked against a power sum over its own star points and a random form."""
    fields = {"Z": lambda: rng.randint(-6, 6),
              "Q": lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lines.json")
        for field, scalar in fields.items():
            for n in ns:
                for r in range(n, n + 5):
                    rows = [[scalar() for _ in range(n + 1)] for _ in range(r)]
                    if r == n + 4:  # one dependent set per field and n
                        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump([[scalar_to_str(c) for c in row] for row in rows], fh)
                    star = run_cli(["star", "--forms", path, "--json"])
                    forms = [format_form(Form(PRIMAL, n + 1, 3, {
                        m: rng.randint(-3, 3) for m in monomial_basis(n + 1, 3)}))]
                    if star[0] == 0:
                        points = [[scalar_from_str(c) for c in pt["coords"]]
                                  for pt in json.loads(star[1])["points"]]
                        forms.append(format_form(power_sum(points, [1] * len(points), r - n + 1)))
                    yield [field, n, r, star] + [
                        run_cli(["apolar-check", "--form", f, "--forms", path, "--json"])
                        for f in forms]


def degenerate_point_sets(scalar, nv, rng):
    def point():
        return tuple(scalar(rng.randint(-4, 4)) for _ in range(nv))

    zero = tuple(scalar(0) for _ in range(nv))
    a, b, c = point(), point(), point()
    yield [zero]
    yield [a]
    yield [zero, a, b]
    yield [a, b, a, c, b]
    yield [a, tuple(x * 3 for x in a), b, tuple(-x for x in c), c]
    yield [tuple(x + y * scalar(k) for x, y in zip(a, b)) for k in range(6)]
    yield [point() for _ in range(nv * (nv + 1) // 2 + 1)]


def hilbert_records(rng, nvs=(2, 3, 4)):
    fields = {"Z": int, "Q": lambda v: Fraction(v, 3),
              "F_7": lambda v: Fp(v, 7), "F_big": lambda v: Fp(v, DEFAULT_PRIME)}
    for field, scalar in fields.items():
        for nv in nvs:
            for pts in degenerate_point_sets(scalar, nv, rng):
                yield [field, [[str(c) for c in pt] for pt in pts],
                       hilbert_function(pts, len(pts) + 2).values]


def route_records(rng, ns=(2, 3)):
    """Route A and route B in every degree t <= r on seeded line sets."""
    fields = {"Z": lambda: rng.randint(-5, 5),
              "Q": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
    fields.update({f"F_{p}": lambda p=p: Fp(rng.randrange(p), p) for p in PRIMES})
    for field, scalar in fields.items():
        for n in ns:
            for r in range(n, n + 4):
                try:
                    hset = HyperplaneSet([[scalar() for _ in range(n + 1)] for _ in range(r)])
                except (GeneralPositionError, ValueError) as err:
                    yield [field, n, r, error(err)]
                    continue
                yield [field, n, r,
                       [star_ideal_dimension_by_intersection(hset, t) for t in range(r + 1)],
                       [star_ideal_dimension_by_products(hset, t) for t in range(r + 1)]]


def hilbert_wide_records(rng, rs=range(10, 15)):
    """Hilbert functions of general line sets in P^2, of points with huge
    entries or denominators, and of points equal mod the default prime."""
    fields = {"Z": lambda: rng.randint(-99, 99),
              "Q": lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 9))}
    for field, scalar in fields.items():
        for r in rs:
            while True:
                try:
                    hset = HyperplaneSet([[scalar() for _ in range(3)] for _ in range(r)])
                    break
                except (GeneralPositionError, ValueError):
                    continue
            yield [field, r, hilbert_function(hset.points, r).values]
    big, q = 2**63, DEFAULT_PRIME
    sets = [[(2**70, 1, 3), (1, 0, 0), (0, 1, 0)],
            [(big, big + 1, 1), (big - 1, 2, big), (1, 1, 1), (5, -big, 7)],
            [(Fraction(1, big), 1, 2), (Fraction(3, 2**64 + 1), Fraction(1, 7), 1),
             (1, Fraction(big + 5, 2**65), 0), (2, 3, 5)],
            [(1, 0), (1, q)],
            [(1, 2, 3), (1, 2 + q, 3), (1 + q, 2, 3 - q), (0, 1, 1)],
            [(Fraction(1, q + 1), 1, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
            [(rng.randint(-9, 9) + q * rng.randint(-3, 3), rng.randint(-9, 9), 1)
             for _ in range(8)]]
    for pts in sets:
        yield [[[str(c) for c in pt] for pt in pts], hilbert_function(pts, len(pts) + 2).values]
    for nv in (1, 2, 3, 4):
        for t in range(4):
            yield [nv, t, [format_form(g) for g in point_ideal_piece([], t, nv)]]


def arrays(*named):
    return [[name, list(a.shape), _sha(a)] for name, a in named]


def cramer_records(rng, ns=range(1, 8)):
    """`cramer_table` and `star_weights` on seeded int rows mod p: a
    general draw, one with a zero row, and one whose last row is a
    combination of the first n (a dependent (n+1)-subset)."""
    for p in PRIMES:
        for n in ns:
            for r in range(n, n + 5):
                for kind in ("general", "zero-row", "dependent"):
                    rows = [[rng.randrange(p) for _ in range(n + 1)] for _ in range(r)]
                    if kind == "zero-row":
                        rows[rng.randrange(r)] = [0] * (n + 1)
                    elif kind == "dependent" and r > n:
                        scales = [rng.randrange(1, p) for _ in range(n)]
                        rows[-1] = [sum(c * row[i] for c, row in zip(scales, rows)) % p
                                    for i in range(n + 1)]
                    tables, points, sets, faces = cramer_table(rows, p)
                    try:
                        weights = arrays(("weights", star_weights(p, rows, points)))
                    except GeneralPositionError as err:
                        weights = error(err)
                    yield [p, n, r, kind, arrays(("tables", tables), ("points", points),
                                                 ("sets", sets), ("faces", faces)), weights]


def hyperplane_records(rng, ns=range(1, 5), extra=9, draws=8):
    """`HyperplaneSet` points, or the general-position witness, on seeded
    rows over Z, Q, F_3, F_7 and F_(2^31 - 1), some with a dependent row."""
    fields = {
        "Z": lambda: rng.randint(-2, 2),
        "Q": lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
        "F_3": lambda: Fp(rng.randrange(3), 3),
        "F_7": lambda: Fp(rng.randrange(7), 7),
        "F_big": lambda: Fp(rng.randrange(DEFAULT_PRIME), DEFAULT_PRIME),
    }
    for field, scalar in fields.items():
        for n in ns:
            for r in range(n, n + extra):
                for _ in range(draws):
                    rows = [[scalar() for _ in range(n + 1)] for _ in range(r)]
                    if r > 2 and rng.random() < 0.3:
                        i, j, k = (rng.randrange(r) for _ in range(3))
                        rows[k] = [x + y for x, y in zip(rows[i], rows[j])]
                    try:
                        hset = HyperplaneSet(rows)
                    except (GeneralPositionError, ValueError) as err:
                        yield [field, n, r, type(err).__name__, str(err)]
                        continue
                    yield [field, n, r, [[list(pt.tag), [str(c) for c in pt.coords]]
                                         for pt in hset.points]]


def _seeded_set(rng, r, n, p):
    """The first seeded draw of r rows mod p in general position."""
    while True:
        try:
            return HyperplaneSet([[Fp(rng.randrange(p), p) for _ in range(n + 1)]
                                  for _ in range(r)])
        except (GeneralPositionError, ValueError):
            continue


def route_b_records(rng, big=((6, 4), (7, 4), (7, 5)), small=((6, 4), (7, 4)), draws=3,
                    tall=((5, 3), (6, 3))):
    """Route B where its leading-term block has edges: star sets over
    F_(2^31 - 1) up to t = r + 1, star sets over small primes, where the
    leading terms of the generators fall short of the rank, generators in
    two variables and of mixed degrees over Q and F_p, a wide plane set,
    and the ``tall`` shapes over small primes and F_(2^31 - 1) up to
    t = r + 1."""
    for r, n in big:
        hset = _seeded_set(rng, r, n, DEFAULT_PRIME)
        yield ["route-b", DEFAULT_PRIME, r, n,
               [star_ideal_dimension_by_products(hset, t) for t in range(r + 2)]]
    for p in (7, 11, 101):
        for r, n in small:
            for _ in range(draws):
                hset = _seeded_set(rng, r, n, p)
                yield ["route-b", p, r, n, [[str(c) for c in row] for row in hset.coeffs],
                       [star_ideal_dimension_by_products(hset, t) for t in range(r + 2)]]
    plain = {"two-variable": ["y0^2", "y0*y1 + y1^2"],
             "cuspidal-perp": ["y2^2", "y0*y2", "y0*y1", "y1^3", "y0^3 + 3*y1^2*y2"]}
    for name, texts in plain.items():
        gens = [parse_form(s, num_vars=2 if name == "two-variable" else 3) for s in texts]
        for p in (None, 7, 101, DEFAULT_PRIME):
            over = gens if p is None else [g * Fp(1, p) for g in gens]
            yield ["route-b", name, p, [apolar.ideal_piece_dimension(over, t) for t in range(7)]]
    hset = _seeded_set(rng, 14, 2, DEFAULT_PRIME)
    yield ["route-b", DEFAULT_PRIME, 14, 2,
           [star_ideal_dimension_by_products(hset, t) for t in (14, 15)]]
    for p in (7, 11, 101, DEFAULT_PRIME):
        for r, n in tall:
            for _ in range(draws):
                hset = _seeded_set(rng, r, n, p)
                yield ["route-b", p, r, n, [[str(c) for c in row] for row in hset.coeffs],
                       [star_ideal_dimension_by_products(hset, t) for t in range(r + 2)]]


def waring_outcome(deco, F, extra):
    """The combination, the residuals against F and against F + ``extra``,
    and the JSON of a decomposition, or the error one of them raises."""
    if deco is None:
        return None
    try:
        return [format_form(deco.combination()),
                [format_form(deco.residual(G)) for G in (F, F + extra)],
                deco.to_json_dict()]
    except (TypeError, ValueError) as err:
        return error(err)


def waring_records(rng, nvs=range(1, 6), degrees=range(8), counts=(1, 3, 8)):
    """Waring combinations and residuals: of `solve_waring`'s answer on a
    power sum of seeded points, and of a decomposition built directly from
    the points and weights, which may be zero or have zero coordinates.
    Over F_7, F_11, F_(2^31 - 1) and Q, and mixed: int points with an F_p
    form and F_p points with a Q form, int or `Fraction` points with F_p
    weights, F_p points with int or `Fraction` weights.  Then the empty
    decomposition and `waring --json` through `cli.main`."""
    def fp(p):
        return lambda: Fp(rng.randrange(p), p)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def integer():
        return rng.randint(-5, 5)

    # (point coordinates, the form's points or None for the same points,
    # the form's weights, the direct decomposition's weights)
    fields = {f"F_{p}": (fp(p), None, fp(p), fp(p)) for p in (7, 11, DEFAULT_PRIME)}
    fields["Q"] = (rational, None, rational, rational)
    for p in (7, DEFAULT_PRIME):
        fields[f"Z-points/F_{p}-form"] = (integer, None, fp(p), fp(p))
        fields[f"Q-points/F_{p}-weights"] = (rational, None, fp(p), fp(p))
        fields[f"F_{p}-points/Q-form"] = (fp(p), rational, rational, rational)
        fields[f"F_{p}-points/Z-weights"] = (fp(p), None, integer, integer)

    def sparse(scalar):
        return 0 if rng.random() < 0.25 else scalar()

    for field, (coord, form_coord, weight, direct) in fields.items():
        for nv in nvs:
            for d in degrees:
                for count in counts:
                    pts = [tuple(sparse(coord) for _ in range(nv)) for _ in range(count)]
                    if rng.random() < 0.2:
                        pts[rng.randrange(count)] = (0,) * nv
                    at = pts if form_coord is None else [
                        tuple(form_coord() for _ in range(nv)) for _ in pts]
                    F = power_sum(at, [weight() for _ in pts], d)
                    mono = monomial_basis(nv, d)[rng.randrange(comb(nv - 1 + d, d))]
                    extra = Form.monomial(PRIMAL, mono, weight() or 1)
                    try:
                        solved = waring_outcome(apolar.solve_waring(pts, F), F, extra)
                    except ValueError as err:
                        solved = error(err)
                    deco = apolar.WaringDecomposition([Form.linear(PRIMAL, pt) for pt in pts],
                                                      [sparse(direct) for _ in pts], d)
                    yield ["waring", field, nv, d, [[str(c) for c in pt] for pt in pts],
                           format_form(F), solved, waring_outcome(deco, F, extra)]
    empty = apolar.WaringDecomposition([], [], 3)
    try:
        residual = format_form(empty.residual(parse_form("x0^3")))
    except TypeError as err:
        residual = error(err)
    yield ["waring", "empty", empty.combination() is None, residual, empty.to_json_dict()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points.json")
        for nv, d, count in ((2, 3, 3), (3, 2, 4), (3, 4, 6), (4, 3, 5), (2, 5, 2)):
            pts = [[rational() for _ in range(nv)] for _ in range(count)]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([[scalar_to_str(c) for c in pt] for pt in pts], fh)
            forms = [format_form(power_sum(pts, [rational() for _ in pts], d)),
                     format_form(Form(PRIMAL, nv, d, {m: integer()
                                                      for m in monomial_basis(nv, d)}))]
            for text in forms:
                yield ["waring-cli", run_cli(["waring", f"--form={text}", "--forms", path,
                                              "--json"])]


def _matrix_cases(rng, p):
    """Seeded matrices mod p with the edges of an elimination: empty, 1 x 1,
    zero rows and columns, a pivot below a zero, rank-deficient, wide, tall."""
    def rows(m, n):
        return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]

    yield "empty", []
    yield "0x4", np.zeros((0, 4), dtype=np.int64)
    yield "3x0", [[], [], []]
    yield "1x1", rows(1, 1)
    yield "1x1-zero", [[0]]
    yield "zeros", [[0] * 5 for _ in range(4)]
    a = rows(6, 7)
    a[2] = [0] * 7
    for row in a:
        row[3] = 0
    yield "zero-row-and-column", a
    b = rows(5, 5)
    b[0][0] = 0
    yield "swap", b
    c = rows(7, 6)
    c[0][0] = c[1][0] = c[2][0] = 0
    yield "swap-below-zeros", c
    d = rows(4, 9)
    d += [[(x + 2 * y) % p for x, y in zip(d[0], d[1])],
          [(3 * x - y) % p for x, y in zip(d[2], d[3])]]
    yield "rank-deficient", d
    yield "wide", rows(3, 12)
    yield "tall", rows(14, 4)
    low = rows(8, 3)
    yield "tall-rank-2", [[(r[0] * u + r[1] * v) % p for u, v in zip(low[0], low[1])]
                          for r in low]


def linalg_records(rng):
    """`rref_mod`, `kernel_mod` and `solve_over` on `_matrix_cases` over
    F_7, F_101 and F_(2^31 - 1), and on consistent and inconsistent systems;
    `rank_mod` of each case and of its transpose; `rref`, `rank_over`,
    `kernel_over` and `solve_over` over Q on `_matrix_cases` read as ints
    and as `Fraction`s, and on systems like the F_p ones."""
    for p in PRIMES:
        for name, rows in _matrix_cases(rng, p):
            ncols = len(rows[0]) if len(rows) else 4
            R, pivots = linalg.rref_mod(rows, p)
            kernel = linalg.kernel_mod(rows, ncols, p)
            try:
                solution = linalg.solve_over(p, rows)
            except ValueError as err:
                solution = error(err)
            yield ["linalg", p, name, arrays(("rref", R), ("kernel", kernel)), pivots, solution]
            transpose = np.array(rows, dtype=np.int64).reshape(len(rows), ncols).T
            yield ["linalg-rank", p, name, linalg.rank_mod(rows, p), linalg.rank_mod(transpose, p)]
        for m, n in ((3, 3), (5, 3), (3, 6), (6, 6)):
            A = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            x = [rng.randrange(p) for _ in range(n)]
            b = [sum(a * v for a, v in zip(row, x)) % p for row in A]
            A[-1] = [(u + v) % p for u, v in zip(A[0], A[1])]
            bad = list(b)
            bad[-1] = (b[0] + b[1] + 1) % p
            for tag, rhs in (("consistent", [(b[0] + b[1]) % p if i == m - 1 else v
                                             for i, v in enumerate(b)]), ("inconsistent", bad)):
                yield ["linalg-solve", p, m, n, tag,
                       linalg.solve_over(p, [row + [v] for row, v in zip(A, rhs)])]
    for name, rows in _matrix_cases(rng, 101):
        ncols = len(rows[0]) if len(rows) else 4
        ints = [[int(e) for e in row] for row in rows]
        fractions = [[Fraction(e, 1 + (i + j) % 3) for j, e in enumerate(row)]
                     for i, row in enumerate(ints)]
        for kind, Q in (("Z", ints), ("Q", fractions)):
            R, pivots = linalg.rref(Q)
            try:
                solution = _strs(linalg.solve_over(None, Q))
            except ValueError as err:
                solution = error(err)
            yield ["linalg-Q", kind, name, [_strs(row) for row in R], pivots,
                   linalg.rank_over(None, Q),
                   [_strs(row) for row in linalg.kernel_over(None, Q, ncols)], solution]
    for m, n in ((3, 3), (5, 3), (3, 6), (6, 6)):
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        A[-1] = [u + v for u, v in zip(A[0], A[1])]
        x = [rng.randint(-9, 9) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x)) for row in A]
        for tag, rhs in (("consistent", b), ("inconsistent", b[:-1] + [b[-1] + 1])):
            yield ["linalg-solve", "Q", m, n, tag, linalg.rank_over(None, A),
                   [_strs(row) for row in linalg.kernel_over(None, A, n)],
                   _strs(linalg.solve_over(None, [row + [v] for row, v in zip(A, rhs)]))]


def _strs(row):
    return None if row is None else [scalar_to_str(e) for e in row]


def catalecticant_records(rng):
    """Q kernels of full column rank: `perp_piece` of dense integer and
    rational forms in every degree, and of forms whose catalecticant loses
    rank mod the default prime; `point_ideal_piece` of more points than
    monomials; `kernel_over` of matrices whose rank drops mod that prime."""
    q = DEFAULT_PRIME
    fields = {"Z": lambda: rng.randint(-9, 9),
              "Q": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))}
    for nv, degrees in ((2, range(1, 17)), (3, range(1, 15)), (4, range(1, 8))):
        for d in degrees:
            for field, scalar in fields.items():
                F = Form(PRIMAL, nv, d, {m: scalar() for m in monomial_basis(nv, d)})
                yield ["perp-Q", field, format_form(F),
                       [[format_form(b) for b in apolar.perp_piece(F, i).basis]
                        for i in range(d + 2)]]
    for text in ("x0^2 + 2147483647*x1^2", "x0^4 + 2147483647*x1^4 + x2^4 + x0*x1*x2^2",
                 "x0^3 + x1^3 + x2^3 + 2147483647*x0*x1*x2 + 4294967294*x2^2*x0"):
        F = parse_form(text)
        yield ["perp-Q", "mod-p-drop", text,
               [[format_form(b) for b in apolar.perp_piece(F, i).basis]
                for i in range(F.degree + 2)]]
    for nv in (2, 3, 4):
        for t in range(4):
            count = comb(nv - 1 + t, t) + rng.randrange(3)
            pts = [tuple(rng.randint(-9, 9) for _ in range(nv)) for _ in range(count)]
            pts[-1] = tuple(x + q * rng.randint(-2, 2) for x in pts[0])
            yield ["point-ideal-Q", [[str(c) for c in pt] for pt in pts], t,
                   [format_form(g) for g in point_ideal_piece(pts, t, nv)]]
    for rows in ([[1, 0], [0, q]], [[q, 1], [1, 0]], [[1, 2], [3, 4 + q]],
                 [[Fraction(1, q), 1], [1, q], [2, 3]], [[2, 4], [1, 2 + q], [0, q]]):
        yield ["kernel-Q", [_strs(row) for row in rows],
               [_strs(row) for row in linalg.kernel_over(None, rows, 2)]]


def classify_records():
    """(d, r, n, verdict, rule, note) of `classify` over a grid of triples
    that reaches past the degree bound r = d + n."""
    for n in range(1, 41):
        for d in range(1, 61):
            for r in range(n, d + n + 3):
                v = existence.classify(d, r, n)
                yield ["classify", d, r, n, v.verdict.value, v.rule, v.note]


def records():
    for prime in (101, DEFAULT_PRIME):
        for n in range(1, 6):
            for d in range(1, 6):
                for r in range(n, d + n + 2):
                    yield report(d, r, n, prime)
    for p in PRIMES:
        for n in range(1, 5):
            for d in range(1, 6):
                for r in range(n, d + n + 1):
                    for draw in range(6):
                        yield draw_record("digest", p, d, r, n, draw)
    yield from hyperplane_records(random.Random("digest:hyperplanes"))
    for d in (40, 80):
        yield report(d, d + 1, 2, DEFAULT_PRIME)
    rng = random.Random("digest:apolar")
    for p in PRIMES:
        yield from apolar_records(f"F_{p}", lambda p=p: Fp(rng.randrange(p), p), rng)
    yield from apolar_records(
        "Q", lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng)
    yield from cli_records(random.Random("digest:cli"))
    yield from hilbert_records(random.Random("digest:hilbert"))
    yield from route_records(random.Random("digest:routes"))
    yield from hilbert_wide_records(random.Random("digest:hilbert-wide"))
    yield from cramer_records(random.Random("digest:cramer"))
    for p in PRIMES:
        for n in (5, 6):
            for d in range(1, 5):
                for r in range(n, d + n + 1):
                    for draw in range(2):
                        yield draw_record("digest-wide", p, d, r, n, draw)
    yield from route_b_records(random.Random("digest:route-b"))
    yield from waring_records(random.Random("digest:waring"))
    yield from linalg_records(random.Random("digest:linalg"))
    yield from catalecticant_records(random.Random("digest:catalecticant"))
    yield from classify_records()


def quick_records():
    """A few records of every kind, in a second or two: rank reports on
    both routes, matrix bytes, certificate points and witnesses, the
    apolarity layer with Waring weights, CLI JSON, Hilbert functions, both
    ideal routes, Cramer tables, and route B on its block and off it."""
    for d, r, n in ((2, 3, 2), (3, 6, 2), (2, 5, 1)):
        yield report(d, r, n, DEFAULT_PRIME)
    for p in PRIMES:
        yield draw_record("quick", p, 3, 4, 2, 0)
    yield from hyperplane_records(random.Random("quick:hyperplanes"), ns=(2,), extra=3, draws=2)
    rng = random.Random("quick:apolar")
    yield from apolar_records("F_7", lambda: Fp(rng.randrange(7), 7), rng, ns=(1,))
    yield from apolar_records(
        "Q", lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng, ns=(1,))
    yield from cli_records(random.Random("quick:cli"), ns=(2,))
    yield from hilbert_records(random.Random("quick:hilbert"), nvs=(3,))
    yield from route_records(random.Random("quick:routes"), ns=(2,))
    yield from hilbert_wide_records(random.Random("quick:hilbert-wide"), rs=(10,))
    yield from cramer_records(random.Random("quick:cramer"), ns=(2, 3))
    yield from route_b_records(random.Random("quick:route-b"), big=((6, 4),),
                               small=((6, 4),), draws=1, tall=())


def digest(recs):
    """(count, sha256 hex) over the JSON lines of the records."""
    sha, count = hashlib.sha256(), 0
    for record in recs:
        sha.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        count += 1
    return count, sha.hexdigest()


def main():
    count, hexdigest = digest(records())
    print(f"{count} records, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
