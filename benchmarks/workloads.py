"""The four benchmark workloads: seeded inputs, one callable per operation,
and the answer each operation must return.

Every operation is built once, during set-up, from the workload seed; a
pass runs the list of operations in order, and every pass repeats the same
operations on the same inputs, so exact work counts repeat from pass to
pass.  Operations reach the program only through module attributes
(``starconfig.hilbert_function(...)``, ``cli.main(...)``) so the traced run
can wrap those names where callers look them up.

The program receives only generated inputs: ``--seed``/``--prime``/
``--trials`` flags, hyperplane coefficient rows, forms and points.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from starpolar import apolar, cli, poly, starconfig
from starpolar.field import DEFAULT_PRIME, Fp

PRIME = DEFAULT_PRIME
TRIALS = 3

# criterion-2 triples below the ideal-degree bound plus the two rho < 0
# triples of criterion 3; the rank-deficient ones run all three trials
SPACE_TRIPLES = ((3, 5, 3), (4, 6, 3), (5, 7, 3), (3, 6, 4), (3, 7, 5),
                 (3, 4, 3), (4, 5, 3))
# (3,7,5) reaches 55 of 56 at every prime and seed tried (README, acceptance
# criterion 2).  Pinning the observed rank makes any change to it, up or
# down, fail loudly instead of passing silently.
PINNED_RANKS = {(3, 7, 5): 55}

PLANE_DEGREES = range(3, 10)
IDEAL_SHAPES = ((4, 2), (5, 2), (5, 3), (6, 3), (6, 4))
RATIONAL_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (5, 4))  # (r, d), n = 2


@dataclass
class Op:
    """One timed operation and the answer it must return."""

    group: str                  # row of the per-triple / per-shape report
    run: Callable[[], object]   # timed; returns the answer
    expected: object
    via_cli: bool = False
    note: str = ""              # printed beside the group, e.g. "defect=1"


def build(name: str, seed: int, workdir: str) -> list:
    """Operations of one pass of the named workload, inputs drawn from seed."""
    rng = random.Random(seed)
    if name == "jactest-plane":
        return _jactest_plane(rng, workdir)
    if name == "jactest-space":
        return _jactest_space(rng)
    if name == "ideal-crosscheck":
        return _ideal_crosscheck(rng)
    if name == "apolar-roundtrip":
        return _apolar_roundtrip(rng)
    raise ValueError(f"unknown workload {name!r}")


def program_seed(rng) -> int:
    return rng.randrange(1, 2**31)


# ---------------------------------------------------------------------------
# Jacobian rank test through the command line


def _run_cli(argv):
    """(exit code, stdout) of one in-process ``starpolar`` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
    return code, out.getvalue()


def _rank_flags(seed: int):
    return ["--seed", str(seed), "--prime", str(PRIME), "--trials", str(TRIALS),
            "--json"]


def _jactest_plane(rng, workdir):
    seed = program_seed(rng)
    fresh = itertools.count()
    ops = []
    for d in PLANE_DEGREES:
        def run(d=d):
            # a fresh file per call, so resume-skipping never turns the
            # operation into a no-op
            path = os.path.join(workdir, f"sweep-{next(fresh)}.jsonl")
            code, _ = _run_cli(["sweep", "--n", "2", "--dmin", str(d),
                                "--dmax", str(d), "--out", path]
                               + _rank_flags(seed))
            if code != 0:
                return ("exit", code)
            with open(path) as fh:
                records = [json.loads(line) for line in fh]
            os.remove(path)
            if len(records) != 1:
                return ("records", len(records))
            rec, rep = records[0], records[0]["report"]
            return (rec["d"], rec["r"], rec["n"], rep["rank"], rep["target"],
                    rep["verdict"])

        target = comb(d + 2, 2)
        ops.append(Op(f"d={d}", run, (d, d + 1, 2, target, target, "RankFull"),
                      via_cli=True))
    return ops


def _jactest_space(rng):
    seed = program_seed(rng)
    ops = []
    for d, r, n in SPACE_TRIPLES:
        argv = ["jactest", "--d", str(d), "--r", str(r), "--n", str(n)]
        argv += _rank_flags(seed)

        def run(argv=argv):
            code, out = _run_cli(argv)
            if code != 0:
                return ("exit", code)
            rep = json.loads(out)
            return (rep["rank"], rep["target"], rep["verdict"])

        target = comb(n + d, d)
        m = (n + 1) * r + comb(r, n)
        # the r hyperplane rescalings always lie in the kernel
        generic = min(target, m - r)
        rank = PINNED_RANKS.get((d, r, n), generic)
        verdict = "RankFull" if rank == target else "RankDeficient"
        ops.append(Op(f"({d},{r},{n})", run, (rank, target, verdict),
                      via_cli=True,
                      note=f"rank {rank}/{target} defect={generic - rank}"))
    return ops


# ---------------------------------------------------------------------------
# configuration ideal: two routes and the Hilbert function


def _fp(rng):
    return Fp(rng.randrange(PRIME), PRIME)


def _random_hyperplanes(rng, r, n):
    while True:
        rows = [[_fp(rng) for _ in range(n + 1)] for _ in range(r)]
        try:
            return starconfig.HyperplaneSet(rows)
        except ValueError:  # a zero row or lost general position; redraw
            continue


def _ideal_crosscheck(rng):
    ops = []
    for r, n in IDEAL_SHAPES:
        hset = _random_hyperplanes(rng, r, n)
        hf = tuple(min(comb(n + t, t), comb(r, n)) for t in range(r + 1))
        for t in range(r + 1):
            dim = comb(n + t, t) - hf[t]
            ops.append(Op(f"({r},{n}) A",
                          lambda h=hset, t=t:
                          starconfig.star_ideal_dimension_by_intersection(h, t),
                          dim))
            ops.append(Op(f"({r},{n}) B",
                          lambda h=hset, t=t:
                          starconfig.star_ideal_dimension_by_products(h, t),
                          dim))
        ops.append(Op(f"({r},{n}) HF",
                      lambda h=hset, r=r: tuple(starconfig.hilbert_function(
                          starconfig.intersection_points(h), r).values),
                      hf))
    return ops


# ---------------------------------------------------------------------------
# apolarity round trips


def _power_sum(points, weights, d):
    total = None
    for a, pt in zip(weights, points):
        piece = (poly.Form.linear(poly.PRIMAL, pt) ** d) * a
        total = piece if total is None else total + piece
    return total


def _distinct_points(rng, n1, count):
    """Nonzero coordinates, pairwise distinct as projective points."""
    while True:
        pts = [tuple(Fp(rng.randrange(1, PRIME), PRIME) for _ in range(n1))
               for _ in range(count)]
        if len({tuple(c / pt[0] for c in pt) for pt in pts}) == count:
            return pts


def _fp_case(rng, n1, d, count):
    pts = _distinct_points(rng, n1, count)
    weights = [Fp(rng.randrange(1, PRIME), PRIME) for _ in range(count)]
    form = _power_sum(pts, weights, d)

    def run():
        dims, annihilated = [], True
        for j in range(1, d + 1):
            gens = starconfig.point_ideal_piece(pts, j, n1)
            dims.append(len(gens))
            annihilated = annihilated and all(apolar.annihilates(g, form)
                                              for g in gens)
        deco = apolar.solve_waring(pts, form)
        if deco is None:
            return (tuple(dims), annihilated, None, False)
        return (tuple(dims), annihilated,
                tuple(int(c) for c in deco.coefficients),
                deco.residual(form).is_zero())

    # general points impose independent conditions in every degree, so
    # their d-th powers are independent and the weights come back exactly
    dims = tuple(comb(n1 - 1 + j, j) - min(comb(n1 - 1 + j, j), count)
                 for j in range(1, d + 1))
    expected = (dims, True, tuple(int(a) for a in weights), True)
    return Op(f"Fp n+1={n1} d={d}", run, expected)


def _rational_case(rng, r, d, n=2):
    """Small-integer hyperplanes; the form is a power sum over their star
    points, so the star ideal annihilates it."""
    while True:
        rows = [[rng.randrange(-4, 5) for _ in range(n + 1)] for _ in range(r)]
        try:
            hset = starconfig.HyperplaneSet(rows)
        except ValueError:
            continue
        pts = [pt.coords for pt in starconfig.intersection_points(hset)]
        form = _power_sum(pts, [rng.randrange(1, 10) for _ in pts], d)
        if not form.is_zero():
            break

    def run():
        consistent = True
        for i in range(1, d + 1):
            piece = apolar.perp_piece(form, i)
            rank = apolar.catalecticant(form, i).rank()
            consistent = (consistent
                          and piece.dimension == comb(n + i, i) - rank
                          and all(apolar.annihilates(b, form)
                                  for b in piece.basis))
        contained = apolar.is_apolar_ideal_contained(
            starconfig.star_ideal_product_generators(hset), form).contained
        deco = apolar.solve_waring(pts, form)
        return (consistent, contained,
                deco is not None and deco.residual(form).is_zero())

    return Op("Q star power sums", run, (True, True, True))


def _golden_cuspidal_cubic():
    """Acceptance criterion 8."""
    cubic = poly.parse_form("x0^3 - x1^2*x2")
    gens = [poly.parse_form(s, num_vars=3) for s in
            ["y2^2", "y0*y2", "y0*y1", "y1^3", "y0^3 + 3*y1^2*y2"]]
    lines = [poly.parse_form(s, num_vars=3, ring=poly.DUAL) for s in
             ["y0", "y1", "y1 - y2", "y0 + y1 + y2"]]

    def run():
        hset = starconfig.HyperplaneSet.from_forms(lines)
        pts = [pt.coords for pt in starconfig.intersection_points(hset)]
        deco = apolar.solve_waring(pts, cubic)
        return (tuple(str(b) for b in apolar.perp_piece(cubic, 2).basis),
                apolar.ideal_piece_dimension(gens, 2),
                apolar.ideal_piece_dimension(gens, 3),
                apolar.perp_piece(cubic, 3).dimension,
                apolar.verify_perp_generators(cubic, gens),
                apolar.is_apolar_ideal_contained(
                    starconfig.star_ideal_product_generators(hset),
                    cubic).contained,
                deco is not None and deco.residual(cubic).is_zero())

    return Op("golden", run,
              (("y0*y1", "y0*y2", "y2^2"), 3, 9, 9, True, True, True))


def _golden_conic_plus_tangent():
    """Acceptance criterion 9."""
    form = poly.parse_form("x0*(x2^2+x0*x1)")
    lines = [poly.parse_form(s, num_vars=3, ring=poly.DUAL) for s in
             ["y0 + 47/132*y1 - 3*y2", "4*y0 - 20/3*y1 - 10*y2",
              "2*y0 + 862/33*y1 + 7*y2", "11*y0 - 421/12*y1 + 6*y2"]]

    def run():
        hset = starconfig.HyperplaneSet.from_forms(lines)
        return apolar.is_apolar_ideal_contained(
            starconfig.star_ideal_product_generators(hset), form).contained

    return Op("golden", run, True)


def _apolar_roundtrip(rng):
    ops = [_fp_case(rng, n1, d, count)
           for n1 in (2, 3, 4) for d in (2, 3, 4, 5)
           for count in range(2, min(comb(n1 - 1 + d, d), 8))]
    ops += [_rational_case(rng, r, d) for r, d in RATIONAL_SHAPES]
    ops += [_golden_cuspidal_cubic(), _golden_conic_plus_tangent()]
    return ops
