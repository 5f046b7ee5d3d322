"""Command-line surface.  This is the only module with side effects
(reading form files, appending sweep records, printing).

Commands: rho, classify, jactest, star, perp, apolar-check, waring, sweep.
Every command takes --json.  The rank-test commands (jactest, sweep) also
take --seed / --prime / --trials; no environment variable changes an
answer, so a run is reproducible from its flags.  Both run
`jacobian_rank_test`, which picks from the triple alone the matrix it
ranks.  All scalars serialize as decimal strings (rationals as "p/q") so
nothing is lost to binary floating point.

Input rules live in the library, and the exception type decides the exit
code: `main` turns every ``ValueError`` (a bad flag, a bad file, or a
failed library check) into exit 2, and a ``RuntimeError`` or
``ArithmeticError`` (the computation itself failed) into exit 1.  The
checks made here only name the offending text or path, or cover what no
library function knows (the sweep's plane family, its output file).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys

from . import __version__
from .apolar import (catalecticant, is_apolar_ideal_contained, perp_piece,
                     solve_waring)
from .existence import check_rank_test, classify, jacobian_rank_test, rho
from .field import (DEFAULT_PRIME, DEFAULT_SEED, scalar_from_str,
                    scalar_to_str)
from .poly import DUAL, PRIMAL, Form, format_form, parse_form
from .starconfig import HyperplaneSet, hilbert_function


def _json_flag(parser: argparse.ArgumentParser):
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON document")


def _rank_test_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED})")
    parser.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help=f"prime modulus (default {DEFAULT_PRIME})")
    parser.add_argument("--trials", type=int, default=3,
                        help="random trials per rank test (default 3)")


def _triple_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--d", type=int, required=True, help="form degree")
    parser.add_argument("--r", type=int, required=True, help="number of hyperplanes")
    parser.add_argument("--n", type=int, required=True, help="projective dimension")


def _emit(args, payload: dict, human_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# form and file input


def _parse_cli_form(text: str, ring: str | None = None, num_vars: int | None = None) -> Form:
    try:
        return parse_form(text, num_vars=num_vars, ring=ring)
    except ValueError as exc:
        raise ValueError(f"cannot parse form {text!r}: {exc}") from exc


def load_forms_file(path: str, ring: str, num_vars: int | None = None):
    """Forms from a file: one expression per line, or a JSON array of
    coefficient vectors with scalars as strings ("p/q" for rationals), all
    in ``num_vars`` variables (default: as many as the widest form has)."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    forms = []
    if text.lstrip().startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        for vec in data:
            if not isinstance(vec, list) or not vec:
                raise ValueError(f"{path}: entry {vec!r} is not a coefficient vector")
            if num_vars is not None and len(vec) > num_vars:
                raise ValueError(f"{path}: vector of length {len(vec)} exceeds {num_vars} variables")
            try:
                coeffs = [scalar_from_str(str(s)) for s in vec]
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}: bad scalar in {vec!r}: {exc}") from exc
            forms.append(Form.linear(ring, coeffs))
    else:
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                forms.append(_parse_cli_form(line, ring=ring, num_vars=num_vars))
    if not forms:
        raise ValueError(f"{path}: no forms found")
    width = num_vars if num_vars is not None else max(f.num_vars for f in forms)
    return [Form(f.ring, width, f.degree,  # pad exponents of the absent variables
                 {m + (0,) * (width - f.num_vars): c for m, c in f.terms.items()})
            for f in forms]


# ---------------------------------------------------------------------------
# commands


def _cmd_rho(args) -> int:
    value = rho(args.d, args.r, args.n)
    try:
        str(value)  # refused past sys.get_int_max_str_digits(), as json refuses it
    except ValueError:
        raise ValueError(f"rho({args.d},{args.r},{args.n}) has too many digits to print") from None
    note = ("necessary condition fails: no apolar configuration for the "
            "generic form" if value < 0 else "necessary condition holds")
    _emit(args, {"d": args.d, "r": args.r, "n": args.n, "rho": value, "note": note},
          [f"rho({args.d},{args.r},{args.n}) = {value}", note])
    return 0


def _cmd_classify(args) -> int:
    v = classify(args.d, args.r, args.n)
    payload = {"d": args.d, "r": args.r, "n": args.n, **v.to_json_dict()}
    _emit(args, payload,
          [f"({args.d},{args.r},{args.n}): {v.verdict.value} [{v.rule}]"
           + (f" -- {v.note}" if v.note else "")])
    return 0


def _cmd_jactest(args) -> int:
    report = jacobian_rank_test(args.d, args.r, args.n, prime=args.prime,
                                seed=args.seed, trials=args.trials)
    payload = report.to_json_dict()
    _emit(args, payload,
          [f"({args.d},{args.r},{args.n}): {report.verdict}, "
           f"rank {report.rank} of target {report.target}, "
           f"expected {report.expected_rank}, defect {report.defect} "
           f"(m={report.m}, prime={report.prime}, seed={report.seed}, "
           f"trials={report.trials}, {report.elapsed_ms} ms)"])
    return 0


def _cmd_star(args) -> int:
    forms = load_forms_file(args.forms, ring=DUAL,
                            num_vars=args.n + 1 if args.n is not None else None)
    hset = HyperplaneSet.from_forms(forms)
    table = hilbert_function(hset.points, hset.r)
    payload = {
        "r": hset.r, "n": hset.n,
        "points": [{"tag": list(pt.tag),
                    "coords": [scalar_to_str(c) for c in pt.coords]}
                   for pt in hset.points],
        "ideal_generators": [format_form(g) for g in hset.product_generators],
        "hilbert_function": list(table.values),
    }
    lines = [f"star configuration of {hset.r} hyperplanes in P^{hset.n}: "
             f"{len(hset.points)} points"]
    for pt in hset.points:
        coords = ":".join(scalar_to_str(c) for c in pt.coords)
        lines.append(f"  {pt.tag}: [{coords}]")
    lines.append(f"ideal generators (degree {hset.r - hset.n + 1}):")
    lines.extend(f"  {format_form(g)}" for g in hset.product_generators)
    lines.append("Hilbert function: " + ", ".join(str(v) for v in table.values))
    _emit(args, payload, lines)
    return 0


def _cmd_perp(args) -> int:
    f = _parse_cli_form(args.form, ring=PRIMAL)
    piece = perp_piece(f, args.degree)
    payload = {
        "form": format_form(f), "degree": args.degree,
        "dimension": piece.dimension,
        "basis": [format_form(b) for b in piece.basis],
    }
    if args.matrix and args.degree <= f.degree:
        payload["catalecticant"] = catalecticant(f, args.degree).to_json_dict()
    lines = [f"annihilator of {format_form(f)} in degree {args.degree}: "
             f"dimension {piece.dimension}"]
    lines.extend(f"  {format_form(b)}" for b in piece.basis)
    _emit(args, payload, lines)
    return 0


def _cmd_apolar_check(args) -> int:
    f = _parse_cli_form(args.form, ring=PRIMAL)
    forms = load_forms_file(args.forms, ring=DUAL, num_vars=f.num_vars)
    star_mode = all(g.degree == 1 for g in forms)
    if star_mode:
        generators = HyperplaneSet.from_forms(forms).product_generators
    else:
        generators = forms
    check = is_apolar_ideal_contained(generators, f)
    payload = {
        "form": format_form(f),
        "mode": "star-configuration" if star_mode else "direct-generators",
        "contained": check.contained,
    }
    if not check.contained:
        payload["failing_generator"] = format_form(check.failing_generator)
        payload["residual"] = format_form(check.residual)
        lines = [f"NOT apolar: generator {format_form(check.failing_generator)} "
                 f"leaves residual {format_form(check.residual)}"]
    else:
        lines = ["apolar: every generator annihilates the form"]
    _emit(args, payload, lines)
    return 0


def _cmd_waring(args) -> int:
    f = _parse_cli_form(args.form, ring=PRIMAL)
    points = load_forms_file(args.forms, ring=PRIMAL, num_vars=f.num_vars)
    deco = solve_waring(points, f)
    if deco is None:
        _emit(args, {"form": format_form(f), "feasible": False},
              ["infeasible: the form is outside the span of the supplied powers"])
        return 0
    residual = deco.residual(f)
    payload = {"form": format_form(f), "feasible": True,
               "residual_zero": residual.is_zero(), **deco.to_json_dict()}
    lines = [f"decomposition of {format_form(f)} as a weighted sum of "
             f"{len(deco.linear_forms)} powers (degree {deco.degree}):"]
    for a, lf in zip(deco.coefficients, deco.linear_forms):
        lines.append(f"  {scalar_to_str(a)} * ({format_form(lf)})^{deco.degree}")
    lines.append(f"residual: {format_form(residual)}")
    _emit(args, payload, lines)
    return 0


def _cmd_sweep(args) -> int:
    if args.n != 2:
        raise ValueError("sweep runs the plane family (d, d+1, 2): --n 2")
    if args.dmin < 3 or args.dmax < args.dmin:
        raise ValueError("need 3 <= dmin <= dmax")
    # refuse a bad prime, trial count or size before the output file exists;
    # the largest cell bounds the others, and p > dmax covers every cell
    check_rank_test(args.dmax, args.dmax + 1, 2, args.prime, args.trials)
    done = set()
    if os.path.exists(args.out) and not args.force:
        try:
            with open(args.out, encoding="utf-8") as fh:
                recorded = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {args.out}: {exc}") from exc
        for line in recorded:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                rep = rec.get("report") or {}
                done.add((rec.get("d"), rec.get("r"), rec.get("n"),
                          rep.get("prime"), rep.get("seed")))
            except (json.JSONDecodeError, AttributeError, TypeError):
                continue  # damaged line; remaining lines stay valid
    records = []
    try:
        out = open(args.out, "a")
    except OSError as exc:
        raise ValueError(f"cannot open {args.out} for append: {exc}") from exc
    with out:
        for d in range(args.dmin, args.dmax + 1):
            # the rank test keys its streams by the triple, so each cell
            # owns its stream under the base seed
            if (d, d + 1, 2, args.prime, args.seed) in done:
                records.append({"d": d, "skipped": True})
                continue
            report = jacobian_rank_test(d, d + 1, 2, prime=args.prime,
                                        seed=args.seed, trials=args.trials)
            record = {
                "d": d, "r": d + 1, "n": 2,
                "source": "jactest",
                "report": report.to_json_dict(),
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "tool_version": __version__,
            }
            out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
            records.append({"d": d, "skipped": False,
                            "verdict": report.verdict, "rank": report.rank,
                            "expected_rank": report.expected_rank,
                            "defect": report.defect})
    payload = {"out": args.out, "cells": records}
    lines = []
    for rec in records:
        if rec.get("skipped"):
            lines.append(f"d={rec['d']}: already recorded, skipped")
        else:
            lines.append(f"d={rec['d']}: {rec['verdict']} (rank {rec['rank']}, "
                         f"expected {rec['expected_rank']}, defect {rec['defect']})")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and never changes it, so repeated `main` calls share one."""
    parser = argparse.ArgumentParser(
        prog="starpolar",
        description="exact star-configuration apolarity toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="parameter-count necessary condition")
    _triple_flags(p)
    _json_flag(p)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("classify", help="closed-form existence verdict")
    _triple_flags(p)
    _json_flag(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("jactest", help="randomized Jacobian rank test")
    _triple_flags(p)
    _json_flag(p)
    _rank_test_flags(p)
    p.set_defaults(func=_cmd_jactest)

    p = sub.add_parser("star", help="points, ideal generators, Hilbert function")
    p.add_argument("--forms", required=True, help="file of dual linear forms")
    p.add_argument("--n", type=int, default=None,
                   help="ambient projective dimension (default: inferred from "
                        "the largest variable index)")
    _json_flag(p)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("perp", help="graded piece of the annihilator ideal")
    p.add_argument("--form", required=True, help="primal form expression")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--matrix", action="store_true",
                   help="include the catalecticant matrix in JSON output")
    _json_flag(p)
    p.set_defaults(func=_cmd_perp)

    p = sub.add_parser("apolar-check",
                       help="do the given dual forms define an apolar set?")
    p.add_argument("--form", required=True, help="primal form expression")
    p.add_argument("--forms", required=True,
                   help="file of dual forms: all-linear input is treated as "
                        "star-configuration hyperplanes, otherwise as ideal "
                        "generators checked directly")
    _json_flag(p)
    p.set_defaults(func=_cmd_apolar_check)

    p = sub.add_parser("waring", help="solve for power-sum weights exactly")
    p.add_argument("--form", required=True, help="primal form expression")
    p.add_argument("--forms", required=True, help="file of primal linear forms")
    _json_flag(p)
    p.set_defaults(func=_cmd_waring)

    p = sub.add_parser("sweep", help="rank-test the plane family (d, d+1, 2) "
                                     "and persist JSON-lines records")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--dmin", type=int, default=3)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--out", required=True, help="JSON-lines output path")
    p.add_argument("--force", action="store_true",
                   help="re-run cells already present in the output file")
    _json_flag(p)
    _rank_test_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
