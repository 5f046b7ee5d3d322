"""Spans and work counters for the traced run (``--trace 1``).

Wrappers go on public names at the place the caller looks them up: module
attributes such as ``existence.linear_power_coefficients`` or
``linalg.det``, and ``Form.__mul__`` and the ``Jet`` arithmetic methods on
their classes.  No program file changes.  ``Jet`` methods only bump
counters, since they run tens of thousands of times per trial; ``Fp`` is
never wrapped (over a million calls per trial).

A span records its name, start, end, parent span and operation (the
position of the operation's record in the traced passes).  Spans nest
strictly (one thread), so a span's self time is its duration minus the
durations of its direct children.  Durations are scaled to reference
seconds with the scale of the operation they belong to.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from starpolar import apolar, cli, existence, field, linalg, poly, starconfig

# (owner, attribute, span name); one span name may cover several lookup sites
SPANS = (
    (cli, "jacobian_rank_test", "existence.rank_test"),
    (existence, "_draw_parameter_values", "existence.draw"),
    (existence, "jacobian_matrix", "existence.jacobian"),
    (existence, "general_position_violation", "starconfig.general_position"),
    (starconfig, "general_position_violation", "starconfig.general_position"),
    (existence, "_points_from_coeff_rows", "starconfig.points"),
    (starconfig, "_points_from_coeff_rows", "starconfig.points"),
    (starconfig, "star_ideal_dimension_by_intersection",
     "starconfig.route_intersection"),
    (starconfig, "star_ideal_dimension_by_products", "starconfig.route_products"),
    (starconfig, "hilbert_function", "starconfig.hilbert"),
    (starconfig, "point_ideal_piece", "starconfig.point_ideal_piece"),
    (linalg, "det", "linalg.det"),
    (linalg, "rank_mod", "linalg.rank_mod"),
    (linalg, "kernel_mod", "linalg.kernel_mod"),
    (linalg, "rref", "linalg.rref"),
    (existence, "linear_power_coefficients", "poly.power_coeffs"),
    (apolar, "linear_power_coefficients", "poly.power_coeffs"),
    (poly.Form, "__mul__", "poly.form_mul"),
    (apolar, "contract", "poly.contract"),
    (starconfig, "ideal_piece_dimension", "apolar.ideal_piece_dimension"),
    (apolar, "ideal_piece_dimension", "apolar.ideal_piece_dimension"),
    (apolar, "perp_piece", "apolar.perp_piece"),
    (apolar, "solve_waring", "apolar.solve_waring"),
    (apolar, "is_apolar_ideal_contained", "apolar.containment"),
)
JET_COUNTERS = (
    ("__mul__", "field.jet_mul_calls"), ("__rmul__", "field.jet_mul_calls"),
    ("__add__", "field.jet_add_calls"), ("__radd__", "field.jet_add_calls"),
    ("__sub__", "field.jet_add_calls"), ("__rsub__", "field.jet_add_calls"),
)
MODULES = ("cli", "existence", "starconfig", "linalg", "poly", "apolar", "op")
CLI_ROOT = "cli.main"      # root span of an operation that goes through the CLI
DIRECT_ROOT = "op.direct"  # root span of an operation calling the library


def _cells(rows, num_cols=None):
    return len(rows) * (num_cols if num_cols is not None
                        else len(rows[0]) if len(rows) else 0)


def _after_jacobian(tracer, args, result):
    tracer.counts["existence.jacobian_entries"] += _cells(result)


def _after_rank_mod(tracer, args, result):
    rows = args[0]
    tracer.counts["linalg.modp_cells"] += _cells(rows)
    # a trial's Jacobian has C(n+d, d) columns, which is the target rank
    if tracer.parent_name() == "existence.rank_test" and result == len(rows[0]):
        tracer.counts["existence.full_rank_trials"] += 1


def _after_kernel_mod(tracer, args, result):
    tracer.counts["linalg.modp_cells"] += _cells(args[0], args[1])


AFTER = {
    "existence.jacobian": _after_jacobian,
    "linalg.rank_mod": _after_rank_mod,
    "linalg.kernel_mod": _after_kernel_mod,
}


class Tracer:
    """Spans kept in memory, plus exact work counters."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or None, op index]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def run(self, op, position: int):
        """Run one operation under a root span."""
        self.op = position
        return self.span(CLI_ROOT if op.via_cli else DIRECT_ROOT, op.run)

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def install(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self._spanned(getattr(owner, attr), name,
                                                     AFTER.get(name)))
        for attr, counter in JET_COUNTERS:
            self._replace(field.Jet, attr,
                          self._counted(getattr(field.Jet, attr), counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name, after):
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def _counted(self, fn, counter):
        counts = self.counts

        def wrapper(jet, *args):
            counts[counter] += 1
            counts["field.fp_ops_computed"] += len(jet.grad)
            return fn(jet, *args)
        return wrapper

    def mark(self):
        return len(self.spans), Counter(self.counts)

    def work_since(self, mark):
        """Exact work counts since ``mark``: span calls and counters."""
        first, counts = mark
        out = Counter(self.counts)
        out.subtract(counts)
        out.update(f"{rec[0]}#calls" for rec in self.spans[first:])
        return {k: v for k, v in sorted(out.items()) if v}


def _durations(spans, records):
    dur = [(rec[2] - rec[1]) * records[rec[4]].scale for rec in spans]
    child = [0.0] * len(spans)
    for rec, d in zip(spans, dur):
        if rec[3] is not None:
            child[rec[3]] += d
    return dur, child


def layer_metrics(tracer: Tracer, records, passes: int) -> dict:
    """Per-layer metrics, per pass, from the spans and counters."""
    spans, counts = tracer.spans, tracer.counts
    dur, _ = _durations(spans, records)
    total, calls = defaultdict(float), Counter()
    rank_s = 0.0
    for rec, d in zip(spans, dur):
        total[rec[0]] += d
        calls[rec[0]] += 1
        if (rec[0] == "linalg.rank_mod" and rec[3] is not None
                and spans[rec[3]][0] == "existence.rank_test"):
            rank_s += d
    trials = calls["existence.draw"]
    entries = counts["existence.jacobian_entries"]
    cli_overhead = total[CLI_ROOT] - total["existence.rank_test"]
    m = {
        "cli.overhead_ms": (1000 * cli_overhead / calls[CLI_ROOT]
                            if calls[CLI_ROOT] else 0.0),
        "existence.rank_test_s": total["existence.rank_test"] / passes,
        "existence.trials": trials / passes,
        "existence.draw_s": total["existence.draw"] / passes,
        "existence.jacobian_s": total["existence.jacobian"] / passes,
        "existence.rank_s": rank_s / passes,
        "existence.jacobian_entries": entries / passes,
        "existence.jacobian_us_per_entry": (1e6 * total["existence.jacobian"] / entries
                                            if entries else 0.0),
        "existence.full_rank_trial_ratio": (counts["existence.full_rank_trials"] / trials
                                            if trials else 0.0),
    }
    for name in ("general_position", "points", "route_intersection",
                 "route_products", "hilbert", "point_ideal_piece"):
        m[f"starconfig.{name}_s"] = total[f"starconfig.{name}"] / passes
    for name in ("det", "rank_mod", "kernel_mod", "rref"):
        m[f"linalg.{name}_calls"] = calls[f"linalg.{name}"] / passes
        m[f"linalg.{name}_s"] = total[f"linalg.{name}"] / passes
    m["linalg.modp_cells"] = counts["linalg.modp_cells"] / passes
    for name in ("power_coeffs", "form_mul"):
        m[f"poly.{name}_calls"] = calls[f"poly.{name}"] / passes
        m[f"poly.{name}_s"] = total[f"poly.{name}"] / passes
    m["poly.contract_s"] = total["poly.contract"] / passes
    for name in ("ideal_piece_dimension", "perp_piece", "solve_waring",
                 "containment"):
        m[f"apolar.{name}_s"] = total[f"apolar.{name}"] / passes
    for name in ("jet_mul_calls", "jet_add_calls", "fp_ops_computed"):
        m[f"field.{name}"] = counts[f"field.{name}"] / passes
    return m


def report(tracer: Tracer, ops, records, passes: int, workload: str, m: dict):
    """Lines of the traced report: self time by module, per group rows, and
    the profile checks that the workload's stated reason still holds;
    ``m`` holds the layer metrics."""
    spans = tracer.spans
    dur, child = _durations(spans, records)
    by_group = defaultdict(lambda: defaultdict(float))
    wall = defaultdict(float)
    for rec, d, c in zip(spans, dur, child):
        group = ops[records[rec[4]].index].group
        by_group[group][rec[0].split(".")[0]] += d - c
        if rec[3] is None:
            wall[group] += d
    overall = defaultdict(float)
    for row in by_group.values():
        for module, s in row.items():
            overall[module] += s
    whole = sum(overall.values()) or 1.0
    lines = [f"self time by module, ms per pass ({passes} traced passes; "
             "op = benchmark glue and program code between wrapped names)",
             " ".join(f"{mod}={1000 * overall[mod] / passes:.1f} "
                      f"({100 * overall[mod] / whole:.0f}%)" for mod in MODULES)]
    lines.append(f"{'group':<22}{'op ms':>10}"
                 + "".join(f"{mod:>12}" for mod in MODULES))
    for group, row in by_group.items():
        lines.append(f"{group:<22}{1000 * wall[group] / passes:>10.1f}"
                     + "".join(f"{1000 * row[mod] / passes:>12.2f}"
                               for mod in MODULES))
    if workload.startswith("jactest"):
        share = m["existence.jacobian_s"] / (m["existence.rank_test_s"] or 1.0)
        lines.append(f"profile check: jacobian_s is {100 * share:.1f}% of "
                     f"rank_test_s (stated >= 95%): "
                     f"{'holds' if share >= 0.95 else 'does not hold'}")
    if workload == "jactest-space":
        parts = defaultdict(float)
        for rec, d in zip(spans, dur):
            if rec[3] is not None and spans[rec[3]][0] == "starconfig.points":
                parts[rec[0]] += d
        parts["(self)"] = sum(d - c for rec, d, c in zip(spans, dur, child)
                              if rec[0] == "starconfig.points")
        largest = max(parts, key=parts.get)
        lines.append("profile check: largest part of starconfig.points_s is "
                     f"{largest} ({', '.join(f'{k}={v / passes:.3f}s' for k, v in parts.items())}): "
                     f"{'holds' if largest == 'linalg.det' else 'does not hold'}")
    lines.append(f"computed bytes moved by the mod-p kernels: "
                 f"{8 * m['linalg.modp_cells']:.0f} B per pass (8 x cells)")
    return lines
