"""The benchmark tracer wraps package functions by name; a renamed or
removed name must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracer_installs_and_restores_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(owner, attr) for owner, attr, _ in tracing.SPANS]
    sites += [(tracing.field.Jet, attr) for attr, _ in tracing.JET_COUNTERS]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn
               for (owner, attr), fn in zip(sites, originals))
