"""One fresh benchmark process: one checked call, or a traced run.

    python3 bench/worker.py call --workload NAME --seed N
    python3 bench/worker.py trace --workload NAME --seed N --seconds S [--spans FILE]

``run.py`` starts this in a fresh interpreter and reads the JSON object it
prints last.  Both modes report the monotonic clock when the package is
imported and when the workload's inputs are built.  ``call`` then makes one
call and reports its part times, the reference times around each part,
checks, output fingerprint and accuracy numbers.  ``trace`` alternates
untraced and traced calls for ``--seconds`` and reports the per-layer
metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MAX_FAILURES_SHOWN = 20


def import_package():
    """Import fastdiff_lab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fastdiff_lab", "__init__.py")):
        raise SystemExit(f"bench: no package source under {SRC}")
    sys.path.insert(0, SRC)
    import fastdiff_lab
    if not os.path.abspath(fastdiff_lab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported {fastdiff_lab.__file__}, not {SRC}")
    return fastdiff_lab


def call_once(wl, inputs, outdir: str) -> dict:
    """One call and its checks; a raised solver error is a failed operation."""
    try:
        out = wl.call(inputs, outdir)
    except Exception:
        return {"parts": {}, "reference": {}, "attempted": 1, "failed": 1,
                "failures": [f"{wl.name}: call raised\n{traceback.format_exc()}"],
                "fingerprint": None, "accuracy": {}, "bytes_written": 0}
    checks = wl.checks(out)
    missed = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    return {"parts": out.parts, "reference": out.reference,
            "attempted": 1 + len(checks),
            "failed": len(missed), "failures": missed[:MAX_FAILURES_SHOWN],
            "fingerprint": out.fingerprint(), "accuracy": wl.accuracy(out),
            "bytes_written": out.bytes_written}


def per_layer(stats, calls: int, bytes_written: int) -> dict:
    """The traced run's layer metrics, per workload call."""
    def per(x):
        return x / calls

    m = {}
    nonlinear = "evolve.step_nonlinear"
    m["evolve.step_nonlinear.calls"] = per(stats.calls(nonlinear))
    for count in (600, 1200):
        m[f"evolve.step_nonlinear.us_per_call.N{count}"] = \
            stats.us_per_call(nonlinear, count)
    top = stats.toplevel_calls(nonlinear)
    m["evolve.substeps_per_step"] = stats.calls(nonlinear) / top if top else 0.0
    m["evolve.observe.self_s"] = per(stats.self_s("evolve.run") + sum(
        stats.under(name, "evolve.run") for name in
        ("evolve.mass_and_moments", "evolve.energy", "geometry.weighted_sup")))
    for name in ("linop.step_linear", "linop.assemble", "linop.top_eigenvalues"):
        m[f"{name}.calls"] = per(stats.calls(name))
        for count in (1200, 4800):
            m[f"{name}.us_per_call.N{count}"] = stats.us_per_call(name, count)
    m["linop.semigroup_decay.self_s"] = per(stats.self_s("linop.semigroup_decay"))
    m["geometry.RadialGrid.nodes.calls"] = per(stats.calls("geometry.RadialGrid.nodes"))
    for name in ("geometry.weighted_sup", "geometry.cell_masses",
                 "closedform.eigenfunction_psi", "closedform.delayed_barenblatt_v",
                 "asymptotics.extract_coefficient"):
        m[f"{name}.calls"] = per(stats.calls(name))
        m[f"{name}.self_s"] = per(stats.self_s(name))
    for name in ("asymptotics.mod_time_shift", "asymptotics.expansion_residual",
                 "affine.calibrate_cb", "affine.affine_pde_residual"):
        m[f"{name}.self_s"] = per(stats.self_s(name))
    m["asymptotics.fit_rate.calls"] = per(stats.calls("asymptotics.fit_rate"))
    from fastdiff_lab import selftest
    for i, fn in enumerate(selftest.ALL_CRITERIA, start=1):
        m[f"selftest.c{i}_s"] = per(stats.total(f"selftest.{fn.__name__}"))
    m["reporting.write_s"] = per(stats.total("reporting.ReportBundle.write"))
    m["reporting.bytes_written"] = float(bytes_written)
    from tracer import TRACED_MODULES
    for module in TRACED_MODULES:
        m[f"layer.{module}.self_s"] = per(stats.module_self_s(module))
    return m


def provenance() -> dict:
    import numpy
    import scipy

    def lib(mod, kind):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"][kind]["name"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": lib(numpy, "blas"), "scipy_lapack": lib(scipy, "lapack")}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def cmd_trace(wl, args, inputs, outdir) -> dict:
    """Untraced and traced calls in alternation, on the same inputs.

    Alternating keeps drift of the machine out of the tracing overhead,
    the median of the paired differences.  A pooled workload is traced
    serially (pool workers are other processes); its serial untraced calls
    also give the pool's parallel efficiency against the pooled calls.
    """
    from tracer import SpanStats, Tracer
    import fastdiff_lab
    serial = wl.build(args.seed, serial=True) if wl.pooled else inputs
    tracer = Tracer()
    ref, run, pooled = [], [], []
    begin, rounds_s = time.perf_counter(), 0.0
    while not ref or time.perf_counter() - begin + rounds_s < args.seconds:
        t0 = time.perf_counter()
        ref.append(call_once(wl, serial, outdir))
        tracer.install(fastdiff_lab)
        try:
            run.append(call_once(wl, serial, outdir))
        finally:
            tracer.uninstall()
        if wl.pooled:
            pooled.append(call_once(wl, inputs, outdir))
        rounds_s = time.perf_counter() - t0

    def wall(results):
        return [sum(r["parts"].values()) for r in results]

    layers = per_layer(SpanStats(tracer), len(run), run[-1]["bytes_written"])
    layers["trace.spans"] = len(tracer) / len(run)
    layers["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(wall(run), wall(ref)))
    layers["cli.sweep.parallel_efficiency"] = statistics.median(wall(ref)) / (
        (os.cpu_count() or 1) * statistics.median(wall(pooled))) if pooled else 0.0
    if args.spans:
        tracer.dump(os.path.join(ROOT, args.spans))
    everything = ref + run + pooled
    same = [r["fingerprint"] == everything[0]["fingerprint"] for r in everything[1:]]
    failures = [f for r in everything for f in r["failures"]]
    failures += [f"{wl.name}: same seed, different outputs"] * same.count(False)
    return {"wall_s": wall(pooled or ref), "traced_wall_s": wall(run),
            "attempted": sum(r["attempted"] for r in everything) + len(same),
            "failed": sum(r["failed"] for r in everything) + same.count(False),
            "failures": failures[:MAX_FAILURES_SHOWN],
            "accuracy": ref[0]["accuracy"], "per_layer": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["call", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans", help="write the traced calls' spans to "
                        "this path (relative to the checkout), one JSON per line")
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS
    imported = time.monotonic()
    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    built = time.monotonic()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as outdir:
        if args.mode == "call":
            result = call_once(wl, inputs, outdir)
        else:
            result = cmd_trace(wl, args, inputs, outdir)
    result.update(imported=imported, built=built, peak_rss_mb=peak_rss_mb(),
                  provenance=provenance())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
