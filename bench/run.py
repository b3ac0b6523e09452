"""fastdiff-lab benchmark: end-to-end and per-layer metrics of its workloads.

One run of one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload expand --seed 1 --trace 0
    python3 bench/run.py --workload expand --seed 1 --save results.json

(``--save`` with one run adds it to the result set in that file.)

Every workload, several seeds each, with a table of every metric:

    python3 bench/run.py --all --runs 10 --save results.json
    python3 bench/run.py --all --trace 1          # per-layer table

Two saved result sets, one row per workload and metric with a verdict:

    python3 bench/run.py --compare base.json new.json

Every untraced call runs in a fresh interpreter (``worker.py call``), a
traced run in one more (``worker.py trace``); see README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("expand", "spectral", "selftest", "sweep", "acceptance")
MIN_CALLS = 2
CALL_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# metrics every run reports besides the contract's end-to-end set; they are
# fixed by discretization, so one seed gives one value
ACCURACY_UNITS = {"gamma_rel_err": "ratio", "eig_max_err": "1",
                  "semigroup_slope_err.N1200": "ratio",
                  "semigroup_slope_err.N4800": "ratio"}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _process(args: list[str], timeout: float) -> dict:
    """One worker process, with its set-up times measured from the spawn."""
    t0 = time.monotonic()
    d = _child(args, timeout)
    d.update(setup_s=d["built"] - t0, import_s=d["imported"] - t0,
             inputs_s=d["built"] - d["imported"], process_s=time.monotonic() - t0)
    return d


def run_one(workload: str, seed: int, seconds: float, trace: int,
            spans: str | None = None) -> dict:
    """One benchmark run: the contract's result plus a detailed report.

    Untraced, every call runs in a fresh process, so caches the package
    keeps across calls in one process cannot hide work, and each process
    also measures set-up.  Processes start until the next one would end
    after ``seconds``, and at least two start, so outputs can be compared.
    """
    spec = load_spec()
    load = os.getloadavg()
    given = ["--workload", workload, "--seed", str(seed)]
    if trace:
        d = _process(["trace", *given, "--seconds", str(seconds)]
                     + (["--spans", spans] if spans else []), RUN_TIMEOUT_S)
        procs, walls, parts = [d], d["wall_s"], {}
        attempted, failed, failures = d["attempted"], d["failed"], d["failures"]
        wanted = spec["per_layer"]
        values = dict(d["per_layer"])
        values["setup.import_s"] = d["import_s"]
        values["setup.inputs_s"] = d["inputs_s"]
    else:
        procs = []
        begin = time.monotonic()
        while len(procs) < MIN_CALLS or \
                time.monotonic() - begin + procs[-1]["process_s"] <= seconds:
            procs.append(_process(["call", *given], CALL_TIMEOUT_S))
        parts: dict[str, list[float]] = {}
        for d in procs:
            for name, t in d["parts"].items():
                parts.setdefault(name, []).append(t)
        if not parts:
            raise BenchError(f"every call failed: {procs[0]['failures'][0]}")
        walls = [sum(d["parts"].values()) for d in procs if d["parts"]]
        differ = sum(d["fingerprint"] != procs[0]["fingerprint"] for d in procs[1:])
        attempted = sum(d["attempted"] for d in procs) + len(procs) - 1
        failed = sum(d["failed"] for d in procs) + differ
        failures = [f for d in procs for f in d["failures"]]
        failures += [f"{workload}: same seed, different outputs"] * differ
        wanted = spec["end_to_end"]
        # The host's cores slow down by up to half, in phases of seconds,
        # and the share of slow phases drifts over minutes.  Each part's
        # time over the reference times around it does not follow that
        # drift; the median over the run's calls drops the phases the two
        # did not share.  The parts run in sequence, so the sum is the call.
        ratios: dict[str, list[float]] = {}
        for d in procs:
            for name, t in d["parts"].items():
                ratios.setdefault(name, []).append(
                    t / statistics.median(d["reference"][name]))
        values = {
            "wall_ref": sum(statistics.median(r) for r in ratios.values()),
            "setup_s": statistics.median(d["setup_s"] for d in procs),
            "peak_rss_mb": max(d["peak_rss_mb"] for d in procs),
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics no run measures: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    samples = {"setup_s": [d["setup_s"] for d in procs],
               "peak_rss_mb": [d["peak_rss_mb"] for d in procs]}
    if not trace:
        samples["wall_ref"] = [sum(t / statistics.median(d["reference"][name])
                                   for name, t in d["parts"].items())
                               for d in procs if d["parts"]]
        samples["wall_s"] = walls
        samples["reference_s"] = [t for d in procs
                                  for around in d["reference"].values()
                                  for t in around]
    report = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "samples": samples, "parts": parts, "accuracy": procs[0]["accuracy"],
        "failures": failures[:20],
        "provenance": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            **procs[0]["provenance"], "git_sha": git_sha(),
            "loadavg_at_start": load,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        },
    }
    if trace:
        report["traced_wall_s"] = procs[0]["traced_wall_s"]
    return {"result": result, "report": report}


def print_run(run: dict, units: dict):
    """Human-readable lines for one run, every metric with unit and count."""
    res, rep = run["result"], run["report"]
    print(f"# {rep['workload']} seed={rep['seed']} trace={rep['trace']}")
    for name, samples in rep["samples"].items():
        q1, med, q3 = quartiles(samples)
        print(f"#   {name:28s} {res['metrics'].get(name, {'value': med})['value']:12.6g} "
              f"{units.get(name, 's'):6s} min={min(samples):.6g} q1={q1:.6g} "
              f"median={med:.6g} q3={q3:.6g} n={len(samples)}")
    if len(rep["parts"]) > 1:
        for name, times in rep["parts"].items():
            print(f"#     part {name:40s} min={min(times):.6g} "
                  f"median={statistics.median(times):.6g} n={len(times)}")
    frac = res["failed"] / res["attempted"]
    print(f"#   {'fail_frac':28s} {frac:12.6g} {'ratio':6s} "
          f"{res['failed']} failed of {res['attempted']} operations")
    for name, value in rep["accuracy"].items():
        print(f"#   {name:28s} {value:12.6g} {ACCURACY_UNITS[name]:6s} "
              "(reported, not gated)")
    if rep["trace"]:
        for name, m in res["metrics"].items():
            print(f"#   {name:44s} {m['value']:12.6g} {m['unit']}")
    for failure in rep["failures"]:
        print(f"# FAILED {failure}")
    print(f"# provenance {json.dumps(rep['provenance'], sort_keys=True)}")


def units_of(spec) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def per_run_values(run: dict) -> dict:
    """The values a result set compares: contract metrics, fail_frac, accuracy."""
    res, rep = run["result"], run["report"]
    values = {k: v["value"] for k, v in res["metrics"].items()}
    values["fail_frac"] = res["failed"] / res["attempted"]
    values.update(rep["accuracy"])
    return values


def print_table(runs: list[dict], units: dict):
    by_workload: dict[str, list] = {}
    for run in runs:
        by_workload.setdefault(run["report"]["workload"], []).append(run)
    print(f"{'workload':11s} {'metric':28s} {'unit':6s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'runs':>4s} {'samples':>7s}")
    for workload, wruns in by_workload.items():
        names = list(per_run_values(wruns[0]))
        for name in names:
            vals = [per_run_values(r)[name] for r in wruns]
            q1, med, q3 = quartiles(vals)
            n = sum(len(r["report"]["samples"].get(name, [0])) for r in wruns)
            unit = units.get(name) or ACCURACY_UNITS.get(name, "ratio")
            print(f"{workload:11s} {name:28s} {unit:6s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {len(vals):4d} {n:7d}")


def print_layers(runs: list[dict], spec: dict):
    names = [r["report"]["workload"] for r in runs]
    print(f"{'per-layer metric (per workload call)':44s} {'unit':6s} "
          + " ".join(f"{n:>12s}" for n in names))
    for m in spec["per_layer"]:
        vals = " ".join(f"{r['result']['metrics'][m['name']]['value']:12.6g}"
                        for r in runs)
        print(f"{m['name']:44s} {m['unit']:6s} {vals}")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Improved, regressed, unchanged or unresolved.

    ``base`` and ``new`` are per-run values, paired by position (by seed).
    """
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (b - n) > 0 for b, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (bmed - nmed) > bq3 - bq1:
        return "improved"
    every_better = all(sign * (n - b) < 0 for n in new for b in base)
    spread = max(bq3 - bq1, nq3 - nq1) / abs(bmed)
    if spread > bound and not every_better:
        return "unresolved"
    if sign * (nmed - bmed) / abs(bmed) > bound:
        return "regressed"
    return "unchanged"


def exact_verdict(base: list[float], new: list[float]) -> str:
    """Seed-for-seed comparison of values that repeat exactly for a seed
    (lower is better for all of them)."""
    diffs = [n - b for b, n in zip(base, new)]
    tol = 1e-9 * max(map(abs, base), default=0.0)
    if all(abs(d) <= tol for d in diffs):
        return "unchanged"
    return "regressed" if max(diffs) > tol else "improved"


def _by_seed(runs: list[dict], workload: str) -> dict:
    return {r["report"]["seed"]: per_run_values(r) for r in runs
            if r["report"]["workload"] == workload and not r["report"]["trace"]}


def compare(base_path: str, new_path: str) -> int:
    """One row per workload and metric, both sides paired by seed."""
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    with open(base_path) as fh:
        base = json.load(fh)["runs"]
    with open(new_path) as fh:
        new = json.load(fh)["runs"]
    print(f"{'workload':11s} {'metric':28s} {'unit':6s} "
          f"{'base median [q1, q3] n':>36s} {'new median [q1, q3] n':>36s} "
          f"{'new/base':>9s}  verdict")
    regressed = False
    for workload in WORKLOAD_NAMES:
        b, n = _by_seed(base, workload), _by_seed(new, workload)
        seeds = sorted(set(b) & set(n))
        if not seeds:
            continue
        for name in b[seeds[0]]:
            bv = [b[s][name] for s in seeds]
            nv = [n[s][name] for s in seeds]
            if name in bounds:
                m = bounds[name]
                v = verdict(bv, nv, m["better"], m["bound"])
                unit = m["unit"]
            else:
                v = exact_verdict(bv, nv)
                unit = ACCURACY_UNITS.get(name, "ratio")
            regressed |= v == "regressed"
            bq, nq = quartiles(bv), quartiles(nv)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            print(f"{workload:11s} {name:28s} {unit:6s} "
                  f"{bq[1]:11.5g} [{bq[0]:.4g}, {bq[2]:.4g}] n={len(bv):<3d}"
                  f"{nq[1]:11.5g} [{nq[0]:.4g}, {nq[2]:.4g}] n={len(nv):<3d}"
                  f"{ratio:9.4f}  {v}")
    return 1 if regressed else 0


def save(path: str, seconds: float, runs: list[dict]):
    """A result set: one run per line."""
    with open(path, "w") as fh:
        fh.write(f'{{"seconds": {json.dumps(seconds)}, "runs": [\n')
        fh.write(",\n".join(json.dumps(r) for r in runs))
        fh.write("\n]}\n")


def load_runs(path: str) -> list[dict]:
    """The runs of a result set, none if it does not exist yet."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return json.load(fh)["runs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fastdiff-lab benchmark",
        epilog="The last line of a single run is its JSON result.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in fresh processes")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result sets saved with --save")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--save", metavar="FILE",
                        help="with --all: write the result set; with --workload: "
                        "add the run to it")
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1: write every span, one JSON per line")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "fastdiff_lab", "__init__.py")):
        print(f"bench: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    if not args.all and not args.workload:
        parser.error("give --workload NAME, --all or --compare")
    spec = load_spec()
    units = units_of(spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if not args.all:
            run = run_one(args.workload, args.seed, args.seconds, args.trace,
                          args.spans)
            print_run(run, units)
            if args.save:
                save(args.save, args.seconds, load_runs(args.save) + [run])
            print(json.dumps(run["result"]))
            return 0
        runs = []
        for workload in WORKLOAD_NAMES:
            for r in range(1 if args.trace else args.runs):
                run = run_one(workload, args.seed + r, args.seconds, args.trace)
                print_run(run, units)
                runs.append(run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        print_layers(runs, spec)
        for run in runs:
            rep = run["report"]
            print(f"# {rep['workload']}: tracing overhead "
                  f"{run['result']['metrics']['trace.overhead_s']['value']:.4g} s "
                  f"per call; traced call "
                  f"{statistics.median(rep['traced_wall_s']):.4g} s")
    else:
        print_table(runs, units)
    if args.save:
        save(args.save, args.seconds, runs)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
