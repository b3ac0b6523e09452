"""The benchmark's workloads: inputs from a seed, one call, checks.

Each workload builds its inputs from the workload seed (``build``), makes
one call into the package's public functions (``call``), and checks that
call's outputs against the tolerances the repository already pins
(``checks``).  Accuracy numbers that are reported but not part of the
end-to-end contract come from ``accuracy``.

A call is a fixed sequence of timed parts (one per CLI command, criterion
or semigroup run).  Parts run one after another on the blocking path, so
the sum of their times is the call's wall time.  Right before and right
after each part, untimed, a fixed computation is timed a few times
(``reference_loop``): the measure of how fast the core ran just then.

Report files go to a directory the caller owns; a fingerprint of their CSV
bodies lets two calls with one seed be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from fastdiff_lab import cli, closedform, evolve, geometry, linop, selftest
from fastdiff_lab.asymptotics import WindowPolicy
from fastdiff_lab.config import ExperimentConfig, apply_overrides

SPECTRAL_CASES = ((3, 2.0 / 3.0), (1, 0.5), (3, 0.8))
SEMIGROUP_COUNTS = (1200, 4800)
SWEEP_M = (0.62, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
REFERENCE_REPEATS = 3  # before and after each part
_REFERENCE_W = np.linspace(0.1, 1.0, 1200)


def reference_loop() -> float:
    """Seconds a fixed computation takes: the speed reference.

    It mixes what the package's hot paths do (ufuncs on a 1200-node array,
    a tridiagonal banded solve, interpreter-bound scalar work) in code of
    the benchmark's own, so no change to the package moves it.
    """
    t0 = time.perf_counter()
    w = _REFERENCE_W
    for _ in range(36):
        g = (1.0 + w) ** 0.6 - 1.0
        f = np.diff(g, prepend=0.0) - 0.01 * w
        ab = np.empty((3, w.size))
        ab[0], ab[1], ab[2] = -1.0, 4.0 + np.abs(f), -1.0
        delta = scipy.linalg.solve_banded((1, 1), ab, -f)
        float(np.max(np.abs(delta)))
    s = 0
    for i in range(27000):
        s += i * i
    return time.perf_counter() - t0


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Output:
    """What one call produced: part times, the reference times around each
    part, CSV bodies, numbers to check."""
    parts: dict[str, float] = field(default_factory=dict)
    reference: dict[str, list[float]] = field(default_factory=dict)
    csv: dict[str, bytes] = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    bytes_written: int = 0

    @contextmanager
    def part(self, name: str):
        around = [reference_loop() for _ in range(REFERENCE_REPEATS)]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.parts[name] = time.perf_counter() - t0
            around += [reference_loop() for _ in range(REFERENCE_REPEATS)]
            self.reference[name] = around

    def fingerprint(self) -> str:
        """Digest of everything that must repeat exactly for one seed."""
        h = hashlib.sha256()
        for name in sorted(self.csv):
            h.update(name.encode() + b"\0" + self.csv[name] + b"\0")
        h.update(repr(self.values.get("deterministic")).encode())
        return h.hexdigest()


class Workload:
    name = ""
    pooled = False  # runs its items through the CLI's process pool

    def build(self, seed: int, serial: bool = False):
        raise NotImplementedError

    def accuracy(self, out: Output) -> dict:
        return {}


def _write(bundle, outdir: str, out: Output, tag: str):
    for path in bundle.write(os.path.join(outdir, tag)):
        with open(path, "rb") as fh:
            body = fh.read()
        out.bytes_written += len(body)
        if path.endswith(".csv"):
            out.csv[f"{tag}/{os.path.basename(path)}"] = body


class Expand(Workload):
    """cli.cmd_expand on the default config, the bump seed from the seed."""
    name = "expand"

    def build(self, seed: int, serial: bool = False):
        cfg = apply_overrides(ExperimentConfig(),
                              initial_data={"seed": seed}).validate()
        params = closedform.derive_params(cfg.model.n, cfg.model.m, cfg.model.B)
        grid = geometry.make_grid(cfg.grid.s_max, cfg.grid.count)
        i = cfg.initial_data
        state0 = evolve.bump_data(grid, i.amplitude, i.seed, params,
                                  project_mass=i.project_mass,
                                  centers=i.centers)
        return {"cfg": cfg, "state0": state0}

    def call(self, inputs, outdir: str) -> Output:
        out = Output()
        traces = []
        run = evolve.run

        def keep(*args, **kwargs):  # the trace carries the mass record
            traces.append(run(*args, **kwargs))
            return traces[-1]

        evolve.run = keep
        try:
            with out.part("cmd_expand"):
                bundle = cli.cmd_expand(inputs["cfg"])
                _write(bundle, outdir, out, "expand")
        finally:
            evolve.run = run
        trace = traces[-1]
        s = bundle.summary
        drift = float(np.max(np.abs(trace.mass_defect - trace.mass_defect[0])))
        out.values = {
            "gamma_measured": s["gamma_measured"],
            "gamma_closed": s["gamma_closed_form"],
            "mass_drift_per_time": drift / (trace.times[-1] - trace.times[0]),
        }
        return out

    def checks(self, out: Output) -> list[Check]:
        v = out.values
        per_t = v["mass_drift_per_time"]
        return [
            Check("expand: mass drift <= 1e-6 per unit time (criterion 7)",
                  bool(per_t <= 1e-6), f"{per_t:.3g}"),
            Check("expand: gamma finite",
                  bool(np.isfinite(v["gamma_measured"])),
                  f"{v['gamma_measured']!r}"),
        ]

    def accuracy(self, out: Output) -> dict:
        v = out.values
        return {"gamma_rel_err": abs(v["gamma_measured"] - v["gamma_closed"])
                / abs(v["gamma_closed"])}


class Spectral(Workload):
    """cmd_spectrum at N=4800 for three (n, m), then semigroup_decay in the
    criterion-4 shape at N=1200 and 4800; the seed moves the Gaussian."""
    name = "spectral"

    def build(self, seed: int, serial: bool = False):
        centre = 1.0 + random.Random(seed).random()  # within [1, 2)
        configs = [apply_overrides(ExperimentConfig(), model={"n": n, "m": m},
                                   grid={"count": 4800}).validate()
                   for n, m in SPECTRAL_CASES]
        params = closedform.derive_params(3, 2.0 / 3.0)
        semigroup = []
        for count in SEMIGROUP_COUNTS:
            grid = geometry.make_grid(12.0, count)
            s = grid.nodes
            for eta in (0.0, params.eta_cr / 2.0, params.eta_cr):
                modes = [md for md, lam in closedform.admissible_modes(eta, params)
                         if md.ell == 0
                         and lam > closedform.essential_threshold(0, eta, params)]
                f0 = geometry.GridFunction(
                    grid, 0, np.cosh(s) ** (-eta) * np.exp(-(s - centre) ** 2))
                cinf = closedform.potential_profile(eta, params)["c_inf"]
                semigroup.append((count, eta, grid, f0, modes, cinf))
        return {"configs": configs, "params": params, "semigroup": semigroup}

    def call(self, inputs, outdir: str) -> Output:
        out = Output()
        matched = []
        for i, cfg in enumerate(inputs["configs"]):
            with out.part(f"cmd_spectrum{i}"):
                bundle = cli.cmd_spectrum(cfg)
                _write(bundle, outdir, out, f"spectrum{i}")
            thr = {(r[0], r[1]): r[2] for r in bundle.table("thresholds").rows}
            for r in bundle.table("discrete").rows:
                if r[6] != "":
                    matched.append((cfg.model.n, cfg.model.m, r[0], r[1], r[3],
                                    r[4], r[5], r[6], thr[(r[0], r[1])]))
        params = inputs["params"]
        policy = WindowPolicy(value_lo=1e-9, value_hi=1e-4)
        slopes = []
        for count, eta, grid, f0, modes, cinf in inputs["semigroup"]:
            with out.part(f"semigroup_decay.N{count}.eta{eta:.3g}"):
                op = linop.assemble(0, eta, grid, params)
                fit = linop.semigroup_decay(op, f0, modes, 5.0, 2e-3, params,
                                            policy=policy)
            slopes.append((count, eta, fit.slope, cinf))
        out.values = {"matched": matched, "slopes": slopes,
                      "deterministic": tuple(slopes)}
        return out

    def checks(self, out: Output) -> list[Check]:
        result = []
        for n, m, eta, _, ell, k, lam, err, thr in out.values["matched"]:
            # criterion 1: 1e-2, or 5e-2 within 0.5 of the essential threshold
            tol = 5e-2 if abs(lam - thr) < 0.5 else 1e-2
            result.append(Check(
                f"spectral: n={n} m={m:.4g} eta={eta:.3g} mode=({ell},{k}) "
                f"|error| <= {tol} (criterion 1)",
                bool(abs(err) <= tol), f"{err:.3g}"))
        result.append(Check("spectral: some eigenvalues matched",
                            bool(out.values["matched"])))
        for count, eta, slope, cinf in out.values["slopes"]:
            if count != 1200:
                continue  # N=4800 is reported, not gated (see README)
            lo, hi = cinf - 0.10 * abs(cinf), cinf + 0.05 * abs(cinf)
            result.append(Check(
                f"spectral: N=1200 eta={eta:.3g} slope in [{lo:.4f}, {hi:.4f}] "
                f"(criterion 4)", bool(lo <= slope <= hi), f"{slope:.4f}"))
        return result

    def accuracy(self, out: Output) -> dict:
        acc = {"eig_max_err": max(abs(r[7]) for r in out.values["matched"])}
        for count in SEMIGROUP_COUNTS:
            acc[f"semigroup_slope_err.N{count}"] = max(
                abs(slope - cinf) / abs(cinf)
                for c, _, slope, cinf in out.values["slopes"] if c == count)
        return acc


class Sweep(Workload):
    """cmd_sweep over SWEEP_M at N=600 with the CLI's default pool."""
    name = "sweep"
    pooled = True

    def build(self, seed: int, serial: bool = False):
        # jobs unset: the CLI default, one worker per core
        cfg = apply_overrides(ExperimentConfig(), grid={"count": 600},
                              initial_data={"seed": seed},
                              analysis={"sweep_m": SWEEP_M},
                              jobs={"jobs": 1} if serial else {})
        return {"cfg": cfg.validate()}

    def call(self, inputs, outdir: str) -> Output:
        out = Output()
        with out.part("cmd_sweep"):
            bundle = cli.cmd_sweep(inputs["cfg"])
            _write(bundle, outdir, out, "sweep")
        out.values = {"rows": bundle.table("gamma_delta").rows}
        return out

    def checks(self, out: Output) -> list[Check]:
        return [Check(f"sweep: row m={r[1]} has no error", not r[10], r[10])
                for r in out.values["rows"]]

    def accuracy(self, out: Output) -> dict:
        errs = [abs(r[3] - r[4]) / abs(r[4]) for r in out.values["rows"]
                if not r[10]]
        return {"gamma_rel_err": max(errs) if errs else float("nan")}


class Acceptance(Workload):
    """All 11 acceptance criteria: the body of ``selftest.run_selftest``,
    one timed part per criterion.  ``fast=False`` is the resolution the
    acceptance tests pin, ``fast=True`` that of the CLI's selftest command."""

    def __init__(self, name: str, fast: bool):
        self.name, self.fast = name, fast

    def build(self, seed: int, serial: bool = False):
        return {}  # its seeds are pinned by the acceptance tests

    def call(self, inputs, outdir: str) -> Output:
        out = Output()
        results = []
        for runner in selftest.ALL_CRITERIA:
            with out.part(runner.__name__):
                results.extend(runner(fast=self.fast))
        out.values = {"results": results, "deterministic": tuple(
            (r.criterion, r.detail, r.value) for r in results
            if "runtime_s" not in r.detail)}
        return out

    def checks(self, out: Output) -> list[Check]:
        return [Check(f"{self.name}: {r.criterion} {r.detail} {r.bound}",
                      bool(r.passed), f"{r.value!r}")
                for r in out.values["results"]]


WORKLOADS = {w.name: w for w in (
    Expand(), Spectral(), Sweep(), Acceptance("acceptance", fast=False),
    Acceptance("selftest", fast=True))}
