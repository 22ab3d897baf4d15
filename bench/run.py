"""spinorlab benchmark: one closed-loop client driving the public API in-process.

Run from the repository root:

    python3 bench/run.py --workload verify_suite --seed 1 --seconds 30 --trace 0

The workloads and their correctness gates are in ``workloads.py``.  Every op
is checked; the run exits 1 when any op fails and 2 when it cannot start.
The last line of standard output is the JSON result; provenance, every op
latency and the spans go to ``bench/out/``.  Metric names and units come
from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics, tracing off:

* ``setup_s``: median over fresh interpreters of import plus the workload's
  set-up (catalog, generator sets, ``structure_signs`` calibration, oracle
  pool);
* ``checks_per_s``: verified results (CheckResults, element verdicts or
  cross-checked verdicts) per second of op time;
* ``op_p50_s``: median over the ops of a pass of each op's median latency
  across the passes run in ``--seconds``.  Every pass repeats the same ops
  with new seeds, and the per-op median keeps host noise from reordering ops
  of different cost near the median; with one op per pass (``verify_suite``)
  it is the plain median;
* ``op_p90_s``: 90th percentile of all op latencies of those passes;
* ``pass_share``: ops that passed every gate / ops attempted;
* ``worst_margin_dec``: mean over the ops of the workload's first
  ``margin_passes`` passes of each op's minimum over checks of
  log10(tol / residual).  Those passes always run in full, so the value
  depends on the seed only, not on how many ops fit in ``--seconds``;
* ``peak_rss_mb``: peak resident memory of the process.

Times are in reference seconds: each is scaled by a host-speed kernel timed
just before, inside and just after it (``hostspeed.py``), so load from other
tenants of the host does not read as a change of the program.  Raw times are
in ``bench/out/``.

``--trace 1`` runs one pass untraced and the same pass twice under the span
tracer of ``tracing.py``, fails unless the work counters of the two traced
passes are equal or a layer the workload must exercise shows no calls, and
reports per-layer metrics over the set-up plus the first traced pass.

Smoke test: ``python3 -m pytest bench/smoke_check.py``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Single-threaded BLAS: the matrices are tiny and the host has two cores,
# so threads add variance, not speed.  Must be set before numpy is imported.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
SETUP_REPEATS = 5             # fresh-process set-ups per run; median reported
MAX_ERRORS = 100              # failed-op messages kept for the report
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}]({seed!r})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_probe(name, seed):
    """Wall time of import plus workload set-up in a fresh interpreter."""
    code = SETUP_PROBE.format(paths=[str(SRC), str(BENCH)], name=name,
                              seed=seed)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def finite_or_none(x):
    return x if math.isfinite(x) else None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted/failed ops, checks and margins of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.margins = []          # per-op worst margin, finite ones only
        self.errors = []           # the first MAX_ERRORS of them

    def run(self, op, keep_margin=False):
        """Run and check one op; whether it passed.

        ``keep_margin`` adds the op's margin to ``margins``.
        """
        self.attempted += 1
        try:
            res = op()
        except Exception:
            self.fail(traceback.format_exc())
            return False
        if res.error is not None:
            self.fail(res.error)
            return False
        self.checks += res.checks
        if keep_margin and math.isfinite(res.margin):
            self.margins.append(res.margin)
        return True

    def fail(self, error):
        """Record a failed op."""
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(error)

    def fail_gate(self, error):
        """Record a failed run-level gate, counted as one more failed op."""
        self.attempted += 1
        self.fail(error)


def timed_run(wl_cls, seed, seconds):
    """End-to-end metrics; times are in reference seconds (see hostspeed.py)."""
    import hostspeed
    speed = hostspeed.HostSpeed()
    setups = []                  # (start, end) of each set-up probe
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        setups.append((t0, t0 + setup_probe(wl_cls.name, seed)))
    speed.sample()
    wl = wl_cls(seed)
    tally = Tally()
    tally.run(wl.pass_ops(0)[0])                       # warm-up
    checks0 = tally.checks
    spans = []                   # (index in pass, start, end) of passed ops
    passes = 0
    speed.sample()
    start = time.perf_counter()
    with speed.sampling():
        while (time.perf_counter() - start < seconds
               or passes < wl_cls.margin_passes):
            keep = passes < wl_cls.margin_passes
            for k, op in enumerate(wl.pass_ops(passes)):
                t0 = time.perf_counter()
                if tally.run(op, keep_margin=keep):
                    spans.append((k, t0, time.perf_counter()))
            passes += 1
    speed.sample()
    lat = [speed.reference_seconds(t0, t1) for _, t0, t1 in spans]
    by_op = {}
    for (k, _, _), dt in zip(spans, lat):
        by_op.setdefault(k, []).append(dt)
    enough = len(lat) >= 2               # else (nearly) every op failed
    metrics = {
        "setup_s": statistics.median(speed.reference_seconds(t0, t1)
                                     for t0, t1 in setups),
        "checks_per_s": (tally.checks - checks0) / sum(lat) if enough
        else math.nan,
        "op_p50_s": (statistics.median(map(statistics.median,
                                           by_op.values()))
                     if enough else math.nan),
        "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8]
                     if enough else math.nan),
        "pass_share": 1.0 - tally.failed / tally.attempted,
        "worst_margin_dec": (statistics.fmean(tally.margins)
                             if tally.margins else math.nan),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"passes": passes, "wall_s": time.perf_counter() - start,
              "kernel_s": speed.kernels, "kernel_at_s": speed.times,
              "kernel_span_s": speed.spans, "setup_span_s": setups,
              "op_span_s": spans}
    return tally, metrics, detail


def traced_run(wl_cls, seed):
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_phase("setup")
    try:
        wl = wl_cls(seed)
    finally:
        tracer.uninstall()
    tally = Tally()
    ops = wl.pass_ops(0)
    tally.run(ops[0])                                  # warm-up
    t0 = time.perf_counter()
    for op in ops:
        tally.run(op)
    walls = {"untraced": time.perf_counter() - t0}
    tracer.install()
    try:
        for phase in ("pass1", "pass2"):
            tracer.begin_phase(phase)
            t0 = time.perf_counter()
            for i, op in enumerate(ops):
                tracer.current_op = i
                tally.run(op)
            walls[phase] = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    c1, c2 = tracer.phase_counts("pass1"), tracer.phase_counts("pass2")
    if c1 != c2:
        diff = sorted(k for k in set(c1) | set(c2) if c1[k] != c2[k])
        tally.fail_gate(f"work counters differ between traced passes: {diff}")

    counts = tracer.phase_counts("setup") + c1
    metrics = {"trace.overhead_s": walls["pass1"] - walls["untraced"]}
    for layer, (calls, incl, self_s) in tracer.layer_times(
            ["setup", "pass1"]).items():
        metrics[layer + ".calls"] = calls
        metrics[layer + ".s"] = incl
        metrics[layer + ".self_s"] = self_s
    for key in tracing.COUNT_LAYERS:
        metrics[key + ".calls"] = counts[key + ".calls"]
    for key in ("opcalc.coeff_evals", "symmetry.coherence_pairs",
                "symmetry.solve_intertwiner.invariant",
                "symmetry.solve_intertwiner.noninvariant",
                "symmetry.solve_intertwiner.indeterminate"):
        metrics[key] = counts[key]
    metrics["symmetry.oracle_agree_ratio"] = (
        wl.agreed / wl.compared if wl.compared else 0.0)

    idle = [k for k in wl_cls.exercises
            if metrics.get(k + ".calls", metrics.get(k)) == 0]
    if idle:
        tally.fail_gate(f"layers not exercised: {idle}")

    tracer.save(OUT / f"spans-{wl_cls.name}-seed{seed}.npz")
    detail = {"pass_wall_s": walls, "counts_pass1": dict(c1)}
    return tally, metrics, detail


def provenance(args):
    import numpy
    import scipy
    commit = None                     # the benchmark may run outside git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
            "git_commit": commit, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spinorlab" / "__init__.py").is_file():
        print(f"no spinorlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    if args.trace:
        tally, values, detail = traced_run(wl_cls, args.seed)
        wanted = spec["per_layer"]
    else:
        tally, values, detail = timed_run(wl_cls, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": finite_or_none(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}

    prov = provenance(args)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "metrics": metrics, "detail": detail,
                    "errors": tally.errors}, indent=1))
    for err in tally.errors[:5]:
        print(f"FAILED: {err}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
