#!/usr/bin/env python3
"""modulon benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): spectrum, verify,
escape, packet.  Each is a closed loop with one client: one process runs
the workload's operation back to back until ``--seconds`` have passed, and
checks the science results of every operation.

``--trace 0`` reports the end-to-end metrics: the median operation wall
time, the median of five set-ups (process start to the first timed
operation), and the peak RSS.  ``--trace 1`` reports the per-layer metrics:
the first half of the time runs untraced, the second half under the span
recorder, and for spectrum and verify a child process repeats one traced
operation with OpenBLAS limited to one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(metrics, provenance, science results, checks) is also written to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``, and the spans
of a traced run to ``perfbench/out/spans-<workload>-seed<seed>.jsonl.gz``.
The program is imported from this checkout's ``src/``; without it the
benchmark exits with code 2 and prints no result.
"""

import time

T_START = time.perf_counter()

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("spectrum", "verify", "escape", "packet")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
# workloads whose traced run adds the one-thread OpenBLAS baseline
T1_WORKLOADS = ("spectrum", "verify")
T1_ENV = {"OPENBLAS_NUM_THREADS": "1"}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# per-layer metric names and units; the suffix says how each is reduced
PER_LAYER = [
    ("waves.refine_newton.calls", "count"),
    ("waves.refine_newton.self_s", "s"),
    ("waves.newton_iters", "count"),
    ("bloch.scan_bloch.calls", "count"),
    ("bloch.scan_bloch.self_s", "s"),
    ("bloch.k_samples", "count"),
    ("bloch.assemble_bloch.calls", "count"),
    ("bloch.assemble_bloch.self_s", "s"),
    ("bloch.eigens.calls", "count"),
    ("bloch.eigens.self_s", "s"),
    ("bloch.eigens.p50_ms", "ms"),
    ("bloch.eigens.p90_ms", "ms"),
    ("bloch.eigens.matrix_n", "count"),
    ("bloch.eigens.p50_ms.t1", "ms"),
    ("bloch.fit_band.self_s", "s"),
    ("bloch.unstable_eigenfunction.calls", "count"),
    ("bloch.unstable_eigenfunction.self_s", "s"),
    ("bloch.export_spectrum_dump.self_s", "s"),
    ("bloch.export_spectrum_dump.bytes", "bytes"),
    ("semigroup.propagator_norm.calls", "count"),
    ("semigroup.propagator_norm.self_s", "s"),
    ("semigroup.propagator_norm.p50_ms", "ms"),
    ("semigroup.propagator_norm.p90_ms", "ms"),
    ("semigroup.propagator_norm.p50_ms.t1", "ms"),
    ("semigroup.probe_growth.self_s", "s"),
    ("semigroup.dual_propagator_norm.self_s", "s"),
    ("semigroup.trichotomy_split.self_s", "s"),
    ("semigroup.riesz_projection.self_s", "s"),
    ("evolve.step_coef.calls", "count"),
    ("evolve.step_coef.self_s", "s"),
    ("evolve.step_coef.p50_us", "us"),
    ("evolve.step_coef.p99_us", "us"),
    ("evolve.nonlinear.calls", "count"),
    ("evolve.nonlinear.self_s", "s"),
    ("evolve.orbital_distance.calls", "count"),
    ("evolve.orbital_distance.self_s", "s"),
    ("evolve.conserved_quantities.calls", "count"),
    ("evolve.conserved_quantities.self_s", "s"),
    ("evolve.Evolver_init.self_s", "s"),
    ("evolve.lift_wave.self_s", "s"),
    ("evolve.state_modes", "count"),
    ("evolve.fft_len", "count"),
    ("experiments.run_multiperiodic.self_s", "s"),
    ("experiments.save_report.self_s", "s"),
    ("experiments.save_report.bytes", "bytes"),
    ("experiments.run_localized.self_s", "s"),
    ("experiments.build_band_packet.self_s", "s"),
    ("fields.synthesize_packet.self_s", "s"),
    ("fields.l2_norm.calls", "count"),
    ("fields.l2_norm.self_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
]

# per-layer values read from recorder counters or maxima rather than spans
_COUNTERS = ("waves.newton_iters", "bloch.k_samples",
             "bloch.export_spectrum_dump.bytes", "experiments.save_report.bytes")
_MAXIMA = ("bloch.eigens.matrix_n", "evolve.state_modes", "evolve.fft_len")
_PERCENTILES = {"p50_ms": (50, 1e3), "p90_ms": (90, 1e3),
                "p50_us": (50, 1e6), "p99_us": (99, 1e6)}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="problem sizes; 'tiny' is for the benchmark's own tests")
    ap.add_argument("--role", default="main", choices=("main", "setup", "t1"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Import modulon from this checkout's src/, or exit 2 without a result."""
    init = os.path.join(SRC, "modulon", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: no modulon sources at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import modulon
    if os.path.realpath(modulon.__file__) != os.path.realpath(init):
        print(f"perfbench: imported modulon from {modulon.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


# -- child processes ---------------------------------------------------------------


def run_child(args, role, extra_env=None) -> dict:
    """Run this script in another role and return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--role", role]
    env = dict(os.environ, **(extra_env or {}))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the timed loop ------------------------------------------------------------------


class Tally:
    """Operation times, science results and check outcomes of one process;
    a workload's ``check`` reports into it through ``add``."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.science = None

    def add(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


def run_ops(wl, ctx, seconds: float, tally: Tally, recorder=None):
    """Run operations back to back; start another only if it is expected to
    finish within ``seconds``.  Returns the times of this phase."""
    op = wl.OPS[ctx.workload]
    phase = []
    t_phase = time.perf_counter()
    while True:
        if recorder is not None:
            recorder.run_id = len(phase)
        t0 = time.perf_counter()
        try:
            science, check = op(ctx)
        except Exception:
            tally.add(f"op[{len(tally.times)}]", False, traceback.format_exc(limit=3))
            science = check = None
        dt = time.perf_counter() - t0
        phase.append(dt)
        tally.times.append(dt)
        if check is not None:
            check(tally)
            if tally.science is None:
                tally.science = science
            else:
                same = json.dumps(science, sort_keys=True) == json.dumps(tally.science, sort_keys=True)
                tally.add("repeat_identical", same, "science differs between operations")
        elapsed = time.perf_counter() - t_phase
        if elapsed + statistics.median(phase) > seconds:
            return phase


# -- per-layer reduction -------------------------------------------------------------


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(rec, n_ops: int) -> dict:
    """Per-layer values: set-up spans count once, operation spans per operation."""
    runs = list(range(n_ops))
    ops = rec.summary(set(runs))
    setup = rec.summary({-1})
    counts = rec.counts(runs)
    setup_counts = rec.counts([-1])
    out = {}
    for name, unit in PER_LAYER:
        if name in _COUNTERS:
            value = setup_counts.get(name, 0.0) + counts.get(name, 0.0) / n_ops
        elif name in _MAXIMA:
            value = rec.maxima.get(name, 0)
        else:
            span, _, stat = name.rpartition(".")
            o, s = ops.get(span), setup.get(span)
            if stat in ("calls", "self_s"):
                value = (s[stat] if s else 0) + (o[stat] / n_ops if o else 0)
            elif stat in _PERCENTILES:
                q, scale = _PERCENTILES[stat]
                durations = (o or s or {"durations": []})["durations"]
                value = _percentile(durations, q) * scale
            else:
                continue
        out[name] = {"value": value, "unit": unit}
    return out


# -- provenance ----------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> dict:
    """OpenBLAS thread counts as reported by the libraries numpy and scipy load."""
    import ctypes

    import numpy
    import scipy
    out = {}
    for pkg, symbols in ((numpy, ("scipy_openblas_get_num_threads64_",
                                  "openblas_get_num_threads64_", "openblas_get_num_threads")),
                         (scipy, ("scipy_openblas_get_num_threads", "openblas_get_num_threads"))):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in symbols:
                if hasattr(lib, sym):
                    out[pkg.__name__] = int(getattr(lib, sym)())
                    break
    return out


def provenance(args, wl) -> dict:
    import numpy
    import scipy
    blas = {}
    for pkg in (numpy, scipy):
        try:
            dep = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[pkg.__name__] = f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, ValueError):
            blas[pkg.__name__] = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in T1_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "inputs": wl.draw_inputs(args.seed),
        "size": args.size,
        "client": "closed loop, one client",
    }


# -- roles -----------------------------------------------------------------------


def role_setup(args, wl):
    """Set-up only: print the seconds from process start to a ready workload."""
    outdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        wl.setup(args.workload, args.seed, args.size, outdir)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def role_t1(args, wl):
    """One traced operation (run under a one-thread BLAS by the parent)."""
    from tracer import Recorder
    outdir = tempfile.mkdtemp(prefix="t1-", dir=OUT)
    try:
        ctx = wl.setup(args.workload, args.seed, args.size, outdir)
        rec = Recorder()
        rec.install()
        rec.run_id = 0
        wl.OPS[args.workload](ctx)
        rec.uninstall()
        summary = rec.summary({0})
        out = {}
        for span in ("bloch.eigens", "semigroup.propagator_norm"):
            out[span + ".p50_ms.t1"] = _percentile(
                summary.get(span, {"durations": []})["durations"], 50) * 1e3
        out["blas_threads"] = _blas_threads()
        print(json.dumps(out))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def role_main(args, wl):
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    try:
        if args.trace:
            metrics = traced_run(args, wl, outdir, tally, record)
        else:
            metrics = untraced_run(args, wl, outdir, tally, record)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    record["provenance"] = provenance(args, wl)
    record["science"] = tally.science
    record["op_times_s"] = tally.times
    fail_frac = tally.failed / tally.attempted
    record["checks"] = {"attempted": tally.attempted, "failed": tally.failed,
                        "fail_frac": fail_frac, "failures": tally.failures}
    record["metrics"] = metrics
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {len(tally.times)} operations, "
          f"{tally.failed}/{tally.attempted} checks failed "
          f"(fail_frac {fail_frac:.4g})")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("science " + json.dumps(tally.science, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def untraced_run(args, wl, outdir, tally, record) -> dict:
    ctx = wl.setup(args.workload, args.seed, args.size, outdir)
    setups = [time.perf_counter() - T_START]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child(args, "setup")["setup_s"])
    record["setup_samples_s"] = setups
    run_ops(wl, ctx, args.seconds, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": statistics.median(tally.times),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(args, wl, outdir, tally, record) -> dict:
    from tracer import Recorder
    rec = Recorder()
    rec.install()
    ctx = wl.setup(args.workload, args.seed, args.size, outdir)
    rec.uninstall()
    untraced = run_ops(wl, ctx, args.seconds / 2.0, tally)
    rec.install()
    traced = run_ops(wl, ctx, args.seconds / 2.0, tally, recorder=rec)
    rec.uninstall()
    metrics = layer_metrics(rec, len(traced))
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics["bench.trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    t1 = {}
    if args.workload in T1_WORKLOADS:
        t1 = run_child(args, "t1", T1_ENV)
    for key in ("bloch.eigens.p50_ms.t1", "semigroup.propagator_norm.p50_ms.t1"):
        metrics[key] = {"value": t1.get(key, 0.0), "unit": "ms"}
    record["missing_targets"] = rec.missing
    record["t1"] = t1
    record["untraced_op_times_s"] = untraced
    record["traced_op_times_s"] = traced
    rec.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    return {name: metrics[name] for name, _ in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    wl = load_program()
    os.makedirs(OUT, exist_ok=True)
    {"main": role_main, "setup": role_setup, "t1": role_t1}[args.role](args, wl)


if __name__ == "__main__":
    main()
