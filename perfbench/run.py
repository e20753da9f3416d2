#!/usr/bin/env python3
"""spdbci benchmark: three seeded workloads run against the public API.

Run from the repository root:

    python3 perfbench/run.py --workload live_stream --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``live_stream``,
``bootstrap`` and ``cli_session``. The program under test is the
``spdbci`` package in ``src/`` of the same checkout; the run fails with
exit code 2 when it is not there.

A run sets up its inputs from ``--seed`` several times (the median is
``setup_s``), then repeats the workload's job until ``--seconds`` have
passed. With ``--trace 0`` it prints the end-to-end metrics, measured with
tracing off. With ``--trace 1`` it runs one untraced job and one traced
job, in which every public function of each ``spdbci`` module is wrapped
in a span (``spans.py``), and prints the per-layer metrics; the spans are
written to ``.perfbench/traces/``. Either way the outputs of every job are
checked (``checks.py``) outside the timed region, and a failed check makes
the run incorrect.

Every metric is printed by name with its unit, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every job ran and every check passed.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("rss_peak_mb", "MB"),
)

# (name, unit); shares are of the traced job's wall time
PER_LAYER = (
    ("preprocessing.design_calls", "count"),
    ("preprocessing.design_share", "frac"),
    ("preprocessing.filter_calls", "count"),
    ("preprocessing.filter_samples", "count"),
    ("preprocessing.filter_share", "frac"),
    ("preprocessing.self_share", "frac"),
    ("estimators.estimate_calls", "count"),
    ("estimators.estimate_samples", "count"),
    ("estimators.estimate_share", "frac"),
    ("estimators.rank_deficient", "count"),
    ("estimators.self_share", "frac"),
    ("manifold.distance_calls", "count"),
    ("manifold.distance_share", "frac"),
    ("manifold.karcher_calls", "count"),
    ("manifold.karcher_points", "count"),
    ("manifold.karcher_share", "frac"),
    ("manifold.karcher_unconverged", "count"),
    ("manifold.self_share", "frac"),
    ("mdrm.classify_calls", "count"),
    ("mdrm.classify_self_share", "frac"),
    ("mdrm.train_self_share", "frac"),
    ("mdrm.potato_share", "frac"),
    ("mdrm.potato_rejected", "count"),
    ("mdrm.self_share", "frac"),
    ("online.push_calls", "count"),
    ("online.epochs", "count"),
    ("online.decisions", "count"),
    ("online.held_back", "count"),
    ("online.replays", "count"),
    ("online.self_share", "frac"),
    ("metrics.splits", "count"),
    ("metrics.self_share", "frac"),
    ("metrics.duplicate_draw_frac", "frac"),
    ("synthgen.load_share", "frac"),
    ("synthgen.bytes_read", "bytes"),
    ("cli.io_share", "frac"),
    ("cli.bytes_written", "bytes"),
    ("cli.import_s", "s"),
    ("cli.self_share", "frac"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "frac"),
    ("input.window_overlap", "frac"),
)

# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = ("online.epochs", "online.decisions", "manifold.distance_calls",
                "manifold.karcher_calls", "manifold.karcher_points",
                "preprocessing.design_calls", "estimators.estimate_calls",
                "metrics.splits")

IO_SPANS = ("cli.save_model", "cli.load_model", "cli.write_epoch_log")


def import_program():
    """Import ``spdbci`` from this checkout's ``src/``, or exit with 2."""
    if not (SRC / "spdbci" / "__init__.py").is_file():
        print(f"error: no spdbci package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import spdbci

    if Path(spdbci.__file__).resolve().parent != SRC / "spdbci":
        print(f"error: imported spdbci from {spdbci.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        sys.exit(2)


def measure_import():
    """Wall time of ``import spdbci.cli`` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import spdbci.cli"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                          capture_output=True, timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import spdbci.cli failed: "
                           f"{proc.stderr.decode(errors='replace')}")
    return elapsed


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    paths = []
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in paths:
                paths.append(path)
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run_job(workload, ctx, recorder=None):
    """One timed job; returns ``(outputs, wall seconds, rank-deficient
    warnings)``. With a recorder, the job (not its preparation) is traced.
    Warnings are recorded, not printed, in every job alike."""
    from spans import instrumented
    from spdbci.estimators import RankDeficientCovarianceWarning

    state = workload.prepare(ctx)
    with warnings.catch_warnings(record=True) as caught, \
            (instrumented(recorder) if recorder else contextlib.nullcontext()):
        warnings.simplefilter("always", RankDeficientCovarianceWarning)
        start = time.perf_counter()
        out = workload.job(ctx, state, recorder)
        wall = time.perf_counter() - start
    deficient = sum(issubclass(w.category, RankDeficientCovarianceWarning)
                    for w in caught)
    return out, wall, deficient


def layer_metrics(workload, ctx, out, recorder, untraced_wall, traced_wall,
                  rank_deficient, import_s):
    from spans import summarize

    s = summarize(recorder.spans)
    calls, inclusive, own = s["calls"], s["inclusive"], s["self"]
    extras, errors, layer_self = s["extras"], s["errors"], s["layer_self"]

    def share(seconds):
        return seconds / traced_wall

    values = {
        "preprocessing.design_calls": calls["preprocessing.design"],
        "preprocessing.design_share": share(inclusive["preprocessing.design"]),
        "preprocessing.filter_calls": calls["preprocessing.filter"],
        "preprocessing.filter_samples":
            extras["preprocessing.filter"]["samples"],
        "preprocessing.filter_share": share(inclusive["preprocessing.filter"]),
        "estimators.estimate_calls": calls["estimators.estimate"],
        "estimators.estimate_samples":
            extras["estimators.estimate"]["samples"],
        "estimators.estimate_share": share(inclusive["estimators.estimate"]),
        "estimators.rank_deficient": rank_deficient,
        "manifold.distance_calls": calls["manifold.distance"],
        "manifold.distance_share": share(inclusive["manifold.distance"]),
        "manifold.karcher_calls": calls["manifold.karcher"],
        "manifold.karcher_points": extras["manifold.karcher"]["points"],
        "manifold.karcher_share": share(inclusive["manifold.karcher"]),
        "manifold.karcher_unconverged":
            errors["manifold.karcher"]["ConvergenceError"],
        "mdrm.classify_calls": calls["mdrm.classify_covariance"],
        "mdrm.classify_self_share": share(own["mdrm.classify_covariance"]
                                          + own["mdrm.classify"]),
        "mdrm.train_self_share": share(own["mdrm.train"]),
        "mdrm.potato_share": share(inclusive["mdrm.potato"]),
        "mdrm.potato_rejected": extras["mdrm.potato"]["rejected"],
        "online.push_calls": calls["online.push"],
        "online.epochs": extras["online.push"]["epochs"],
        "online.decisions": extras["online.push"]["decisions"],
        "online.held_back": extras["online.evaluate_stream"]["held_back"],
        "online.replays": calls["online.evaluate_stream"],
        "metrics.splits": extras["metrics.run_benchmark"]["splits"],
        "synthgen.load_share": share(inclusive["synthgen.load"]),
        "synthgen.bytes_read": extras["synthgen.load"]["bytes"],
        "cli.io_share": share(sum(inclusive[k] for k in IO_SPANS)),
        "cli.bytes_written": sum(extras[k]["bytes"] for k in IO_SPANS),
        "cli.import_s": import_s,
        "trace.spans": len(recorder.spans),
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
    }
    for layer in ("preprocessing", "estimators", "manifold", "mdrm", "online",
                  "metrics", "cli"):
        values[f"{layer}.self_share"] = share(layer_self[layer])
    # input properties: zero where the workload has no draws or windows
    values["metrics.duplicate_draw_frac"] = 0.0
    values["input.window_overlap"] = 0.0
    values.update(workload.layer_inputs(ctx, out))
    return values, s


def check_predicted_spans(workload, summary, checker):
    calls = summary["calls"]
    for key in workload.predicted_spans:
        checker.expect(calls[key] > 0, f"trace: predicted span {key} "
                                       f"has zero calls")
    for key in workload.predicted_absent:
        checker.expect(calls[key] == 0, f"trace: span {key} predicted "
                                        f"absent has {calls[key]} calls")


def run_jobs(workload, ctx, seconds, trace, checker):
    """Untraced jobs until ``seconds`` have passed (at least one); with
    ``trace``, an untraced, a traced and an untraced job instead, so the
    overhead is not skewed by a cold first job.

    Returns ``(attempted, outputs, untraced walls, traced)`` with
    ``traced = (recorder, wall, rank-deficient warnings)`` or ``None``.
    """
    from spans import SpanRecorder

    plan = [None, SpanRecorder(), None] if trace else None
    outs, walls, traced = [], [], None
    started = time.perf_counter()
    while True:
        if plan is not None:
            if len(outs) == len(plan):
                break
            recorder = plan[len(outs)]
        elif outs and time.perf_counter() - started >= seconds:
            break
        else:
            recorder = None
        try:
            out, wall, deficient = run_job(workload, ctx, recorder)
        except Exception as exc:  # a failed job ends the measurement
            checker.expect(False, f"job {len(outs) + 1} raised "
                                  f"{type(exc).__name__}: {exc}")
            return len(outs) + 1, outs, walls, None
        outs.append(out)
        if recorder is None:
            walls.append(wall)
        else:
            traced = (recorder, wall, deficient)
    return len(outs), outs, walls, traced


def run(name, seed, seconds, trace, sizes=None, stdout=None):
    """Run one workload; print its metrics; return the result dict."""
    import workloads
    from checks import Checker

    sizes = sizes or workloads.FULL
    stdout = stdout or sys.stdout
    work = STATE_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, sizes, work)
        setup_times, import_times = [], []
        for _ in range(sizes.setup_repeats):
            import_s = measure_import()
            start = time.perf_counter()
            ctx = workload.setup()
            setup_times.append(import_s + time.perf_counter() - start)
            import_times.append(import_s)

        checker = Checker()
        attempted, outs, walls, traced = run_jobs(workload, ctx, seconds,
                                                  trace, checker)
        rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not checker.failures:
            try:
                workload.check(ctx, outs, checker)
            except Exception as exc:
                checker.expect(False, f"check raised "
                                      f"{type(exc).__name__}: {exc}")

        env = environment()
        env.update({"workload": name, "seed": seed, "trace": trace,
                    "run_seconds": seconds, "jobs": len(walls),
                    "setup_repeats": sizes.setup_repeats})
        metrics, lines = {}, []
        if traced is not None:
            recorder, traced_wall, deficient = traced
            untraced_wall = statistics.mean(walls)
            values, summary = layer_metrics(
                workload, ctx, outs[1], recorder, untraced_wall, traced_wall,
                deficient, statistics.median(import_times))
            check_predicted_spans(workload, summary, checker)
            metrics = {k: values[k] for k, _ in PER_LAYER}
            lines = [(k, values[k], unit, "") for k, unit in PER_LAYER]
            lines += [(f"{layer}.self_s", secs, "s", "traced")
                      for layer, secs in sorted(summary["layer_self"].items())]
            lines.append(("trace.overhead_s", traced_wall - untraced_wall,
                          "s", "traced minus mean untraced job"))
            env["counts"] = {k: values[k] for k in EXACT_COUNTS}
            traces = STATE_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            recorder.write(traces / f"{name}-seed{seed}.jsonl")
        elif walls and not trace:
            metrics = {"setup_s": statistics.median(setup_times),
                       "job_s": statistics.median(walls),
                       "rss_peak_mb": rss_peak_mb}
            lines = [(k, metrics[k], unit, "") for k, unit in END_TO_END]
            lines += workload.details(ctx, outs, walls)
            env["job_s_all"] = walls
            env["setup_s_all"] = setup_times
        # checks cover a job's outputs as a whole, so any failure fails all
        failed = attempted if checker.failures else 0
        lines.append(("failed_frac", failed / attempted, "frac",
                      f"{failed} of {attempted} jobs"))

        print(f"spdbci benchmark: workload {name}, seed {seed}, "
              f"trace {trace}", file=stdout)
        print("env " + json.dumps(env, sort_keys=True), file=stdout)
        for key, value, unit, note in lines:
            print(f"  {key:<32} {value:>16.6g} {unit:<6} {note}", file=stdout)
        for failure in checker.failures:
            print(f"FAILED: {failure}", file=stdout)
        result = {"correct": not checker.failures, "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": unit}
                              for k, unit in (PER_LAYER if trace
                                              else END_TO_END)
                              if (v := metrics.get(k)) is not None}}
        print(json.dumps(result), file=stdout)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("live_stream", "bootstrap", "cli_session"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, args.trace)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
