#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is printed
  by name with its unit, and each workload's own figures too;
* the correctness checks fire on deliberately corrupted copies of the
  outputs of each workload, and pass on the outputs as produced;
* the exact counts repeat across two traced runs in separate processes;
* the benchmark exits non-zero, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and the benchmark.
"""

import copy
import io
import json
import shutil
import subprocess
import sys

import run
from checks import Checker, compare_bench_rows

DETAILS = {
    "live_stream": ("epoch_ms_p50", "epoch_ms_p99", "stream_rtf",
                    "rss_growth_mb"),
    "bootstrap": ("bench_splits_per_s",),
    "cli_session": ("train_s", "eval_s"),
}


def require(ok, message):
    if not ok:
        raise AssertionError(message)


def printed(text):
    """``{name: unit}`` of the metric lines of a run's output."""
    out = {}
    for line in text.splitlines():
        fields = line.split()
        if line.startswith("  ") and len(fields) >= 3:
            out[fields[0]] = fields[2]
    return out


def check_metric_names(spec, sizes):
    for name in DETAILS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            sink = io.StringIO()
            result = run.run(name, 0, 1, trace, sizes=sizes, stdout=sink)
            text = sink.getvalue()
            require(result["correct"], f"{name} trace {trace} failed:\n{text}")
            require(json.loads(text.splitlines()[-1]) == result,
                    f"{name}: last line is not the result")
            lines = printed(text)
            for metric in spec[key]:
                require(lines.get(metric["name"]) == metric["unit"],
                        f"{name} trace {trace}: {metric['name']} not "
                        f"printed with unit {metric['unit']}")
                require(result["metrics"][metric["name"]]["unit"]
                        == metric["unit"],
                        f"{name}: {metric['name']} unit differs in result")
            require(set(result["metrics"]) == {m["name"] for m in spec[key]},
                    f"{name} trace {trace}: result metrics differ from "
                    f"BENCHMARK.json")
            names = (DETAILS[name] + ("failed_frac",)) if trace == 0 else ()
            for detail in names:
                require(detail in lines, f"{name}: {detail} not printed")
        print(f"PASS metric names and units: {name}")


def failures(workload, ctx, outs):
    checker = Checker()
    workload.check(ctx, outs, checker)
    return checker.failures


def check_corruption(sizes, work):
    import workloads

    # (what, corrupt every job alike or only the second, corrupt(out))
    corruptions = {
        "live_stream": [
            ("a decision label", "all", lambda o: o["decisions"].__setitem__(
                0, (o["decisions"][0][0] % 4 + 1, o["decisions"][0][1]))),
            ("every epoch label", "all", lambda o: o.__setitem__(
                "epochs", [(end, label % 4 + 1)
                           for end, label in o["epochs"]])),
            ("the second job", "second", lambda o: o["decisions"].pop()),
        ],
        "bootstrap": [
            ("an accuracy out of range", "all",
             lambda o: o["rows"][0].__setitem__(2, 101.0)),
            ("a missing row", "all", lambda o: o["rows"].pop()),
            ("the second job", "second",
             lambda o: o["rows"][3].__setitem__(6, o["rows"][3][6] * 2)),
        ],
        "cli_session": [
            ("every offline label", "all", lambda o: o.__setitem__(
                "eval_csv", _flip_offline_labels(o["eval_csv"]))),
            ("the decided count", "all", lambda o: o.__setitem__(
                "eval_json", o["eval_json"].replace(
                    '"online_decided": ', '"online_decided": 1'))),
            ("the second job", "second", lambda o: o.__setitem__(
                "model", o["model"][:-1] + b"\x01")),
        ],
    }
    for name, cases in corruptions.items():
        workload = workloads.WORKLOADS[name](0, sizes, work)
        ctx = workload.setup()
        outs = [run.run_job(workload, ctx)[0] for _ in range(2)]
        require(not failures(workload, ctx, outs),
                f"{name}: checks fail on good outputs: "
                f"{failures(workload, ctx, outs)}")
        for what, which, corrupt in cases:
            bad = copy.deepcopy(outs)
            for out in (bad if which == "all" else bad[1:]):
                corrupt(out)
            found = failures(workload, ctx, bad)
            require(found, f"{name}: corrupting {what} went unnoticed")
            print(f"PASS {name}: corrupting {what} fails the check "
                  f"({found[0][:70]})")

    rows = [["scm", 0.5, 50.0, None, 0]]
    for value, should_fail in ((50.0 * (1 + 1e-12), False),
                               (50.0 * (1 + 1e-6), True)):
        checker = Checker()
        compare_bench_rows(checker, [["scm", 0.5, value, None, 0]], rows,
                           (0, 1, 4), "golden")
        require(bool(checker.failures) == should_fail,
                f"golden float comparison wrong for {value!r}")
    print("PASS golden rows: 1e-6 relative fails, 1e-12 passes")


def _flip_offline_labels(eval_csv):
    lines = eval_csv.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        if fields[0] != "mean":
            fields[2] = str(int(fields[2]) % 4 + 1)
        out.append(",".join(fields))
    return "\n".join(out) + "\n"


def check_exact_counts():
    code = ("import sys, io, json; sys.path.insert(0, 'perfbench'); "
            "import run, workloads; run.import_program(); "
            "sink = io.StringIO(); "
            "run.run(sys.argv[1], 3, 1, 1, sizes=workloads.TINY, "
            "stdout=sink); "
            "env = [l for l in sink.getvalue().splitlines() "
            "if l.startswith('env ')][0]; "
            "print(json.dumps(json.loads(env[4:])['counts']))")
    for name in DETAILS:
        counts = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", code, name],
                                  cwd=run.ROOT, capture_output=True,
                                  text=True, timeout=170, check=True)
            counts.append(json.loads(proc.stdout.splitlines()[-1]))
        require(counts[0] == counts[1],
                f"{name}: counts differ between runs: {counts}")
        print(f"PASS exact counts repeat: {name} {counts[0]}")


def check_bare_directory():
    bare = run.STATE_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            spec["command"] + ["--workload", "live_stream", "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
            check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "bare directory run exited 0")
    require("correct" not in proc.stdout,
            f"bare directory run printed a result: {proc.stdout!r}")
    print(f"PASS bare directory: exit {proc.returncode}, no result")


def main():
    run.import_program()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.STATE_DIR / "selftest-work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_metric_names(spec, workloads.TINY)
        check_corruption(workloads.TINY, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_exact_counts()
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
