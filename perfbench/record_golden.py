#!/usr/bin/env python3
"""Record the golden outputs of the current code for the benchmark seeds.

Run from the repository root, only on a commit whose outputs are known to
be right:

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: for each workload and each seed in
``GOLDEN_SEEDS``, the outputs that the benchmark's checks compare
(decision sequences, bench rows, ``eval.json`` and the label columns of
``eval.csv``, potato counts).
"""

import json
import os
import shutil

import run

GOLDEN_SEEDS = tuple(range(10))


def main():
    run.import_program()
    import workloads
    from checks import GOLDEN_PATH

    golden = {}
    work = run.STATE_DIR / f"golden-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            for seed in GOLDEN_SEEDS:
                workload = cls(seed, workloads.FULL, work)
                out, _, _ = run.run_job(workload, workload.setup())
                golden.setdefault(name, {})[str(seed)] = \
                    workload.golden_of(out)
                print(f"recorded {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    main()
