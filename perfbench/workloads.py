"""The three benchmark workloads, each run through the public API of spdbci.

Every workload has the same shape: ``setup`` builds the seeded inputs
(timed as set-up), ``prepare`` makes the per-job state that a user would
create before work starts (not timed), ``job`` is the timed unit of work,
and ``check`` verifies the outputs of the jobs outside the timed region.

Why these three (each is one process, one stream, no threads of its own):

* ``live_stream``: one amplifier feeding one ``OnlineState`` in 32-sample
  frames (125 ms at 256 Hz), a closed loop replayed as fast as possible.
  Each epoch runs filter, shrinkage estimate, four geodesic distances and
  the gate. No Karcher mean and no filter design after set-up, so it is
  the "no change" side for mean-solver and filter-design work.
* ``bootstrap``: ``metrics.run_benchmark`` over six estimators and three
  crop lengths, dominated by Karcher means and distances over bootstrap
  draws (some trials repeat within a split). Short 0.5 s crops stress
  conditioning.
* ``cli_session``: ``spdbci train --potato-z 2.5`` then ``spdbci eval``
  in-process on the 64-trial dataset ``spdbci gen --trials-per-class 16``
  writes, read from disk. Offline paths rebuild filter banks
  per trial; ``eval`` replays the stream twice (gate off, gate on). The
  only workload with dataset and model I/O.
"""

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (check_distances, compare_bench_rows, formula_distances,
                    karcher_residual, load_golden, sample_indices)

FRAME_SAMPLES = 32
BENCH_ESTIMATORS = ("scm", "nscm", "ledoit", "blankertz", "schafer",
                    "fixed-point")
BENCH_LENGTHS = (0.5, 2.0, 5.0)
# The fixed-point estimator's default cap of 200 iterations is short for a
# few 0.5 s crops (seed 13 needs 300), and run_benchmark aborts the whole
# comparison on one stalled estimate, so the workload raises the cap.
FP_MAX_ITERATIONS = 1000
POTATO_Z = "2.5"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    stream_train_per_class: int = 8
    stream_test_per_class: int = 30
    bench_trials_per_class: int = 8
    bench_replications: int = 8
    cli_trials_per_class: int = 16
    setup_repeats: int = 3
    checked_items: int = 24


FULL = Sizes()
TINY = Sizes(stream_train_per_class=2, stream_test_per_class=2,
             bench_trials_per_class=3, bench_replications=1,
             cli_trials_per_class=3, setup_repeats=1, checked_items=4)


def _rss_bytes():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _filtered(model, values):
    """The whole recording band-pass stacked in one piece."""
    from spdbci.preprocessing import BandpassFilterBank

    pre = model.preproc_spec
    bank = BandpassFilterBank(pre.stim_freqs, values.shape[0],
                              pre.sample_rate, pre.half_bandwidth,
                              pre.filter_order)
    return bank.process(values)


def _check_epochs(checker, where, model, filtered, epochs, seed, k):
    """Sampled epochs: program distances and label against the formula.

    ``epochs`` is a list of ``(end_sample, label)``; the covariance of
    each sampled epoch is re-estimated from the one-piece filtered stream.
    """
    from spdbci import mdrm
    from spdbci.estimators import Trial, estimate
    from spdbci.online import OnlineConfig

    fs = model.preproc_spec.sample_rate
    w = OnlineConfig().plan().window_samples(fs)
    for i in sample_indices(len(epochs), k, seed):
        end, label = epochs[i]
        cov = estimate(Trial(filtered[:, end - w:end], fs),
                       model.estimator_spec)
        _, program = mdrm.classify_covariance(cov, model)
        check_distances(checker, f"{where} epoch {i + 1}", program,
                        formula_distances(cov, model.centers), label)


def _window_overlap():
    from spdbci.online import OnlineConfig

    config = OnlineConfig()
    return 1.0 - config.step_seconds / config.window_seconds


class Workload:
    """One workload at one seed; ``work`` is a working directory it owns."""

    name = None
    # spans a traced job must show, and spans it must not show
    predicted_spans = ()
    predicted_absent = ()

    def __init__(self, seed, sizes, work):
        self.seed = seed
        self.sizes = sizes
        self.work = Path(work)

    def prepare(self, ctx):
        return None

    def golden(self):
        """Golden outputs for this seed, recorded at the full size only."""
        return load_golden(self.name, self.seed) \
            if self.sizes == FULL else None

    def layer_inputs(self, ctx, out):
        """Per-layer figures that come from the workload, not from spans."""
        return {}


class LiveStream(Workload):
    name = "live_stream"
    predicted_spans = ("preprocessing.filter", "estimators.estimate",
                       "manifold.distance", "mdrm.classify_covariance",
                       "online.push")
    predicted_absent = ("preprocessing.design", "manifold.karcher")

    def setup(self):
        from spdbci import mdrm, synthgen

        per_class = self.sizes.stream_train_per_class + \
            self.sizes.stream_test_per_class
        data = synthgen.generate(synthgen.GenConfig(
            snr_db=0.0, transition_carryover_seconds=2.0,
            trials_per_class=per_class, seed=self.seed))
        train_set, test_set = synthgen.stratified_split(
            data, self.sizes.stream_train_per_class)
        model, _ = mdrm.train(train_set)
        stream = np.ascontiguousarray(
            np.hstack([t.values for t in test_set.trials]))
        bounds = np.cumsum([0] + [t.samples for t in test_set.trials])
        return {"model": model, "stream": stream, "bounds": bounds,
                "sample_rate": test_set.sample_rate}

    def prepare(self, ctx):
        from spdbci.online import OnlineState

        ctx["rss_before"] = _rss_bytes()
        return OnlineState(ctx["model"])

    def job(self, ctx, state, recorder=None):
        stream = ctx["stream"]
        latencies = []
        decisions = []
        clock = time.perf_counter
        for start in range(0, stream.shape[1], FRAME_SAMPLES):
            frame = stream[:, start:start + FRAME_SAMPLES]
            before = state.epoch_index
            t0 = clock()
            if recorder is None:
                emitted = state.push_samples(frame)
            else:
                with recorder.operation("frame"):
                    emitted = state.push_samples(frame)
            t1 = clock()
            if state.epoch_index != before:
                latencies.append(t1 - t0)
            decisions.extend(emitted)
        return {"decisions": [(d.label, d.end_sample) for d in decisions],
                "epochs": [(row["end_sample"], row["label"])
                           for row in state.epoch_log],
                "decided": [(row["candidate"], row["end_sample"])
                            for row in state.epoch_log if row["decided"]],
                "latencies": latencies,
                "rss_growth": _rss_bytes() - ctx["rss_before"]}

    def details(self, ctx, outs, walls):
        """The workload's own user-facing figures, with their units."""
        latencies = np.concatenate([o["latencies"] for o in outs]) * 1e3
        stream_s = ctx["stream"].shape[1] / ctx["sample_rate"]
        return [
            ("epoch_ms_p50", float(np.percentile(latencies, 50)), "ms",
             f"{latencies.size} epochs"),
            ("epoch_ms_p99", float(np.percentile(latencies, 99)), "ms",
             f"{latencies.size} epochs"),
            ("stream_rtf", stream_s / float(np.median(walls)), "x",
             f"{stream_s:.0f} s stream per job"),
            ("rss_growth_mb", outs[0]["rss_growth"] / 2 ** 20, "MB",
             "first job"),
        ]

    def golden_of(self, out):
        return {"epochs": len(out["epochs"]),
                "decisions": [list(d) for d in out["decisions"]]}

    def check(self, ctx, outs, checker):
        first = outs[0]
        for i, out in enumerate(outs[1:], start=2):
            checker.expect(out["decisions"] == first["decisions"]
                           and out["epochs"] == first["epochs"],
                           f"job {i} decisions or epoch labels differ from "
                           f"job 1")
        checker.expect(first["decided"] == first["decisions"],
                       "decided epoch-log rows differ from the decisions")
        golden = self.golden()
        if golden is not None:
            checker.expect(self.golden_of(first) == golden,
                           "decision sequence differs from golden")
        _check_epochs(checker, "stream", ctx["model"],
                      _filtered(ctx["model"], ctx["stream"]),
                      first["epochs"], self.seed, self.sizes.checked_items)

    def layer_inputs(self, ctx, out):
        # a trial is held back when no decision closes inside it
        bounds = ctx["bounds"]
        decided = {int(np.searchsorted(bounds, end - 1, side="right")) - 1
                   for _, end in out["decisions"]}
        return {"online.held_back": len(bounds) - 1 - len(decided),
                "input.window_overlap": _window_overlap()}


class Bootstrap(Workload):
    name = "bootstrap"
    predicted_spans = ("preprocessing.design", "preprocessing.filter",
                       "preprocessing.extend", "estimators.estimate",
                       "manifold.distance", "manifold.karcher",
                       "manifold.condition", "mdrm.preprocess_trial",
                       "metrics.run_benchmark")
    # estimator, length_s and unconverged_means are discrete columns
    discrete_columns = (0, 1, 9)

    def setup(self):
        from spdbci import synthgen
        from spdbci.estimators import spec_from_name
        from spdbci.metrics import BenchConfig

        trial_set = synthgen.generate(synthgen.GenConfig(
            trials_per_class=self.sizes.bench_trials_per_class,
            seed=self.seed))
        config = BenchConfig(
            replications=self.sizes.bench_replications,
            trial_lengths_seconds=BENCH_LENGTHS,
            estimators=tuple(spec_from_name(
                n, fp_max_iterations=FP_MAX_ITERATIONS)
                for n in BENCH_ESTIMATORS),
            seed=self.seed)
        return {"trial_set": trial_set, "config": config}

    def job(self, ctx, state, recorder=None):
        from spdbci import metrics

        with (recorder.operation("run_benchmark") if recorder
              else contextlib.nullcontext()):
            report = metrics.run_benchmark(ctx["trial_set"], ctx["config"],
                                           threads=1)
        rows = [[r.estimator, r.length_seconds, r.acc_mean, r.acc_std,
                 r.itr_mean, r.itr_std, r.cond_mean, r.idi_mean,
                 r.kappa_mean, r.unconverged_means] for r in report.rows]
        return {"rows": rows, "splits": len(rows) * report.replications}

    def details(self, ctx, outs, walls):
        return [("bench_splits_per_s",
                  outs[0]["splits"] / float(np.median(walls)), "1/s",
                  f"{outs[0]['splits']} splits per job")]

    def golden_of(self, out):
        return {"rows": out["rows"]}

    def check(self, ctx, outs, checker):
        from spdbci import manifold
        from spdbci.estimators import Trial, estimate, spec_from_name
        from spdbci.metrics import estimator_label
        from spdbci.mdrm import PreprocSpec, preprocess_trial

        first = outs[0]
        for i, out in enumerate(outs[1:], start=2):
            checker.expect(out["rows"] == first["rows"],
                           f"job {i} bench rows differ from job 1")
        expected_keys = [(estimator_label(spec_from_name(n)), length)
                         for length in BENCH_LENGTHS
                         for n in BENCH_ESTIMATORS]
        checker.expect([(r[0], r[1]) for r in first["rows"]] == expected_keys,
                       "bench rows are not one per (length, estimator)")
        for row in first["rows"]:
            floats = [v for v in row[2:9] if v is not None]
            checker.expect(all(math.isfinite(v) for v in floats)
                           and 0.0 <= row[2] <= 100.0 and row[9] >= 0
                           and (row[8] is None) == (row[0] in (
                               "scm", "nscm", "fixed_point")),
                           f"bench row {row[:2]} out of range: {row}")
        golden = self.golden()
        if golden is not None:
            compare_bench_rows(checker, first["rows"], golden["rows"],
                               self.discrete_columns, "bench")

        trial_set = ctx["trial_set"]
        config = ctx["config"]
        preproc = PreprocSpec(stim_freqs=trial_set.meta["stim_freqs"],
                              sample_rate=trial_set.sample_rate)
        crop = int(np.floor(BENCH_LENGTHS[-1] * trial_set.sample_rate))
        members = [i for i, lab in enumerate(trial_set.labels) if lab == 1]
        covs = [estimate(preprocess_trial(
            Trial(trial_set.trials[i].values[:, :crop], trial_set.sample_rate),
            preproc), spec_from_name("schafer")) for i in members]
        mean = manifold.karcher_mean(covs, config.mean_tolerance,
                                     config.mean_max_iterations)
        residual = karcher_residual(mean, covs)
        checker.expect(residual < config.mean_tolerance * (1 + 1e-6),
                       f"Karcher mean residual {residual:.3e} above the "
                       f"tolerance {config.mean_tolerance:.1e}")
        for i in sample_indices(len(covs), self.sizes.checked_items,
                                self.seed):
            check_distances(checker, f"bench trial {members[i]}",
                            [manifold.distance(covs[i], mean)],
                            formula_distances(covs[i], [mean]))

    def layer_inputs(self, ctx, out):
        return {"metrics.duplicate_draw_frac": duplicate_draw_frac(
            ctx["trial_set"], ctx["config"])}


def duplicate_draw_frac(trial_set, config):
    """Share of bootstrap draws that repeat a trial already in the same
    half (train or test) of the same replication.

    Replays the documented draw of ``run_benchmark``: per replication and
    class, ``len(pool)`` indices with replacement from the seed's
    generator, the first ``len(pool) - len(pool) // 2`` to train.
    """
    by_class = {}
    for i, lab in enumerate(trial_set.labels):
        by_class.setdefault(lab, []).append(i)
    rng = np.random.default_rng(config.seed)
    repeats = total = 0
    for _ in range(config.replications):
        for cls in range(1, trial_set.class_count + 1):
            pool = by_class[cls]
            draw = rng.choice(pool, size=len(pool), replace=True)
            half = len(pool) - len(pool) // 2
            for part in (draw[:half], draw[half:]):
                repeats += len(part) - len(set(part.tolist()))
            total += len(draw)
    return repeats / total


class CliSession(Workload):
    name = "cli_session"
    predicted_spans = ("preprocessing.design", "preprocessing.filter",
                       "preprocessing.extend", "estimators.estimate",
                       "manifold.distance", "manifold.karcher",
                       "mdrm.classify_covariance", "mdrm.classify",
                       "mdrm.train", "mdrm.potato", "online.push",
                       "online.evaluate_stream", "synthgen.load",
                       "cli.save_model", "cli.load_model",
                       "cli.write_epoch_log", "cli.main")
    label_columns = ("trial", "truth", "offline", "offline_opt", "online",
                     "online_curve")

    def setup(self):
        from spdbci import synthgen

        # the dataset ``spdbci gen --trials-per-class 16`` writes: with a
        # 2 s carryover, ``train`` at the default mean tolerance exits 3
        # (mean did not converge) on about a third of the seeds
        trial_set = synthgen.generate(synthgen.GenConfig(
            trials_per_class=self.sizes.cli_trials_per_class,
            seed=self.seed))
        data = self.work / "data"
        if data.exists():
            shutil.rmtree(data)
        synthgen.save(trial_set, data)
        return {"trial_set": trial_set, "data": data,
                "model_dir": self.work / "model",
                "eval_dir": self.work / "eval"}

    def commands(self, ctx):
        return (
            ("train", ["train", "--data", str(ctx["data"]),
                       "--out", str(ctx["model_dir"]), "--force",
                       "--potato-z", POTATO_Z]),
            ("eval", ["eval", "--data", str(ctx["data"]),
                      "--model", str(ctx["model_dir"] / "model.mdrm"),
                      "--out", str(ctx["eval_dir"]), "--force"]),
        )

    def job(self, ctx, state, recorder=None):
        from spdbci import cli

        out = {}
        clock = time.perf_counter
        for command, argv in self.commands(ctx):
            sink = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(sink):
                if recorder is None:
                    code = cli.main(argv)
                else:
                    with recorder.operation(command):
                        code = cli.main(argv)
            out[f"{command}_s"] = clock() - t0
            if code != 0:
                raise RuntimeError(f"spdbci {command} exited with {code}")
        eval_dir = ctx["eval_dir"]
        out["eval_json"] = (eval_dir / "eval.json").read_text(encoding="utf-8")
        out["eval_csv"] = (eval_dir / "eval.csv").read_text(encoding="utf-8")
        out["epochs_curve"] = (eval_dir / "epochs_online_curve.csv").read_text(
            encoding="utf-8")
        out["train_report"] = (ctx["model_dir"] / "train_report.json"
                               ).read_text(encoding="utf-8")
        out["model"] = (ctx["model_dir"] / "model.mdrm").read_bytes()
        return out

    def details(self, ctx, outs, walls):
        return [(f"{c}_s", float(np.median([o[f"{c}_s"] for o in outs])), "s",
                 f"median of {len(outs)} jobs") for c in ("train", "eval")]

    def _eval_labels(self, eval_csv):
        lines = eval_csv.splitlines()
        header = lines[0].split(",")
        cols = [header.index(c) for c in self.label_columns]
        return [[row.split(",")[c] for c in cols] for row in lines[1:]
                if not row.startswith("mean,")]

    def golden_of(self, out):
        report = json.loads(out["train_report"])
        return {"eval_json": json.loads(out["eval_json"]),
                "eval_labels": self._eval_labels(out["eval_csv"]),
                "potato": {k: report["potato"][k]
                           for k in ("kept", "rejected")}}

    def check(self, ctx, outs, checker):
        from spdbci import mdrm
        from spdbci.mdrm import trial_covariance

        first = outs[0]
        for i, out in enumerate(outs[1:], start=2):
            checker.expect(
                all(out[k] == first[k] for k in
                    ("eval_json", "eval_csv", "epochs_curve", "model")),
                f"job {i} outputs differ from job 1")
        golden = self.golden()
        if golden is not None:
            checker.expect(self.golden_of(first) == golden,
                           "eval.json, eval.csv labels or potato counts "
                           "differ from golden")
        summary = json.loads(first["eval_json"])
        trials = ctx["trial_set"].trials
        for prefix in ("online", "online_curve"):
            checker.expect(summary[f"{prefix}_decided"]
                           + summary[f"{prefix}_held_back"] == len(trials),
                           f"{prefix} decided + held back != trial count")

        centers = parse_model_centers(first["model"])
        model = mdrm.load_model(ctx["model_dir"] / "model.mdrm")
        labels = self._eval_labels(first["eval_csv"])
        for i in sample_indices(len(trials), self.sizes.checked_items,
                                self.seed):
            cov = trial_covariance(trials[i], model.preproc_spec,
                                   model.estimator_spec)
            _, program = mdrm.classify_covariance(cov, model)
            check_distances(checker, f"offline trial {i}", program,
                            formula_distances(cov, centers),
                            int(labels[i][2]))
        rows = [line.split(",") for line in
                first["epochs_curve"].splitlines()[1:]]
        fs = model.preproc_spec.sample_rate
        epochs = [(int(round(float(r[1]) * fs)), int(r[2])) for r in rows]
        stream = np.hstack([t.values for t in trials])
        _check_epochs(checker, "eval stream", model,
                      _filtered(model, stream), epochs, self.seed,
                      self.sizes.checked_items)

    def layer_inputs(self, ctx, out):
        return {"input.window_overlap": _window_overlap()}


def parse_model_centers(blob):
    """Class centers read straight from an ``MDRM v1`` file's bytes."""
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline])
    k, dim = header["class_count"], header["dim"]
    flat = np.frombuffer(blob[newline + 1:], dtype="<f8")
    return [flat[i * dim * dim:(i + 1) * dim * dim].reshape(dim, dim)
            for i in range(k)]


WORKLOADS = {cls.name: cls for cls in (LiveStream, Bootstrap, CliSession)}
