"""What the benchmark in ``perfbench/`` needs from the library.

The benchmark wraps library functions by the name their callers look up,
and calls some with keyword arguments. A change that deletes one of
those breaks only the benchmark run; these checks catch it in the test
suite instead.
"""

import inspect
import warnings
from pathlib import Path

import numpy as np

from spdbci import mdrm, metrics, online, synthgen
from spdbci.estimators import spec_from_name
from spdbci.preprocessing import BandpassFilterBank

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_instrumented_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    with spans.instrumented(spans.SpanRecorder()):
        pass


def test_benchmark_call_signatures():
    inspect.signature(metrics.run_benchmark).bind(None, None, threads=1)
    spec = spec_from_name("fixed-point", fp_max_iterations=1000)
    assert spec.fp_max_iterations == 1000
    # positional, with no sections given: the bank designs its own
    bank = BandpassFilterBank((13.0, 17.0, 21.0), 8, 256.0, 1.0, 8)
    assert len(bank.sos) == 3


def test_fields_the_benchmark_reads():
    trial_set = synthgen.generate(synthgen.GenConfig(trials_per_class=2))
    config = metrics.BenchConfig(replications=1,
                                 trial_lengths_seconds=(1.0,),
                                 estimators=(spec_from_name("schafer"),))
    assert config.mean_tolerance > 0 and config.mean_max_iterations > 0
    report = metrics.run_benchmark(trial_set, config, threads=1)
    assert report.replications == 1
    (row,) = report.rows
    for name in ("estimator", "length_seconds", "acc_mean", "acc_std",
                 "itr_mean", "itr_std", "cond_mean", "idi_mean",
                 "kappa_mean", "unconverged_means"):
        getattr(row, name)

    model, _ = mdrm.train(trial_set)
    state = online.OnlineState(model)
    state.push_samples(np.hstack([t.values for t in trial_set.trials]))
    assert state.epoch_index > 0 and state.epoch_log
    for entry in state.epoch_log:
        assert {"end_sample", "label", "candidate", "decided"} <= set(entry)


def test_live_stream_calls_the_spans_the_benchmark_predicts(monkeypatch):
    # a tiny stream through one OnlineState, with perfbench's wrappers
    # installed after construction as its live_stream job installs them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    trial_set = synthgen.generate(synthgen.GenConfig(trials_per_class=3))
    model, _ = mdrm.train(trial_set)
    state = online.OnlineState(model)
    stream = np.hstack([t.values for t in trial_set.trials[:3]])
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        for start in range(0, stream.shape[1], workloads.FRAME_SAMPLES):
            state.push_samples(
                stream[:, start:start + workloads.FRAME_SAMPLES])
    calls = spans.summarize(recorder.spans)["calls"]
    assert state.epoch_index > 0
    called = ("preprocessing.filter", "estimators.estimate",
              "mdrm.classify_covariance", "manifold.distance")
    for name in called + workloads.LiveStream.predicted_spans:
        assert calls[name] > 0, name
    for name in ("preprocessing.design", "manifold.karcher") \
            + workloads.LiveStream.predicted_absent:
        assert calls[name] == 0, name
    assert calls["manifold.distance"] == state.epoch_index


def test_live_stream_estimates_one_window_per_epoch(monkeypatch):
    # perfbench's estimators.estimate_samples counts args[0].samples of
    # each estimate: a full window per epoch, whether the stream hands
    # the estimator the window or the moments of its blocks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    trial_set = synthgen.generate(synthgen.GenConfig(trials_per_class=3))
    model, _ = mdrm.train(trial_set)
    state = online.OnlineState(model)
    stream = np.hstack([t.values for t in trial_set.trials[:3]])
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        for start in range(0, stream.shape[1], workloads.FRAME_SAMPLES):
            state.push_samples(
                stream[:, start:start + workloads.FRAME_SAMPLES])
    summary = spans.summarize(recorder.spans)
    window = state.config.plan().window_samples(state.sample_rate)
    assert state.epoch_index > 0
    assert summary["calls"]["estimators.estimate"] == state.epoch_index
    assert summary["extras"]["estimators.estimate"]["samples"] == \
        state.epoch_index * window


def test_bootstrap_calls_the_spans_the_benchmark_predicts(monkeypatch):
    # the benchmark's wrappers only see calls made through the module
    # names they replace, so the lockstep means and the stacked distances
    # must go through manifold.karcher_mean and manifold.distance
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    trial_set = synthgen.generate(synthgen.GenConfig(trials_per_class=3))
    config = metrics.BenchConfig(replications=2,
                                 trial_lengths_seconds=(0.5, 1.0),
                                 estimators=(spec_from_name("scm"),
                                             spec_from_name("schafer")))
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder), warnings.catch_warnings():
        # 0.5 s SCM crops are rank deficient
        warnings.simplefilter("ignore")
        report = metrics.run_benchmark(trial_set, config, threads=1)
    summary = spans.summarize(recorder.spans)
    calls = summary["calls"]
    for name in workloads.Bootstrap.predicted_spans:
        assert calls[name] > 0, name
    # per length: the SCM baseline and schafer, each one mean call per
    # class over every replication and one distance call per replication
    passes = len(config.trial_lengths_seconds) * 2
    assert calls["manifold.karcher"] == passes * trial_set.class_count
    assert summary["extras"]["manifold.karcher"]["points"] == \
        calls["manifold.karcher"] * config.replications
    assert calls["manifold.distance"] == passes * config.replications
    assert len(report.rows) == 4
