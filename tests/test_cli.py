import hashlib
import json
import shutil
import struct
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spdbci import cli, manifold, mdrm, metrics, online, preprocessing, \
    synthgen
from spdbci.estimators import EstimatorSpec
from spdbci.mdrm import PreprocSpec
from spdbci.metrics import BenchConfig
from spdbci.online import OnlineConfig


def run(*argv):
    return cli.main([str(a) for a in argv])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen_small(tmp_path, name="data", seed=7, **extra):
    out = tmp_path / name
    argv = ["gen", "--seed", seed, "--out", out,
            "--trials-per-class", extra.pop("trials_per_class", 3),
            "--snr-db", extra.pop("snr_db", 30.0),
            "--trial-seconds", extra.pop("trial_seconds", 5.0)]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert run(*argv) == 0
    return out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_default_composition(tmp_path):
    out = tmp_path / "d"
    assert run("gen", "--seed", 3, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == "EEGSET v1"
    assert len(manifest["labels"]) == 32
    assert sorted(set(manifest["labels"])) == [1, 2, 3, 4]
    run_manifest = json.loads((out / "run_manifest.json").read_text())
    assert run_manifest["command"] == "gen"
    assert run_manifest["seed"] == 3
    assert "library_version" in run_manifest
    assert "threads" not in json.dumps(run_manifest)


def test_gen_deterministic_payloads(tmp_path):
    a = gen_small(tmp_path, "a")
    b = gen_small(tmp_path, "b")
    for payload in sorted(p.name for p in a.glob("*.f64")):
        assert sha(a / payload) == sha(b / payload)
    assert sha(a / "manifest.json") == sha(b / "manifest.json")


def test_gen_refuses_nonempty_out_without_force(tmp_path):
    out = gen_small(tmp_path)
    assert run("gen", "--seed", 7, "--out", out) == 2
    assert run("gen", "--seed", 7, "--out", out, "--force",
               "--trials-per-class", 3, "--snr-db", 30.0,
               "--trial-seconds", 5.0) == 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_model_and_report(tmp_path):
    data = gen_small(tmp_path)
    out = tmp_path / "model"
    assert run("train", "--data", data, "--out", out) == 0
    assert (out / "model.mdrm").is_file()
    report = json.loads((out / "train_report.json").read_text())
    assert report["class_count"] == 4
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "train"


def test_train_missing_dataset_is_io_error(tmp_path):
    assert run("train", "--data", tmp_path / "nope",
               "--out", tmp_path / "m") == 4


def test_train_unknown_estimator_is_validation_error(tmp_path):
    data = gen_small(tmp_path)
    assert run("train", "--data", data, "--estimator", "nope",
               "--out", tmp_path / "m") == 2


def test_train_missing_class_is_validation_error(tmp_path):
    data = gen_small(tmp_path)
    ts = synthgen.load(data)
    keep = [i for i, lab in enumerate(ts.labels) if lab != 3]
    broken_dir = tmp_path / "broken"
    synthgen.save(ts.subset(keep), broken_dir)
    assert run("train", "--data", broken_dir, "--out", tmp_path / "m2") == 2


def test_train_with_potato_flag(tmp_path):
    data = gen_small(tmp_path)
    out = tmp_path / "mp"
    assert run("train", "--data", data, "--potato-z", 1000000.0,
               "--out", out) == 0
    report = json.loads((out / "train_report.json").read_text())
    assert report["potato"]["rejected"] == 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@pytest.fixture()
def trained(tmp_path):
    data = gen_small(tmp_path, trials_per_class=4, trial_seconds=6.0)
    model_dir = tmp_path / "model"
    assert run("train", "--data", data, "--out", model_dir) == 0
    return data, model_dir / "model.mdrm"


def test_eval_outputs(tmp_path, trained):
    data, model = trained
    out = tmp_path / "eval"
    assert run("eval", "--data", data, "--model", model, "--out", out) == 0
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[0] == ("trial,truth,offline,offline_opt,online,"
                        "online_delay_s,online_curve,online_curve_delay_s")
    assert lines[-1].startswith("mean,")
    assert len(lines) == 1 + 16 + 1  # header + trials + mean row
    summary = json.loads((out / "eval.json").read_text())
    for key in ("offline_acc", "offline_opt_acc", "online_acc",
                "online_mean_delay_s", "online_curve_acc",
                "online_curve_mean_delay_s"):
        assert key in summary
    assert summary["offline_acc"] >= 90.0  # high-SNR dataset
    assert (out / "epochs_online.csv").is_file()
    assert (out / "epochs_online_curve.csv").is_file()


def test_eval_opt_column_is_the_model_preprocessing_at_latency(tmp_path,
                                                               trained):
    data, model_path = trained
    out = tmp_path / "eval"
    assert run("eval", "--data", data, "--model", model_path, "--out", out,
               "--latency", 1.5) == 0
    model = mdrm.load_model(model_path)
    opt = replace(model.preproc_spec, latency_seconds=1.5)
    expected = [mdrm.classify_covariance(mdrm.trial_covariance(
        t, opt, model.estimator_spec), model)[0]
        for t in synthgen.load(data).trials]
    rows = (out / "eval.csv").read_text().splitlines()[1:-1]
    assert [int(row.split(",")[3]) for row in rows] == expected


def test_eval_designs_the_model_filters_once(tmp_path, trained,
                                             monkeypatch):
    # the "offline opt" spec differs from the model's only in latency, so
    # it filters with the model's band-pass designs
    data, model = trained
    designed = []
    design = preprocessing.design_bandpass
    monkeypatch.setattr(preprocessing, "design_bandpass",
                        lambda spec: designed.append(spec) or design(spec))
    assert run("eval", "--data", data, "--model", model,
               "--out", tmp_path / "eval") == 0
    stim_freqs = mdrm.load_model(model).preproc_spec.stim_freqs
    assert [spec.center_freq for spec in designed] == list(stim_freqs)


def test_eval_deterministic(tmp_path, trained):
    data, model = trained
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert run("eval", "--data", data, "--model", model, "--out", out1) == 0
    assert run("eval", "--data", data, "--model", model, "--out", out2) == 0
    for name in ("eval.csv", "eval.json", "epochs_online.csv",
                 "epochs_online_curve.csv", "run_manifest.json"):
        assert sha(out1 / name) == sha(out2 / name)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_small_run(tmp_path):
    data = gen_small(tmp_path, trials_per_class=4)
    out = tmp_path / "bench"
    assert run("bench", "--data", data, "--estimators", "scm,schafer",
               "--lengths", "1.0,5.0", "--replications", 2,
               "--out", out) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # 2 estimators x 2 lengths
    doc = json.loads((out / "bench.json").read_text())
    assert doc["replications"] == 2
    scm_rows = [r for r in doc["rows"] if r["estimator"] == "scm"]
    assert all(r["idi_mean"] == 0.0 for r in scm_rows)


# ---------------------------------------------------------------------------
# embed / potato
# ---------------------------------------------------------------------------

def test_embed_outputs(tmp_path, trained):
    data, model = trained
    out = tmp_path / "emb"
    assert run("embed", "--data", data, "--model", model, "--out", out) == 0
    lines = (out / "embed.csv").read_text().splitlines()
    assert lines[0] == "kind,label,x,y"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"trial", "center"}


def test_embed_with_potato_emits_before_after(tmp_path, trained):
    data, _ = trained
    out = tmp_path / "emb2"
    assert run("embed", "--data", data, "--potato-z", 2.5, "--out", out) == 0
    assert (out / "embed_before.csv").is_file()
    assert (out / "embed_after.csv").is_file()


def test_potato_report(tmp_path, trained):
    data, _ = trained
    out = tmp_path / "potato"
    assert run("potato", "--data", data, "--z", 2.5, "--out", out) == 0
    lines = (out / "potato.csv").read_text().splitlines()
    assert lines[0] == "trial,label,distance,zscore,kept"
    assert len(lines) == 1 + 16
    doc = json.loads((out / "potato.json").read_text())
    assert doc["kept"] + doc["rejected"] == 16


@pytest.fixture(scope="module")
def carryover_data(tmp_path_factory):
    """A dataset on which a z threshold of 0.6 rejects trials of several
    classes and leaves one class whole."""
    out = tmp_path_factory.mktemp("carryover") / "data"
    assert run("gen", "--trials-per-class", 4, "--carryover", 2,
               "--seed", 3, "--out", out) == 0
    return out


def test_train_and_potato_report_the_same_rejections(tmp_path,
                                                     carryover_data):
    model_dir, potato_dir = tmp_path / "model", tmp_path / "potato"
    assert run("train", "--data", carryover_data, "--potato-z", 0.6,
               "--out", model_dir) == 0
    assert run("potato", "--data", carryover_data, "--z", 0.6,
               "--out", potato_dir) == 0
    trained = json.loads((model_dir / "train_report.json").read_text())
    doc = json.loads((potato_dir / "potato.json").read_text())
    assert trained["potato"] == doc
    # every class is listed, a class that lost no trial with a zero
    assert doc["rejected_by_class"] == {"1": 2, "2": 1, "3": 3, "4": 0}
    assert sum(doc["rejected_by_class"].values()) == doc["rejected"] == 6
    assert doc["kept"] == 10 and doc["z_threshold"] == 0.6
    # the run manifest holds the flags as given, which rerun the command
    manifest = json.loads((model_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "train" and manifest["seed"] == 0
    assert manifest["config"] == {
        "data": str(carryover_data), "potato_z": 0.6,
        "estimator": "schafer", "kappa": None,
        "blankertz_scale": EstimatorSpec.blankertz_scale,
        "latency": PreprocSpec.latency_seconds,
        "half_bandwidth": PreprocSpec.half_bandwidth,
        "filter_order": PreprocSpec.filter_order,
        "mean_tol": manifold.DEFAULT_MEAN_TOLERANCE,
        "mean_max_iter": manifold.DEFAULT_MEAN_MAX_ITERATIONS}


def test_potato_that_empties_a_class_advises_a_higher_threshold(
        tmp_path, carryover_data, capsys):
    out = tmp_path / "model"
    assert run("train", "--data", carryover_data, "--potato-z", 0.01,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert "removed every trial of class" in err
    assert "raise the z threshold" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed inputs: documented exit codes, never a traceback
# ---------------------------------------------------------------------------

def test_nan_sample_is_validation_error(tmp_path, trained):
    data, model = trained
    payload = data / "trial_0002.f64"
    values = bytearray(payload.read_bytes())
    values[8 * 50:8 * 51] = struct.pack("<d", float("nan"))
    payload.write_bytes(bytes(values))
    assert run("train", "--data", data, "--out", tmp_path / "m2") == 2
    assert run("eval", "--data", data, "--model", model,
               "--out", tmp_path / "e") == 2


@pytest.fixture(scope="module")
def trained_once(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    data = gen_small(root, trials_per_class=2)
    assert run("train", "--data", data, "--out", root / "model") == 0
    return data, root / "model" / "model.mdrm"


def _drop_mean_tolerance(header):
    del header["mean_tolerance"]


def _extra_estimator_key(header):
    header["estimator_spec"]["shrink"] = True


def _string_class_count(header):
    header["class_count"] = "four"


def _fractional_class_count(header):
    header["class_count"] = 4.5


def _unknown_estimator_kind(header):
    header["estimator_spec"]["kind"] = "magic"


def _negative_half_bandwidth(header):
    header["preproc_spec"]["half_bandwidth"] = -1.0


def _zero_sample_rate(header):
    header["preproc_spec"]["sample_rate"] = 0.0


def _odd_filter_order(header):
    header["preproc_spec"]["filter_order"] = 3


def _stim_freq_past_nyquist(header):
    header["preproc_spec"]["stim_freqs"][0] = 200.0


def _zero_fp_max_iterations(header):
    header["estimator_spec"]["kind"] = "fixed_point"
    header["estimator_spec"]["fp_max_iterations"] = 0


@pytest.mark.parametrize("edit", [
    _drop_mean_tolerance, _extra_estimator_key, _string_class_count,
    _fractional_class_count, _unknown_estimator_kind,
    _negative_half_bandwidth, _zero_sample_rate, _odd_filter_order,
    _stim_freq_past_nyquist, _zero_fp_max_iterations,
])
def test_corrupt_model_header_is_format_error(tmp_path, trained_once, edit,
                                              capsys):
    data, model = trained_once
    header, payload = model.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    edit(doc)
    broken = tmp_path / "broken.mdrm"
    broken.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    assert run("eval", "--data", data, "--model", broken,
               "--out", tmp_path / "e") == 4
    assert "i/o error" in capsys.readouterr().err


def test_non_finite_model_payload_is_format_error(tmp_path, trained_once):
    data, model = trained_once
    header, payload = model.read_bytes().split(b"\n", 1)
    broken = tmp_path / "broken.mdrm"
    broken.write_bytes(header + b"\n" + struct.pack("<d", float("nan"))
                       + payload[8:])
    assert run("eval", "--data", data, "--model", broken,
               "--out", tmp_path / "e") == 4


@pytest.mark.parametrize("defect", ["off_diagonal", "negated"])
def test_non_spd_model_center_is_format_error(tmp_path, trained_once,
                                              defect):
    # one off-diagonal entry raised by 1.0 (asymmetric), or the whole
    # first center negated (not positive definite): finite, but no SPD
    # matrix
    data, model = trained_once
    header, payload = model.read_bytes().split(b"\n", 1)
    dim = json.loads(header)["dim"]
    first = list(struct.unpack(f"<{dim * dim}d", payload[:8 * dim * dim]))
    if defect == "off_diagonal":
        first[1] += 1.0
    else:
        first = [-v for v in first]
    broken = tmp_path / "broken.mdrm"
    broken.write_bytes(header + b"\n" + struct.pack(f"<{dim * dim}d", *first)
                       + payload[8 * dim * dim:])
    assert run("eval", "--data", data, "--model", broken,
               "--out", tmp_path / "e") == 4
    assert not (tmp_path / "e").exists()


def test_train_on_manifest_without_meta(tmp_path):
    data = gen_small(tmp_path)
    manifest_path = data / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["meta"]
    manifest_path.write_text(json.dumps(manifest))
    assert synthgen.load(data).meta["stim_freqs"] == manifest["stim_freqs"]
    assert run("train", "--data", data, "--out", tmp_path / "m") == 0


def test_train_odd_filter_order_is_validation_error(tmp_path, trained_once):
    data, _ = trained_once
    assert run("train", "--data", data, "--filter-order", 3,
               "--out", tmp_path / "m") == 2


def _word_sample_rate(manifest):
    manifest["sample_rate"] = "fast"


def _word_label(manifest):
    manifest["labels"][0] = "one"


def _huge_sample_rate(manifest):
    manifest["sample_rate"] = 10 ** 400


def _fractional_channels(manifest):
    manifest["channels"] = 8.5


def _numeric_payload_name(manifest):
    manifest["payloads"][0] = 7


def _latin1_bytes(manifest):
    manifest["meta"]["note"] = "caf\u00e9"
    return json.dumps(manifest, ensure_ascii=False).encode("latin-1")


def _unknown_manifest_key(manifest):
    manifest["comment"] = "recorded on site B"


def _word_meta_classes(manifest):
    manifest["meta"]["classes"] = "four"


def _word_meta_stim_freq(manifest):
    manifest["meta"]["stim_freqs"] = ["a", 17, 21]


def _absolute_payload_name(manifest):
    # an existing payload of the right size, named by absolute path
    manifest["payloads"][0] = str(Path(manifest["payloads"][1]).resolve())


def _parent_dir_payload_name(manifest):
    manifest["payloads"][0] = "../data/" + manifest["payloads"][1]


@pytest.mark.parametrize("edit", [
    _word_sample_rate, _huge_sample_rate, _word_label, _fractional_channels,
    _numeric_payload_name, _latin1_bytes, _unknown_manifest_key,
    _word_meta_classes, _word_meta_stim_freq, _absolute_payload_name,
    _parent_dir_payload_name,
])
def test_corrupt_manifest_is_format_error(tmp_path, trained_once, edit,
                                          capsys, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(trained_once[0], data)
    # edits run inside the copied dataset, so one can name its files
    monkeypatch.chdir(data)
    manifest = json.loads((data / "manifest.json").read_text())
    raw = edit(manifest)
    (data / "manifest.json").write_bytes(
        raw if raw is not None else json.dumps(manifest).encode())
    assert run("train", "--data", data, "--out", tmp_path / "m") == 4
    err = capsys.readouterr().err
    assert "i/o error" in err
    assert "Traceback" not in err


def test_embed_cells_parse_as_floats(tmp_path, trained_once):
    data, model = trained_once
    assert run("embed", "--data", data, "--model", model,
               "--out", tmp_path / "a") == 0
    assert run("embed", "--data", data, "--potato-z", 2.5,
               "--out", tmp_path / "b") == 0
    for path in (tmp_path / "a" / "embed.csv",
                 tmp_path / "b" / "embed_before.csv",
                 tmp_path / "b" / "embed_after.csv"):
        for line in path.read_text().splitlines()[1:]:
            _, _, x, y = line.split(",")
            float(x)
            float(y)


# ---------------------------------------------------------------------------
# flag defaults are the library's defaults
# ---------------------------------------------------------------------------

class _Called(Exception):
    pass


def first_call(monkeypatch, owner, name, *argv):
    """Run a command up to its first call of ``owner.name``; return that
    call's positional and keyword arguments."""
    def stop(*args, **kwargs):
        raise _Called(args, kwargs)

    monkeypatch.setattr(owner, name, stop)
    with pytest.raises(_Called) as called:
        run(*argv)
    return called.value.args


def test_gen_defaults_are_gen_config(tmp_path, monkeypatch):
    (config,), _ = first_call(monkeypatch, synthgen, "generate",
                              "gen", "--out", tmp_path / "d")
    assert config == synthgen.GenConfig()


def test_eval_defaults_are_online_config(tmp_path, trained_once,
                                         monkeypatch):
    data, model = trained_once
    (_, _, config), _ = first_call(monkeypatch, online, "evaluate_stream",
                                   "eval", "--data", data, "--model", model,
                                   "--out", tmp_path / "e")
    assert config == OnlineConfig(curve_criterion=False)


def test_train_defaults_are_library_specs(tmp_path, trained_once,
                                          monkeypatch):
    data, _ = trained_once
    (trial_set, estimator, preproc), kwargs = first_call(
        monkeypatch, mdrm, "train", "train", "--data", data,
        "--out", tmp_path / "m")
    assert estimator == EstimatorSpec()
    assert preproc == PreprocSpec.for_trial_set(trial_set)
    assert kwargs == {
        "potato_z": None,
        "mean_tolerance": manifold.DEFAULT_MEAN_TOLERANCE,
        "mean_max_iterations": manifold.DEFAULT_MEAN_MAX_ITERATIONS}


@pytest.mark.parametrize("command", ["embed", "potato"])
def test_covariance_defaults_are_library_specs(tmp_path, trained_once,
                                               monkeypatch, command):
    data, _ = trained_once
    (_, preproc, estimator), _ = first_call(
        monkeypatch, mdrm, "trial_covariance", command, "--data", data,
        "--out", tmp_path / command)
    assert estimator == EstimatorSpec()
    assert preproc == PreprocSpec.for_trial_set(synthgen.load(data))


def test_potato_default_threshold(tmp_path, trained_once, monkeypatch):
    data, _ = trained_once
    _, kwargs = first_call(monkeypatch, mdrm, "potato_filter", "potato",
                           "--data", data, "--out", tmp_path / "p")
    assert kwargs == {"z_threshold": mdrm.DEFAULT_POTATO_Z}


def test_bench_defaults_are_bench_config(tmp_path, trained_once,
                                         monkeypatch):
    data, _ = trained_once
    (trial_set, config, preproc), _ = first_call(
        monkeypatch, metrics, "run_benchmark", "bench", "--data", data,
        "--out", tmp_path / "b")
    # the CLI compares all six estimators; the library default is two
    assert replace(config, estimators=BenchConfig().estimators) == \
        BenchConfig()
    assert preproc == PreprocSpec.for_trial_set(trial_set)


# ---------------------------------------------------------------------------
# estimator flags that the chosen estimator would ignore
# ---------------------------------------------------------------------------

IGNORED_FLAGS = [
    *[(name, ("--kappa", 0.3)) for name in ("scm", "nscm", "fixed-point")],
    *[(name, ("--blankertz-scale", "channels"))
      for name in ("scm", "nscm", "fixed-point", "ledoit", "schafer")],
]


@pytest.mark.parametrize("command", ["train", "embed", "potato"])
@pytest.mark.parametrize("estimator, flag", IGNORED_FLAGS,
                         ids=[f"{e}{f[0]}" for e, f in IGNORED_FLAGS])
def test_ignored_estimator_flag_is_validation_error(tmp_path, trained_once,
                                                    capsys, command,
                                                    estimator, flag):
    data, _ = trained_once
    assert run(command, "--data", data, "--out", tmp_path / command,
               "--estimator", estimator, *flag) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[0] in err
    assert not (tmp_path / command).exists()


# stands for the trained model's path in the argument lists below
MODEL = object()
# stands for a dataset recorded at 512 Hz, which the 256 Hz model refuses
FAST_DATA = object()
# stands for a dataset of one trial per class, too few to bench
ONE_PER_CLASS = object()
LEAVES_NO_TRIAL = "latency of 2304 samples leaves no data in a 1280-sample"
LEAVES_NO_CROP = "latency of 256 samples leaves no data in a 128-sample"
MODEL_SPEC_FLAGS = [("--estimator", "scm"), ("--kappa", 0.3),
                    ("--blankertz-scale", "channels"), ("--latency", 3.0),
                    ("--half-bandwidth", 2.0), ("--filter-order", 6)]


@pytest.mark.parametrize("command, argv, named", [
    ("train", ("--estimator", "bogus"), "bogus"),
    ("eval", ("--model", MODEL, "--window", 0.1, "--step", 0.2), "step"),
    ("eval", ("--model", MODEL, "--step", 0.001), "step"),
    ("eval", ("--model", MODEL, "--data", FAST_DATA), "sample rate 512.0"),
    *[("embed", ("--model", MODEL, *flag), flag[0])
      for flag in MODEL_SPEC_FLAGS],
    ("potato", ("--z", 0), "z_threshold"),
    ("train", ("--potato-z", -1), "z_threshold"),
    ("train", ("--mean-tol", -1), "tolerance"),
    ("train", ("--mean-max-iter", 0), "max_iterations"),
    ("embed", ("--potato-z", 0), "z_threshold"),
    ("bench", ("--lengths", 100), "trial length 100.0 s"),
    ("bench", ("--data", ONE_PER_CLASS), "class 1 needs at least 2 trials"),
    # 9 s of latency leaves nothing of a 5 s trial, 1 s nothing of a 0.5 s
    # crop, whichever length comes first
    ("train", ("--latency", 9), LEAVES_NO_TRIAL),
    ("eval", ("--model", MODEL, "--latency", 9), LEAVES_NO_TRIAL),
    ("eval", ("--model", MODEL, "--latency", -1), "latency must be"),
    ("embed", ("--latency", 9), LEAVES_NO_TRIAL),
    ("potato", ("--latency", 9), LEAVES_NO_TRIAL),
    ("bench", ("--latency", 1.0, "--lengths", "0.5,2"), LEAVES_NO_CROP),
    ("bench", ("--latency", 1.0, "--lengths", "2,0.5"), LEAVES_NO_CROP),
    # non-finite settings
    ("train", ("--latency", "inf"), "latency must be finite"),
    ("eval", ("--model", MODEL, "--latency", "nan"),
     "latency must be finite"),
    ("train", ("--half-bandwidth", "nan"), "half_bandwidth must be positive"),
    ("eval", ("--model", MODEL, "--window", "inf"), "window must be finite"),
    ("potato", ("--z", "nan"), "z_threshold must be positive"),
    ("potato", ("--z", "inf"), "z_threshold must be finite"),
    ("train", ("--potato-z", "nan"), "z_threshold must be positive"),
    ("embed", ("--potato-z", "nan"), "z_threshold must be positive"),
    ("train", ("--mean-tol", "nan"), "tolerance must be positive"),
    ("train", ("--mean-tol", "inf"), "tolerance must be finite"),
    ("bench", ("--lengths", "nan"), "trial lengths must be positive"),
    ("gen", ("--sample-rate", "nan"), "sample_rate must be finite"),
    ("gen", ("--trial-seconds", "nan"), "trial_seconds must be finite"),
    ("gen", ("--carryover", "nan"),
     "transition_carryover_seconds must be finite"),
    ("gen", ("--trial-seconds", "1e308"), "sample count"),
    ("gen", ("--stim-freqs", "-5"), "stimulus frequencies must be positive"),
    ("gen", ("--stim-freqs", "13,inf"),
     "stimulus frequencies must be positive and finite"),
    # 10 ** 308.3 overflows; 10 ** 308 does not, but the gain it sets does
    ("gen", ("--snr-db", "3083"), "gives a signal gain that is not finite"),
    ("gen", ("--snr-db", "3080"), "gives a signal gain that is not finite"),
    ("eval", ("--model", MODEL, "--window", "1e308"),
     "no finite sample count"),
    ("gen", ("--trial-seconds", 0.001, "--trials-per-class", 1),
     "sample count of 0"),
    # refused as the config is built; the overtones alone would be 1e8
    # sinusoids per trial
    ("gen", ("--harmonics", 100000000, "--trials-per-class", 1),
     "Nyquist frequency 128.0 Hz"),
    ("train", ("--filter-order", 1000), "no usable design"),
], ids=["train-estimator", "eval-step", "eval-step-below-one-sample",
        "eval-other-sample-rate",
        *[f"embed-model{f[0]}" for f in MODEL_SPEC_FLAGS],
        "potato-z", "train-potato-z", "train-mean-tol", "train-mean-max-iter",
        "embed-potato-z", "bench-length", "bench-one-trial-per-class",
        "train-latency", "eval-latency", "eval-negative-latency",
        "embed-latency", "potato-latency",
        "bench-latency", "bench-latency-long-length-first",
        "train-latency-inf", "eval-latency-nan", "train-half-bandwidth-nan",
        "eval-window-inf", "potato-z-nan", "potato-z-inf",
        "train-potato-z-nan", "embed-potato-z-nan", "train-mean-tol-nan",
        "train-mean-tol-inf", "bench-lengths-nan", "gen-sample-rate-nan",
        "gen-trial-seconds-nan", "gen-carryover-nan",
        "gen-trial-seconds-overflow", "gen-stim-freqs-negative",
        "gen-stim-freqs-inf", "gen-snr-overflow", "gen-snr-gain-overflow",
        "eval-window-overflow", "gen-trial-seconds-no-sample",
        "gen-harmonics-past-nyquist", "train-filter-order-overflow"])
def test_refused_flags_leave_no_out(tmp_path, trained_once, capsys, command,
                                    argv, named):
    data, model = trained_once
    fill = {MODEL: model}
    if FAST_DATA in argv:
        fill[FAST_DATA] = gen_small(tmp_path, "fast", trials_per_class=1,
                                    sample_rate=512.0)
    if ONE_PER_CLASS in argv:
        fill[ONE_PER_CLASS] = gen_small(tmp_path, "one", trials_per_class=1)
    out = tmp_path / command
    data_flag = () if command == "gen" else ("--data", data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        assert run(command, *data_flag, "--out", out,
                   *[fill.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    # a refusal prints its message alone, with no numpy warning before it
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_high_filter_order_trains_without_warnings(tmp_path, trained_once,
                                                  capsys):
    data, _ = trained_once
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("train", "--data", data, "--out", tmp_path / "m",
                   "--filter-order", 40) == 0
    assert not caught
    assert capsys.readouterr().err == ""


def test_numerical_failure_leaves_no_out(tmp_path, trained_once, capsys):
    data, _ = trained_once
    out = tmp_path / "model"
    # one step brings these class means within the default 1e-8, not 1e-12
    assert run("train", "--data", data, "--out", out,
               "--mean-max-iter", 1, "--mean-tol", 1e-12) == 3
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert not out.exists()


def test_nonempty_out_is_refused_before_any_work(tmp_path, capsys):
    out = tmp_path / "full"
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    # the dataset is missing too, which the refusal comes before
    assert run("train", "--data", tmp_path / "missing", "--out", out) == 2
    assert "is not empty; pass --force" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["kept.txt"]


def test_embed_model_takes_flags_at_their_defaults(tmp_path, trained_once):
    data, model = trained_once
    plain, explicit = tmp_path / "plain", tmp_path / "explicit"
    assert run("embed", "--data", data, "--model", model, "--out", plain) == 0
    assert run("embed", "--data", data, "--model", model, "--out", explicit,
               "--estimator", "schafer", "--latency", 0,
               "--filter-order", PreprocSpec.filter_order) == 0
    for name in ("embed.csv", "run_manifest.json"):
        assert sha(plain / name) == sha(explicit / name)


@pytest.mark.parametrize("argv, spec", [
    (("--estimator", "ledoit", "--kappa", 0.3),
     EstimatorSpec(target="ledoit", kappa=0.3)),
    (("--estimator", "blankertz", "--kappa", 0.2,
      "--blankertz-scale", "channels"),
     EstimatorSpec(target="blankertz", kappa=0.2,
                   blankertz_scale="channels")),
    (("--estimator", "scm", "--blankertz-scale", "matrix_space"),
     EstimatorSpec(kind="scm")),
], ids=["ledoit", "blankertz", "scm"])
def test_applicable_estimator_flags_reach_the_spec(tmp_path, trained_once,
                                                   monkeypatch, argv, spec):
    data, _ = trained_once
    (_, estimator, _), _ = first_call(monkeypatch, mdrm, "train", "train",
                                      "--data", data, "--out",
                                      tmp_path / "m", *argv)
    assert estimator == spec


def test_bench_kappa_applies_to_shrinkage_estimators_only(tmp_path,
                                                          trained_once,
                                                          monkeypatch):
    data, _ = trained_once
    (_, config, _), _ = first_call(
        monkeypatch, metrics, "run_benchmark", "bench", "--data", data,
        "--out", tmp_path / "b", "--estimators", "scm,schafer,fixed-point",
        "--kappa", 0.3)
    assert [s.kappa for s in config.estimators] == [None, 0.3, None]


# ---------------------------------------------------------------------------
# generated corruptions of a model and a manifest
# ---------------------------------------------------------------------------

CORRUPTIONS = st.tuples(
    st.sampled_from(["model header", "model payload", "manifest"]),
    st.sampled_from(["flip", "truncate"]),
    st.integers(0, 2 ** 20),
    st.integers(1, 255))


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corruption=CORRUPTIONS)
def test_corrupted_inputs_exit_with_documented_codes(tmp_path, trained_once,
                                                     capsys, corruption):
    target, kind, at, mask = corruption
    source_data, source_model = trained_once
    data = tmp_path / "data"
    if not data.exists():
        shutil.copytree(source_data, data)
    manifest = (source_data / "manifest.json").read_bytes()
    model = source_model.read_bytes()
    newline = model.index(b"\n")
    blob, start, end = {
        "model header": (model, 0, newline),
        "model payload": (model, newline + 1, len(model)),
        "manifest": (manifest, 0, len(manifest)),
    }[target]
    i = start + at % (end - start)
    if kind == "flip":
        broken = blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:]
    else:
        broken = blob[:i]
    is_manifest = target == "manifest"
    (data / "manifest.json").write_bytes(broken if is_manifest else manifest)
    (tmp_path / "model.mdrm").write_bytes(model if is_manifest else broken)

    code = run("eval", "--data", data, "--model", tmp_path / "model.mdrm",
               "--out", tmp_path / "e", "--force")
    err = capsys.readouterr().err
    # a flip can leave a well-formed file (JSON whitespace, a label, a
    # mantissa bit), and the run then succeeds
    assert code in (0, 2, 3, 4)
    if code:
        assert err.startswith(("error: ", "numerical error: ", "i/o error: "))
    # a cut model always loses bytes its header or size rule needs; a cut
    # manifest is still whole when only its final newline went
    if kind == "truncate" and (not is_manifest or blob[i:].strip()):
        assert code == 4
