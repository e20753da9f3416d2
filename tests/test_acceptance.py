"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions hold; a failing criterion fails its test. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spdbci import cli, manifold, mdrm, metrics, online, synthgen
from spdbci.estimators import EstimatorSpec, Trial, estimate, scm, nscm, \
    _fixed_point_step
from spdbci.mdrm import PreprocSpec
from spdbci.online import OnlineConfig, OnlineState

from conftest import random_spd


def report(line):
    print(f"\n[ACCEPTANCE] {line}")


def crop_trialset(ts, seconds):
    n = int(seconds * ts.sample_rate)
    return synthgen.TrialSet(
        [Trial(t.values[:, :n], t.sample_rate) for t in ts.trials],
        list(ts.labels), dict(ts.meta))


# ---------------------------------------------------------------------------
# 1. manifold identity suite
# ---------------------------------------------------------------------------

def test_criterion_01_manifold_identities():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    pairs = 500
    for i in range(pairs):
        dim = 2 + i % 23  # cycles through 2..24
        p = random_spd(rng, dim)
        q = random_spd(rng, dim)
        d_pq = manifold.distance(p, q)
        assert abs(d_pq - manifold.distance(q, p)) < 1e-9
        r = random_spd(rng, dim)
        assert manifold.distance(p, r) <= \
            d_pq + manifold.distance(q, r) + 1e-9
        w = rng.standard_normal((dim, dim)) + 0.5 * np.eye(dim)
        assert abs(manifold.distance(w @ p @ w.T, w @ q @ w.T) - d_pq) < 1e-7
        assert abs(manifold.distance(np.linalg.inv(p), np.linalg.inv(q))
                   - d_pq) < 1e-7
        back = manifold.exp_map(p, manifold.log_map(p, q))
        assert np.linalg.norm(back - q) < 1e-7
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(f"criterion 1 PASS: {pairs} SPD pairs (dims 2-24) satisfy "
           f"symmetry/triangle/congruence/inversion/round-trip in "
           f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. geometric mean
# ---------------------------------------------------------------------------

def test_criterion_02_karcher_mean():
    rng = np.random.default_rng(102)
    eigs = rng.uniform(0.2, 5.0, size=(8, 5))
    mats = [np.diag(e) for e in eigs]
    closed_form = np.diag(np.exp(np.mean(np.log(eigs), axis=0)))
    got = manifold.karcher_mean(mats)
    assert np.linalg.norm(got - closed_form) < 1e-8

    points = [random_spd(rng, 5) for _ in range(9)]
    mean = manifold.karcher_mean(points, tolerance=1e-8)
    grad = sum(manifold.log_map(mean, p) for p in points) / len(points)
    residual = np.linalg.norm(grad)
    assert residual < 1e-8

    w = rng.standard_normal((5, 5)) + 0.5 * np.eye(5)
    lhs = manifold.karcher_mean([w @ p @ w.T for p in points])
    rhs = w @ mean @ w.T
    assert np.linalg.norm(lhs - rhs) < 1e-6
    report(f"criterion 2 PASS: commuting closed form to 1e-8, first-order "
           f"residual {residual:.2e} < 1e-8, congruence equivariance to 1e-6")


# ---------------------------------------------------------------------------
# 3. estimator oracles
# ---------------------------------------------------------------------------

def test_criterion_03_estimator_oracles():
    # SCM: hand value and brute-force oracle
    hand = Trial(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]), 256.0)
    assert np.linalg.norm(scm(hand) - np.array([[1.0, 0.5], [0.5, 1.0]])) < 1e-10

    rng = np.random.default_rng(103)
    x = rng.standard_normal((4, 25))
    xc = x - x.mean(axis=1, keepdims=True)
    brute = sum(np.outer(xc[:, i], xc[:, i]) for i in range(25)) / 24
    assert np.linalg.norm(scm(Trial(x, 256.0)) - brute) < 1e-10

    # NSCM scale invariance
    y = rng.standard_normal((3, 40))
    assert np.linalg.norm(nscm(Trial(y, 256.0)) - nscm(Trial(4.2 * y, 256.0))) < 1e-12

    # fixed point: one-step hand oracle
    z = np.array([[1.0, 2.0, -1.0, 0.5], [0.0, 1.0, 1.0, -2.0]])
    trial = Trial(z, 256.0)
    sigma0 = nscm(trial)
    zc = z - z.mean(axis=1, keepdims=True)
    inv = np.linalg.inv(sigma0)
    expected = (2 / 4) * sum(
        np.outer(zc[:, i], zc[:, i]) / (zc[:, i] @ inv @ zc[:, i])
        for i in range(4))
    assert np.linalg.norm(_fixed_point_step(zc, sigma0) - expected) < 1e-10

    # shrinkage conditioning on 100 random trials
    for i in range(100):
        t = Trial(np.random.default_rng(200 + i).standard_normal((4, 12)), 256.0)
        base = manifold.condition_ratio(scm(t))
        for target in ("ledoit", "blankertz"):
            for kappa in (0.1, 0.5):
                spec = EstimatorSpec(kind="shrinkage", target=target, kappa=kappa)
                assert manifold.condition_ratio(estimate(t, spec)) < base
    report("criterion 3 PASS: SCM/NSCM/fixed-point oracles to 1e-10, "
           "shrinkage conditioning strictly improved on 100 random trials")


# ---------------------------------------------------------------------------
# 4. short-trial conditioning
# ---------------------------------------------------------------------------

def test_criterion_04_short_trial_conditioning():
    started = time.monotonic()
    ts = synthgen.generate(synthgen.GenConfig(trials_per_class=8,
                                              snr_db=10.0, seed=0))
    pre = PreprocSpec(stim_freqs=tuple(ts.meta["stim_freqs"]),
                      sample_rate=ts.sample_rate)
    config = metrics.BenchConfig(
        replications=50,
        trial_lengths_seconds=(0.5, 5.0),
        estimators=(EstimatorSpec(kind="scm"),
                    EstimatorSpec(kind="shrinkage", target="schafer")),
        seed=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = metrics.run_benchmark(ts, config, pre)
    rows = {(r.estimator, r.length_seconds): r for r in rep.rows}
    scm_short = rows[("scm", 0.5)].cond_mean
    scm_long = rows[("scm", 5.0)].cond_mean
    schafer_short = rows[("schafer", 0.5)].cond_mean
    elapsed = time.monotonic() - started
    assert schafer_short < scm_short
    assert scm_short >= 10.0 * scm_long
    assert elapsed < 120.0
    report(f"criterion 4 PASS: 0.5 s crops (N=128, 24 rows) give "
           f"cond(schafer)={schafer_short:.2e} < cond(scm)={scm_short:.2e}; "
           f"scm 0.5s/5s ratio {scm_short / scm_long:.1f} >= 10; "
           f"{elapsed:.0f} s for 50 replications")


# ---------------------------------------------------------------------------
# 5. offline classification end to end
# ---------------------------------------------------------------------------

def test_criterion_05_mdrm_end_to_end(clean_set, default_preproc, schafer_spec):
    train_set, test_set = synthgen.stratified_split(clean_set, 8)
    model, _ = mdrm.train(train_set, schafer_spec, default_preproc)
    preds = [mdrm.classify(t, model)[0] for t in test_set.trials]
    acc_full = metrics.accuracy(preds, test_set.labels)
    assert acc_full >= 90.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train_1s = crop_trialset(train_set, 1.0)
        test_1s = crop_trialset(test_set, 1.0)
        model_1s, _ = mdrm.train(train_1s, schafer_spec, default_preproc,
                                 mean_tolerance=1e-4)
        preds_1s = [mdrm.classify(t, model_1s)[0] for t in test_1s.trials]
    acc_short = metrics.accuracy(preds_1s, test_1s.labels)
    chance = 100.0 / clean_set.class_count
    assert acc_short >= chance + 20.0
    report(f"criterion 5 PASS: held-out accuracy {acc_full:.1f}% >= 90% at "
           f"6 s; {acc_short:.1f}% >= chance+20 at 1 s (Schafer)")


# ---------------------------------------------------------------------------
# 6. online gate soundness and timing
# ---------------------------------------------------------------------------

def test_criterion_06_online_soundness(clean_set, default_preproc, schafer_spec):
    train_set, test_set = synthgen.stratified_split(clean_set, 8)
    model, _ = mdrm.train(train_set, schafer_spec, default_preproc)

    # gate soundness on a mixed-class stream and on pure noise
    config = OnlineConfig()
    state = OnlineState(model, config)
    decisions = []
    for trial in test_set.trials:
        decisions.extend(state.push_samples(trial.values))
    rng = np.random.default_rng(106)
    state_noise = OnlineState(model, config)
    decisions += state_noise.push_samples(rng.standard_normal((8, 20 * 256)))
    for d in decisions:
        assert d.occurrence > 0.7
        assert d.curve_sum < 0.0

    # telescoping identity of the curve sum
    for _ in range(200):
        rows = rng.uniform(0.01, 1.0, size=(5, 4))
        deltas = [row / row.sum() for row in rows]
        for cand in range(1, 5):
            value, _ = online.curve_criterion(deltas, cand)
            assert abs(value - (deltas[-1][cand - 1] - deltas[0][cand - 1])) \
                < 1e-12

    # earliest decision at exactly w + (d-1) dN of buffered signal; the
    # occurrence gate alone is timed because a cold stream start cannot
    # satisfy the trajectory gate by construction
    cls = test_set.labels[0]
    same = [t for t, lab in zip(test_set.trials, test_set.labels) if lab == cls]
    stream = np.hstack([t.values for t in same])
    occ_config = OnlineConfig(curve_criterion=False)
    need = 921 + 4 * 51  # w_s + (d - 1) * step_s at 256 Hz
    assert need == 1125

    state_short = OnlineState(model, occ_config)
    assert state_short.push_samples(stream[:, :need - 1]) == []
    state_full = OnlineState(model, occ_config)
    first = state_full.push_samples(stream)[0]
    assert first.end_sample == need
    assert abs(first.elapsed_seconds - 4.4) < 0.01
    report(f"criterion 6 PASS: {len(decisions)} decisions all satisfy "
           f"rho>0.7 and curve<0; telescoping to 1e-12; earliest decision "
           f"at {need} samples = {first.elapsed_seconds:.3f} s (4.4 s "
           f"minus flooring)")


# ---------------------------------------------------------------------------
# 7. directional reproduction of the online comparison
# ---------------------------------------------------------------------------

def test_criterion_07_curve_direction_over_seeds(schafer_spec):
    started = time.monotonic()
    wins = 0
    delays_plain, delays_curve = [], []
    for seed in range(20):
        cfg = synthgen.GenConfig(trials_per_class=16, snr_db=10.0,
                                 transition_carryover_seconds=2.0, seed=seed)
        ts = synthgen.generate(cfg)
        train_set, test_set = synthgen.stratified_split(ts, 8)
        pre = PreprocSpec(stim_freqs=cfg.stim_freqs,
                          sample_rate=cfg.sample_rate)
        model, _ = mdrm.train(train_set, schafer_spec, pre,
                              mean_tolerance=1e-4)
        # score the stream once; the curve gate reuses its epochs
        plain = online.evaluate_stream(test_set, model,
                                       OnlineConfig(curve_criterion=False))
        curved = online.regate(plain, OnlineConfig(curve_criterion=True))
        if curved.accuracy >= plain.accuracy:
            wins += 1
        delays_plain.append(plain.mean_delay)
        delays_curve.append(curved.mean_delay)
    elapsed = time.monotonic() - started
    assert wins >= 16
    assert np.mean(delays_curve) >= np.mean(delays_plain)
    assert elapsed < 300.0
    report(f"criterion 7 PASS: curve gate wins {wins}/20 seeds; mean delay "
           f"{np.mean(delays_curve):.3f} s >= {np.mean(delays_plain):.3f} s; "
           f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 8. cue-latency trimming
# ---------------------------------------------------------------------------

def test_criterion_08_latency_trim(carryover_set, schafer_spec):
    pre = PreprocSpec(stim_freqs=tuple(carryover_set.meta["stim_freqs"]),
                      sample_rate=carryover_set.sample_rate)
    train_set, test_set = synthgen.stratified_split(carryover_set, 8)
    model, _ = mdrm.train(train_set, schafer_spec, pre, mean_tolerance=1e-4)
    lat0 = [mdrm.classify(t, model)[0] for t in test_set.trials]
    trim2 = replace(pre, latency_seconds=2.0)
    lat2 = [mdrm.classify_covariance(mdrm.trial_covariance(
        t, trim2, model.estimator_spec), model)[0] for t in test_set.trials]
    acc0 = metrics.accuracy(lat0, test_set.labels)
    acc2 = metrics.accuracy(lat2, test_set.labels)
    assert acc2 >= acc0 + 5.0
    report(f"criterion 8 PASS: 2 s latency trim lifts accuracy "
           f"{acc0:.1f}% -> {acc2:.1f}% (>= 5 points) on 2 s carryover data")


# ---------------------------------------------------------------------------
# 9. outlier filter
# ---------------------------------------------------------------------------

def test_criterion_09_potato():
    rng = np.random.default_rng(109)
    base = random_spd(rng, 4)
    cluster = []
    for _ in range(20):
        s = rng.standard_normal((4, 4))
        cluster.append(manifold.exp_map(base, 0.05 * (s + s.T) / 2))
    radius = max(manifold.distance(base, c) for c in cluster)
    outlier = manifold.exp_map(base, 10.0 * radius * np.eye(4))
    result = mdrm.potato_filter(cluster + [outlier], z_threshold=2.5)
    assert result.rejected == (20,)
    assert result.kept == tuple(range(20))

    identical = [base.copy() for _ in range(8)]
    degenerate = mdrm.potato_filter(identical, z_threshold=2.5)
    assert degenerate.degenerate
    assert degenerate.rejected == ()
    report("criterion 9 PASS: 10x outlier rejected at z=2.5 with all 20 "
           "inliers kept; identical set rejects nothing")


# ---------------------------------------------------------------------------
# 10. determinism of the CLI workflows
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    # Identical flags each time: reruns overwrite the same directories so
    # only genuine nondeterminism can change the bytes.
    data = tmp_path / "data"
    model = tmp_path / "model"
    evald = tmp_path / "eval"
    bench = tmp_path / "bench"

    def digest_dir(path):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()
        }

    def pipeline():
        assert cli.main(["gen", "--seed", "5", "--out", str(data),
                         "--trials-per-class", "3", "--snr-db", "30.0",
                         "--trial-seconds", "5.0", "--force"]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(model),
                         "--force"]) == 0
        assert cli.main(["eval", "--data", str(data),
                         "--model", str(model / "model.mdrm"), "--force",
                         "--out", str(evald)]) == 0
        assert cli.main(["bench", "--data", str(data),
                         "--estimators", "scm,schafer",
                         "--lengths", "1.0,5.0", "--replications", "3",
                         "--force", "--out", str(bench)]) == 0
        return {"data": digest_dir(data), "model": digest_dir(model),
                "eval": digest_dir(evald), "bench": digest_dir(bench)}

    first = pipeline()
    second = pipeline()
    assert first == second, "repeat run changed output bytes"
    report("criterion 10 PASS: gen/train/eval/bench byte-identical across "
           "two runs")


# ---------------------------------------------------------------------------
# 11. information transfer rate spot values
# ---------------------------------------------------------------------------

def test_criterion_11_itr_spot_values():
    perfect = metrics.itr(1.0, 4, 60.0)
    assert perfect == pytest.approx(120.0, abs=1e-12)
    chance = metrics.itr(0.25, 4, 60.0)
    assert chance == pytest.approx(0.0, abs=1e-12)
    assert metrics.itr(1.0 / 3.0, 3, 60.0) == pytest.approx(0.0, abs=1e-9)
    report(f"criterion 11 PASS: itr(1, 4, 60/min) = {perfect} bits/min; "
           f"itr at chance = {chance}")
