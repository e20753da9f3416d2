"""Command-line workflows: gen, train, eval, bench, embed, potato.

Every command takes ``--out`` and writes its artifacts plus a
``run_manifest.json`` that records the command, its flags as given (the
seed under its own key; not ``--out`` or ``--force``) and the artifact
list, enough to re-run it. All randomness flows from ``--seed``; no wall-clock
entropy is used, so reruns are byte-identical. A non-empty
``--out`` is refused before any work unless ``--force`` is given; a
command creates ``--out`` only once its work has succeeded.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence,
4 I/O or format error.
"""

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import __version__, manifold, mdrm, metrics, online, synthgen
from .errors import DataFormatError, NumericalError, ValidationError
from .estimators import EstimatorSpec, RankDeficientCovarianceWarning, \
    spec_from_name
from .formats import csv_cell, write_csv, write_json
from .mdrm import PreprocSpec
from .metrics import BenchConfig, estimator_label
from .online import OnlineConfig
from .synthgen import GenConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _float_list(text):
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _write_run_manifest(args, artifacts):
    config = {name: str(value) if isinstance(value, Path) else value
              for name, value in vars(args).items()
              if name not in ("command", "func", "out", "force", "seed")}
    write_json(args.out / "run_manifest.json", {
        "command": args.command,
        "config": config,
        "seed": args.seed,
        "artifacts": sorted(artifacts),
        "library_version": __version__,
    })


def _add_common(parser):
    parser.add_argument("--out", type=Path, required=True,
                        help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="reuse a non-empty output directory")
    parser.add_argument("--seed", type=int, default=0)


def _add_filter_flags(parser):
    parser.add_argument("--latency", type=float,
                        default=PreprocSpec.latency_seconds,
                        help="seconds to drop from each trial head")
    parser.add_argument("--half-bandwidth", type=float,
                        default=PreprocSpec.half_bandwidth)
    parser.add_argument("--filter-order", type=int,
                        default=PreprocSpec.filter_order)


def _add_preproc_flags(parser):
    parser.add_argument("--estimator", default=estimator_label(EstimatorSpec()),
                        help="scm, nscm, ledoit, blankertz, schafer, fixed-point")
    parser.add_argument("--kappa", type=float,
                        help="fixed shrinkage weight; omit for the analytic value")
    parser.add_argument("--blankertz-scale",
                        default=EstimatorSpec.blankertz_scale,
                        choices=("matrix_space", "channels"),
                        help="denominator of the blankertz target trace")
    _add_filter_flags(parser)


def _estimator(args):
    spec = spec_from_name(args.estimator, kappa=args.kappa,
                          blankertz_scale=args.blankertz_scale)
    # a flag the chosen estimator would ignore is refused, not dropped
    if args.kappa is not None and spec.kind != "shrinkage":
        raise ValidationError(
            f"--kappa applies only to ledoit, blankertz and schafer, "
            f"not {args.estimator}")
    if args.blankertz_scale != EstimatorSpec.blankertz_scale and \
            (spec.kind, spec.target) != ("shrinkage", "blankertz"):
        raise ValidationError(
            f"--blankertz-scale applies only to blankertz, "
            f"not {args.estimator}")
    return spec


def _dataset_preproc(trial_set, args):
    return PreprocSpec.for_trial_set(
        trial_set,
        half_bandwidth=args.half_bandwidth,
        filter_order=args.filter_order,
        latency_seconds=args.latency,
    )


def cmd_gen(args):
    config = GenConfig(
        channels=args.channels,
        sample_rate=args.sample_rate,
        stim_freqs=tuple(args.stim_freqs),
        trial_seconds=args.trial_seconds,
        trials_per_class=args.trials_per_class,
        snr_db=args.snr_db,
        harmonics=args.harmonics,
        transition_carryover_seconds=args.carryover,
        seed=args.seed,
    )
    trial_set = synthgen.generate(config)
    synthgen.save(trial_set, args.out)
    artifacts = ["manifest.json", "labels.csv"] + \
        [f"trial_{i:04d}.f64" for i in range(len(trial_set.trials))]
    _write_run_manifest(args, artifacts)
    print(f"wrote {len(trial_set.trials)} trials "
          f"({config.class_count} classes) to {args.out}")


def cmd_train(args):
    trial_set = synthgen.load(args.data)
    model, report = mdrm.train(trial_set, _estimator(args),
                               _dataset_preproc(trial_set, args),
                               potato_z=args.potato_z,
                               mean_tolerance=args.mean_tol,
                               mean_max_iterations=args.mean_max_iter)
    args.out.mkdir(parents=True, exist_ok=True)
    mdrm.save_model(model, args.out / "model.mdrm")
    write_json(args.out / "train_report.json", report)
    _write_run_manifest(args, ["model.mdrm", "train_report.json"])
    if "potato" in report:
        _, kept, rejected, per_class, _ = report["potato"].values()
        print(f"potato filter: kept {kept}, rejected {rejected} "
              f"(per class {per_class})")
    print(f"trained {model.class_count}-class model "
          f"(dim {model.dim}) -> {args.out / 'model.mdrm'}")


def cmd_eval(args):
    trial_set = synthgen.load(args.data)
    model = mdrm.load_model(args.model)
    # labels of other stimuli would be scored against the model's classes
    recorded = tuple(trial_set.meta.get("stim_freqs", ()))
    if recorded and recorded != model.preproc_spec.stim_freqs:
        raise ValidationError(
            f"the dataset's stimulus frequencies {list(recorded)} differ "
            f"from the model's {list(model.preproc_spec.stim_freqs)}")
    config = OnlineConfig(window_seconds=args.window, step_seconds=args.step,
                          depth=args.depth, theta=args.theta)
    # "offline opt": the model's preprocessing at --latency; only the
    # latency differs, so it filters with the model's band-pass designs
    opt = replace(model.preproc_spec, latency_seconds=args.latency)
    vars(opt)["sos"] = model.preproc_spec.sos
    offline = [mdrm.classify(t, model)[0] for t in trial_set.trials]
    offline_opt = [mdrm.classify_covariance(mdrm.trial_covariance(
        t, opt, model.estimator_spec), model)[0] for t in trial_set.trials]
    # one replay scores the stream; the curve gate reuses its epochs
    plain = online.evaluate_stream(trial_set, model,
                                   replace(config, curve_criterion=False))
    curved = online.regate(plain, config)

    truth = list(trial_set.labels)
    offline_acc = metrics.accuracy(offline, truth)
    offline_opt_acc = metrics.accuracy(offline_opt, truth)
    rows = [[i, true_label, offline[i], offline_opt[i],
             po.decided_label, po.delay_seconds,
             co.decided_label, co.delay_seconds]
            for i, (true_label, po, co)
            in enumerate(zip(truth, plain.outcomes, curved.outcomes))]
    rows.append(["mean", None, offline_acc, offline_opt_acc,
                 plain.accuracy, plain.mean_delay,
                 curved.accuracy, curved.mean_delay])
    args.out.mkdir(parents=True, exist_ok=True)
    write_csv(args.out / "eval.csv",
              ("trial", "truth", "offline", "offline_opt", "online",
               "online_delay_s", "online_curve", "online_curve_delay_s"),
              rows)

    online.write_epoch_log(plain.epoch_log, args.out / "epochs_online.csv")
    online.write_epoch_log(curved.epoch_log,
                           args.out / "epochs_online_curve.csv")
    summary = {
        "offline_acc": offline_acc,
        "offline_opt_acc": offline_opt_acc,
        "offline_opt_latency_s": args.latency,
        "online_acc": plain.accuracy,
        "online_mean_delay_s": plain.mean_delay,
        "online_decided": plain.decided_count,
        "online_held_back": plain.held_back_count,
        "online_curve_acc": curved.accuracy,
        "online_curve_mean_delay_s": curved.mean_delay,
        "online_curve_decided": curved.decided_count,
        "online_curve_held_back": curved.held_back_count,
    }
    write_json(args.out / "eval.json", summary)
    _write_run_manifest(args, ["eval.csv", "eval.json", "epochs_online.csv",
                               "epochs_online_curve.csv"])
    print(f"offline {summary['offline_acc']:.2f}% | "
          f"offline opt {summary['offline_opt_acc']:.2f}% | "
          f"online {csv_cell(summary['online_acc'])}% "
          f"({csv_cell(summary['online_mean_delay_s'])} s) | "
          f"online+curve {csv_cell(summary['online_curve_acc'])}% "
          f"({csv_cell(summary['online_curve_mean_delay_s'])} s)")


def cmd_bench(args):
    trial_set = synthgen.load(args.data)
    specs = tuple(spec_from_name(name, kappa=args.kappa)
                  for name in args.estimators.split(","))
    config = BenchConfig(
        replications=args.replications,
        trial_lengths_seconds=tuple(args.lengths),
        estimators=specs,
        seed=args.seed,
    )
    preproc = _dataset_preproc(trial_set, args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficientCovarianceWarning)
        report = metrics.run_benchmark(trial_set, config, preproc)
    deficient = sum(issubclass(w.category, RankDeficientCovarianceWarning)
                    for w in caught)
    if deficient:
        print(f"note: {deficient} rank-deficient sample covariances "
              f"(expected for short crops)", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    report.to_csv(args.out / "bench.csv")
    report.to_json(args.out / "bench.json")
    _write_run_manifest(args, ["bench.csv", "bench.json"])
    print(f"benchmarked {len(specs)} estimators x {len(args.lengths)} "
          f"lengths x {args.replications} replications -> "
          f"{args.out / 'bench.csv'}")


def _dataset_specs(trial_set, args, model=None):
    """``(preproc, estimator)``: the model's specs when one is given, else
    the ones the flags build."""
    if model is None:
        return _dataset_preproc(trial_set, args), _estimator(args)
    # the model fixes both specs, so a flag that would change them is
    # refused rather than ignored
    defaults = argparse.ArgumentParser(add_help=False)
    _add_preproc_flags(defaults)
    for name, default in vars(defaults.parse_args([])).items():
        if getattr(args, name) != default:
            raise ValidationError(
                f"--{name.replace('_', '-')} does not apply with --model, "
                f"whose estimator and filters are used")
    return model.preproc_spec, model.estimator_spec


def cmd_embed(args):
    trial_set = synthgen.load(args.data)
    model = mdrm.load_model(args.model) if args.model else None
    preproc, estimator = _dataset_specs(trial_set, args, model)
    covs = [mdrm.trial_covariance(t, preproc, estimator)
            for t in trial_set.trials]
    before = metrics.tangent_embed(covs, trial_set.labels)
    embeddings = {"embed.csv": before}
    if args.potato_z is not None:
        kept = mdrm.potato_filter(covs, z_threshold=args.potato_z).kept
        embeddings = {"embed_before.csv": before,
                      "embed_after.csv": metrics.tangent_embed(
                          [covs[i] for i in kept],
                          [trial_set.labels[i] for i in kept])}
    args.out.mkdir(parents=True, exist_ok=True)
    centers = list(model.centers) if model is not None else None
    for name, embedding in embeddings.items():
        metrics.write_embedding_csv(embedding, args.out / name, centers)
    if args.potato_z is None:
        print(f"embedded {len(covs)} trials -> {args.out / 'embed.csv'}")
    else:
        print(f"embedded {len(covs)} trials; potato kept {len(kept)}")
    _write_run_manifest(args, list(embeddings))


def cmd_potato(args):
    trial_set = synthgen.load(args.data)
    preproc, estimator = _dataset_specs(trial_set, args)
    covs = [mdrm.trial_covariance(t, preproc, estimator)
            for t in trial_set.trials]
    result = mdrm.potato_filter(covs, z_threshold=args.z)
    args.out.mkdir(parents=True, exist_ok=True)
    write_csv(args.out / "potato.csv",
              ("trial", "label", "distance", "zscore", "kept"),
              [(i, trial_set.labels[i], dist, z, i in result.kept)
               for i, (dist, z) in enumerate(zip(result.distances,
                                                 result.zscores))])
    write_json(args.out / "potato.json", result.summary(
        trial_set.labels, trial_set.class_count, args.z))
    _write_run_manifest(args, ["potato.csv", "potato.json"])
    print(f"potato kept {len(result.kept)} of {len(covs)} trials "
          f"at z <= {args.z}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spdbci",
        description="Riemannian covariance classification workflows")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_common(p_gen)
    p_gen.add_argument("--channels", type=int, default=GenConfig.channels)
    p_gen.add_argument("--sample-rate", type=float,
                       default=GenConfig.sample_rate)
    p_gen.add_argument("--stim-freqs", type=_float_list,
                       default=GenConfig.stim_freqs)
    p_gen.add_argument("--trial-seconds", type=float,
                       default=GenConfig.trial_seconds)
    p_gen.add_argument("--trials-per-class", type=int,
                       default=GenConfig.trials_per_class)
    p_gen.add_argument("--snr-db", type=float, default=GenConfig.snr_db)
    p_gen.add_argument("--harmonics", type=int, default=GenConfig.harmonics)
    p_gen.add_argument("--carryover", type=float,
                       default=GenConfig.transition_carryover_seconds,
                       help="seconds of previous-trial signal kept at each trial head")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train class centers")
    _add_common(p_train)
    _add_preproc_flags(p_train)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--potato-z", type=float,
                         help="enable outlier filtering at this z threshold")
    p_train.add_argument("--mean-tol", type=float,
                         default=manifold.DEFAULT_MEAN_TOLERANCE,
                         help="center solver tolerance (loosen for very "
                              "spread covariances)")
    p_train.add_argument("--mean-max-iter", type=int,
                         default=manifold.DEFAULT_MEAN_MAX_ITERATIONS)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="offline and online evaluation")
    _add_common(p_eval)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--latency", type=float, default=2.0,
                        help="trim for the optimized offline column")
    p_eval.add_argument("--window", type=float,
                        default=OnlineConfig.window_seconds)
    p_eval.add_argument("--step", type=float,
                        default=OnlineConfig.step_seconds)
    p_eval.add_argument("--depth", type=int, default=OnlineConfig.depth)
    p_eval.add_argument("--theta", type=float, default=OnlineConfig.theta)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="bootstrap estimator comparison")
    _add_common(p_bench)
    p_bench.add_argument("--data", required=True)
    p_bench.add_argument("--estimators",
                         default="scm,nscm,ledoit,blankertz,schafer,fixed-point")
    p_bench.add_argument("--lengths", type=_float_list,
                         default=BenchConfig.trial_lengths_seconds)
    p_bench.add_argument("--replications", type=int,
                         default=BenchConfig.replications)
    p_bench.add_argument("--kappa", type=float,
                         help="fixed shrinkage weight for the ledoit, "
                              "blankertz and schafer estimators; the "
                              "others ignore it")
    _add_filter_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_embed = sub.add_parser("embed", help="tangent-space 2-D embedding")
    _add_common(p_embed)
    _add_preproc_flags(p_embed)
    p_embed.add_argument("--data", required=True)
    p_embed.add_argument("--model",
                         help="overlay this model's class centers")
    p_embed.add_argument("--potato-z", type=float,
                         help="also emit the embedding after outlier filtering")
    p_embed.set_defaults(func=cmd_embed)

    p_potato = sub.add_parser("potato", help="distance-based outlier report")
    _add_common(p_potato)
    _add_preproc_flags(p_potato)
    p_potato.add_argument("--data", required=True)
    p_potato.add_argument("--z", type=float, default=mdrm.DEFAULT_POTATO_Z)
    p_potato.set_defaults(func=cmd_potato)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out.exists() and any(args.out.iterdir()) and not args.force:
            raise ValidationError(f"output directory {args.out} is not "
                                  f"empty; pass --force to reuse it")
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
