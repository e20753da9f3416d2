"""Curve-based online classification over a live multichannel stream.

The stream is band-pass stacked continuously (filter state persists
across epochs) and cut into overlapping sliding-window epochs. Filtering
runs in blocks on a grid that the epoch plan fixes, so every epoch end
is a block boundary and the caller's frame sizes never change a bit of
the output; raw samples past the last boundary wait for the next one.
For the SCM and shrinkage estimators, the moment sums of each filtered
block are taken once and an epoch's estimate is built from the sums of
the blocks its window spans; the NSCM and the fixed point, which weight
each sample by its distance from the window mean, read the window again.
Epochs are classified, a push's as one stack, then gated in order; the
last ``d`` epoch labels and normalized distance profiles feed two gates:

* occurrence: the most recurrent label among the last ``d`` epochs must
  hold a fraction strictly above ``theta``;
* curve direction: the summed consecutive differences of the candidate
  class's normalized distance over those epochs must be negative, i.e.
  the covariance trajectory is moving toward that class center. The sum
  telescopes to the last epoch's value minus the first's, so it is 0 at
  depth 1 and that gate never passes there.

A decision is emitted only when the gates pass; the label/distance
history is then cleared so one sustained response cannot fire twice
from the same epochs.

Scoring an epoch (window, covariance, class distances) and gating it are
separate steps: a scored stream can be gated again under other gate
settings (:func:`regate`) without filtering or estimating anything twice.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .estimators import MOMENT_KINDS, Moments, Trial, check_finite, \
    estimate, real_samples
from .formats import write_csv
from .mdrm import classify_covariance
from .preprocessing import BandpassFilterBank, EpochPlan, epoch_ends

_SCORE_CHUNK = 64  # epochs per scored stack, bounding a push's temporaries


@dataclass(frozen=True)
class OnlineConfig:
    """Streaming hyperparameters: window w, stride dN, history depth d,
    occurrence threshold theta, and whether the curve gate is active."""

    window_seconds: float = 3.6
    step_seconds: float = 0.2
    depth: int = 5
    theta: float = 0.7
    curve_criterion: bool = True

    def __post_init__(self):
        EpochPlan(self.window_seconds, self.step_seconds)
        if self.depth < 1:
            raise ValidationError("depth must be at least 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValidationError("theta must lie in (0, 1]")

    def plan(self):
        return EpochPlan(self.window_seconds, self.step_seconds)


@dataclass(frozen=True)
class Decision:
    """An emitted classification: which class, when, and the gate values."""

    label: int
    epoch_index: int
    elapsed_seconds: float
    occurrence: float
    curve_sum: float
    end_sample: int


def occurrence(labels, class_count):
    """Occurrence probabilities of the last-d epoch labels.

    Returns ``(rho, candidate)`` where ``rho[k-1]`` is the fraction of
    epochs labelled k and the candidate is the most recurrent label
    (ties to the lowest index).
    """
    labels = np.asarray(list(labels), dtype=int)
    if not labels.size:
        raise ValidationError("occurrence needs at least one label")
    rho = np.bincount(labels - 1, minlength=class_count) / labels.size
    return rho, int(np.argmax(rho)) + 1


def curve_criterion(deltas, candidate):
    """Sum of consecutive differences of the candidate's normalized distance.

    ``deltas`` is the last-d sequence of normalized distance vectors. The
    sum telescopes to the last one's entry minus the first one's, so one
    epoch gives 0. Returns ``(value, passed)``; the gate passes when the
    sum is strictly negative (trajectory approaching the candidate center).
    """
    if not len(deltas):
        raise ValidationError("curve criterion needs at least one epoch")
    value = float(deltas[-1][candidate - 1] - deltas[0][candidate - 1])
    return value, value < 0.0


class _MomentRing:
    """Block :class:`~spdbci.estimators.Moments` of the last window.

    A window of ``w = q d + r`` samples that ends on the grid spans the
    last ``q`` blocks of ``d`` samples and the last ``r`` samples of the
    block before them. The ring keeps the moment sums of the last ``q``
    blocks and of each one's last ``r`` samples, and adds the window's
    sums up again from them at every epoch, so no rounding error carries
    over from one epoch to the next. Its memory is fixed: ``capacity``
    is the window's sample count, whatever the blocks' sizes.
    """

    def __init__(self, rows, window, step):
        self.capacity = window
        self._q, self._r = divmod(window, step)
        size = 2 * rows + 1
        self._blocks = np.zeros((self._q, size, size))
        self._tails = np.zeros((self._q, size, size))
        self._head = np.zeros((size, size))
        self._slot = 0

    def append(self, block):
        slot = self._slot
        # the last r samples of the block leaving the ring open the window
        self._head[...] = self._tails[slot]
        split = block.shape[1] - self._r
        tail = Moments.of(block[:, split:]).sums
        self._tails[slot] = tail
        self._blocks[slot] = Moments.of(block[:, :split]).sums + tail
        self._slot = (slot + 1) % self._q

    def last_window(self):
        """The moment sums of the window that ends with the last block."""
        return self._blocks.sum(axis=0) + self._head


class _Gate:
    """Occurrence + curve-direction gate over the last ``d`` scored epochs.

    :meth:`step` takes one scored epoch (a mapping with ``epoch``,
    ``end_sample``, ``end_seconds``, ``label`` and ``distances``; an
    epoch-log row will do) and returns its new epoch-log row, with the
    gate's ``candidate``, ``rho``, ``delta`` and ``decided``, and the
    :class:`Decision` it triggers, or None. The history holds the labels
    and normalized distances of the epochs since the last decision.
    """

    def __init__(self, config):
        self.config = config
        self.labels = deque(maxlen=config.depth)
        self.deltas = deque(maxlen=config.depth)

    def step(self, scored):
        row = {**scored, "candidate": None, "rho": None, "delta": None,
               "decided": False}
        dists = np.array(row["distances"])
        self.labels.append(row["label"])
        self.deltas.append(dists / dists.sum())
        if len(self.labels) < self.config.depth:
            return row, None
        rho, candidate = occurrence(self.labels, len(dists))
        row["candidate"] = candidate
        row["rho"] = float(rho[candidate - 1])
        value, curve_ok = curve_criterion(self.deltas, candidate)
        row["delta"] = value
        if not (rho[candidate - 1] > self.config.theta
                and (curve_ok or not self.config.curve_criterion)):
            return row, None
        row["decided"] = True
        self.labels.clear()
        self.deltas.clear()
        return row, Decision(
            label=candidate,
            epoch_index=row["epoch"],
            elapsed_seconds=row["end_seconds"],
            occurrence=row["rho"],
            curve_sum=value,
            end_sample=row["end_sample"],
        )


class OnlineState:
    """Single-stream state machine: push samples in, collect decisions out.

    One instance per stream, single writer. Decisions are immutable and
    may be handed to other threads freely. ``epoch_log`` holds one row per
    epoch, with the epoch's class distances as a tuple of floats.
    """

    def __init__(self, model, config=None):
        self.model = model
        self.config = config or OnlineConfig()
        preproc = model.preproc_spec
        self.channels = model.channels
        self.sample_rate = preproc.sample_rate
        plan = self.config.plan()
        self._w = plan.window_samples(self.sample_rate)
        first_block, self._step = plan.grid_blocks(self.sample_rate)
        self._bank = BandpassFilterBank(
            preproc.stim_freqs, self.channels, self.sample_rate,
            preproc.half_bandwidth, preproc.filter_order, preproc.sos,
            block_lengths={first_block, self._step})
        self._next_block = first_block
        # raw samples after the last block boundary
        self._raw = np.empty((self.channels, 0))
        self._filtered = 0
        # the SCM and shrinkage estimates need only the window's moments;
        # the others read the window's filtered samples
        self._moments = model.estimator_spec.kind in MOMENT_KINDS
        if self._moments:
            self._buffer = _MomentRing(model.dim, self._w, self._step)
        else:
            self._window = np.empty((model.dim, 0))
        self._gate = _Gate(self.config)
        self.epoch_index = 0
        self.samples_seen = 0
        self.epoch_log = []

    def push_samples(self, frame):
        """Ingest a (channels x m) chunk; returns decisions it triggered.

        Epochs are cut strictly by absolute sample index, at the
        boundaries of :func:`~spdbci.preprocessing.epoch_ends`, and the
        filter runs in blocks of the plan's grid (see
        :meth:`~spdbci.preprocessing.EpochPlan.grid_blocks`), so neither
        the decisions nor any bit of the epoch log depends on how the
        stream is chopped into frames. The epochs a push completes are
        scored together, :data:`_SCORE_CHUNK` at a time, before it returns.

        An epoch that cannot be scored raises ValidationError naming its
        number and end sample. After any error, the epochs filtered but not
        yet scored (at most one stack) get no log row but keep their
        numbers, so later epochs are numbered and placed as ever; the
        unfiltered samples wait for the next push, and the decisions of
        the push's earlier stacks are only in the epoch log.
        """
        frame = real_samples(frame, "frame")
        if frame.ndim == 1:
            frame = frame[:, None]
        if frame.ndim != 2:
            raise ValidationError(
                f"frame must be 1-D or 2-D, got {frame.ndim}-D")
        if frame.shape[0] != self.channels:
            raise ValidationError(
                f"frame has {frame.shape[0]} channels, stream expects "
                f"{self.channels}")
        check_finite(frame, "frame")
        raw = np.hstack([self._raw, frame])
        self.samples_seen += frame.shape[1]
        decisions, pending = [], []
        pos = 0
        try:
            while raw.shape[1] - pos >= self._next_block:
                block = raw[:, pos:pos + self._next_block]
                pos += self._next_block
                self._filtered += self._next_block
                self._next_block = self._step
                filtered = self._bank.process(block)
                if self._moments:
                    self._buffer.append(filtered)
                else:
                    self._window = np.hstack(
                        [self._window, filtered])[:, -self._w:]
                # from the first window on, every block boundary ends an
                # epoch
                if self._filtered >= self._w:
                    window = self._buffer.last_window() if self._moments \
                        else self._estimate()
                    pending.append((self._filtered, window))
                    if len(pending) == _SCORE_CHUNK:
                        decisions += self._score(*zip(*pending))
                        pending = []
            if pending:
                decisions += self._score(*zip(*pending))
        finally:
            # even after an error, samples_seen is the filtered plus the
            # buffered samples, and the epochs filtered but not scored
            # keep their numbers
            self._raw = raw[:, pos:]
            self.epoch_index = len(epoch_ends(self._filtered, self._w,
                                              self._step))
        return decisions

    def _estimate(self):
        """The covariance of the epoch that ends with the last block."""
        try:
            return estimate(Trial(self._window, self.sample_rate),
                            self.model.estimator_spec)
        except ValidationError as exc:
            raise self._unscorable(self._filtered, str(exc)) from exc

    def _score(self, ends, windows):
        """Estimate (from moment sums) and classify stacked epochs in one
        call each, then gate them in order; returns the decisions."""
        covs = np.array(windows)
        if self._moments:
            covs = estimate(Moments(covs), self.model.estimator_spec)
        try:
            labels, dists = classify_covariance(covs, self.model)
        except ValidationError:
            # the first epoch of the stack that fails on its own
            for end, cov in zip(ends, covs):
                try:
                    classify_covariance(cov, self.model)
                except ValidationError as exc:
                    # distance names the one matrix it scores "p1"
                    reason = str(exc).replace("p1", "its covariance", 1)
                    raise self._unscorable(end, reason) from exc
            raise
        decisions = []
        for end, label, dist in zip(ends, labels.tolist(), dists.tolist()):
            self.epoch_index += 1
            row, decision = self._gate.step(
                {"epoch": self.epoch_index, "end_sample": end,
                 "end_seconds": end / self.sample_rate, "label": label,
                 "distances": tuple(dist)})
            self.epoch_log.append(row)
            if decision is not None:
                decisions.append(decision)
        return decisions

    def _unscorable(self, end, reason):
        """The error for the epoch that ends at sample ``end``."""
        epoch = len(epoch_ends(end, self._w, self._step))
        return ValidationError(
            f"epoch {epoch} ending at sample {end} cannot be scored: "
            f"{reason}")


@dataclass
class TrialOutcome:
    """First decision reached while a given trial was streaming."""

    trial_index: int
    true_label: int
    decided_label: int | None
    delay_seconds: float | None

    @property
    def decided(self):
        return self.decided_label is not None

    @property
    def correct(self):
        return self.decided and self.decided_label == self.true_label


@dataclass
class StreamReport:
    """Per-trial outcomes plus the stream-level summary and epoch log of
    ``trial_set`` replayed under the online configuration ``config``."""

    outcomes: list
    decisions: list
    epoch_log: list
    accuracy: float | None
    mean_delay: float | None
    decided_count: int
    held_back_count: int
    config: OnlineConfig
    # the scored trials; a report compares by its results, not its input
    trial_set: object = field(compare=False, repr=False)


def evaluate_stream(trial_set, model, config=None):
    """Replay labelled trials back-to-back as one continuous recording.

    Each trial's outcome is the first decision whose closing sample falls
    inside that trial, with delay measured from trial onset; trials where
    the gates never fire are held back. Accuracy is reported over decided
    trials only. Every trial must be at the model's sample rate.
    """
    config = config or OnlineConfig()
    state = OnlineState(model, config)
    decisions = []
    for trial in trial_set.trials:
        model.preproc_spec.check_sample_rate(trial.sample_rate)
        decisions.extend(state.push_samples(trial.values))
    return _stream_report(trial_set, config, decisions, state.epoch_log)


def regate(report, config):
    """The report :func:`evaluate_stream` gives under ``config``, from the
    epochs ``report`` already scored on its trial set.

    Only the gate runs again: depth, theta and the curve criterion may
    differ from the scoring run, while the window and step fix the epochs
    and must match it.
    """
    if config.plan() != report.config.plan():
        raise ValidationError(
            f"regating needs the scoring run's window and step "
            f"({report.config.window_seconds} s, "
            f"{report.config.step_seconds} s), got "
            f"({config.window_seconds} s, {config.step_seconds} s)")
    gate = _Gate(config)
    decisions = []
    epoch_log = []
    for scored in report.epoch_log:
        row, decision = gate.step(scored)
        epoch_log.append(row)
        if decision is not None:
            decisions.append(decision)
    return _stream_report(report.trial_set, config, decisions, epoch_log)


def _stream_report(trial_set, config, decisions, epoch_log):
    """Attribute each trial its first decision and summarize the stream."""
    boundaries = [0]
    for trial in trial_set.trials:
        boundaries.append(boundaries[-1] + trial.samples)
    outcomes = [TrialOutcome(i, lab, None, None)
                for i, lab in enumerate(trial_set.labels)]
    for decision in decisions:
        # attribute by the last sample the deciding epoch contains
        idx = int(np.searchsorted(boundaries, decision.end_sample - 1,
                                  side="right")) - 1
        idx = min(idx, len(outcomes) - 1)
        if outcomes[idx].decided_label is None:
            outcomes[idx].decided_label = decision.label
            start = boundaries[idx] / trial_set.sample_rate
            outcomes[idx].delay_seconds = decision.elapsed_seconds - start

    decided = [o for o in outcomes if o.decided]
    accuracy = None
    mean_delay = None
    if decided:
        accuracy = 100.0 * sum(o.correct for o in decided) / len(decided)
        mean_delay = float(np.mean([o.delay_seconds for o in decided]))
    return StreamReport(
        outcomes=outcomes,
        decisions=decisions,
        epoch_log=epoch_log,
        accuracy=accuracy,
        mean_delay=mean_delay,
        decided_count=len(decided),
        held_back_count=len(outcomes) - len(decided),
        config=config,
        trial_set=trial_set,
    )


def write_epoch_log(epoch_log, path):
    """Dump the per-epoch gating trace as CSV for post-hoc plotting."""
    columns = ("epoch", "end_seconds", "label", "candidate", "rho", "delta",
               "decided")
    write_csv(path, columns, ([row[key] for key in columns]
                              for row in epoch_log))
