"""In-memory span recorder and the layer instrumentation of ``spdbci``.

A traced job wraps the public functions of each ``spdbci`` module at the
name its caller looks up (``online`` and ``mdrm`` import ``estimate``,
``classify_covariance`` and ``extend_trial`` by name, so those are wrapped
in each calling module). Every call becomes a span with a name, a layer,
start and end times, its parent span and the id of the benchmark operation
it belongs to. Spans stay in memory until the benchmark writes them out.

Nothing here changes what the wrapped functions compute: a wrapper calls
the original with the same arguments and returns its result unchanged.
"""

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

class SpanRecorder:
    """Spans of one traced job, kept in memory.

    A span is ``(id, parent, op, layer, name, start, end, error, extra)``;
    ``parent`` is the id of the enclosing span (0 at the top), ``op`` the
    id of the benchmark operation the span belongs to, ``error`` the
    exception type name when the call raised, and ``extra`` a dict of
    counts measured at the boundary (samples, points, bytes, ...).
    """

    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._next_id = 1
        self._op = 0

    @contextlib.contextmanager
    def operation(self, name):
        """Top-level span of one benchmark operation; children share its id."""
        self._op += 1
        with self.span("bench", name):
            yield

    @contextlib.contextmanager
    def span(self, layer, name, extra=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self._op, layer, name,
                               start, end, error, extra))

    def write(self, path):
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "op", "layer", "name", "start", "end",
                "error", "extra")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrap(recorder, layer, name, fn, measure=None, before=None):
    """Record each call of ``fn`` as a span.

    ``measure(args, result, token)`` returns the span's extra counts;
    ``token`` is what ``before(args)`` returned just before the call.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = {}
        token = before(args) if before is not None else None
        with recorder.span(layer, name, extra):
            result = fn(*args, **kwargs)
        if measure is not None:
            extra.update(measure(args, result, token))
        return result

    return wrapper


def _epoch_index(args):
    return args[0].epoch_index


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _targets():
    """(owner, attribute, layer, span name, measure) for every wrapped name."""
    from spdbci import cli, manifold, mdrm, metrics, online, preprocessing, \
        synthgen

    def samples(args, result, token):
        return {"samples": args[0].samples}

    def trial_set_bytes(args, result, token):
        manifest = os.path.getsize(os.path.join(args[0], "manifest.json"))
        return {"bytes": manifest + sum(t.values.nbytes
                                        for t in result.trials)}

    return [
        (preprocessing, "design_bandpass", "preprocessing", "design", None),
        (preprocessing.BandpassFilterBank, "process", "preprocessing",
         "filter", lambda a, r, t: {"samples": r.shape[1]}),
        (mdrm, "extend_trial", "preprocessing", "extend", None),
        (online, "estimate", "estimators", "estimate", samples),
        (mdrm, "estimate", "estimators", "estimate", samples),
        (metrics, "estimate", "estimators", "estimate", samples),
        (metrics, "shrinkage_with_kappa", "estimators", "estimate", samples),
        (manifold, "distance", "manifold", "distance", None),
        (manifold, "karcher_mean", "manifold", "karcher",
         lambda a, r, t: {"points": len(a[0])}),
        (manifold, "condition_ratio", "manifold", "condition", None),
        (online, "classify_covariance", "mdrm", "classify_covariance", None),
        (mdrm, "classify_covariance", "mdrm", "classify_covariance", None),
        (mdrm, "classify", "mdrm", "classify", None),
        (metrics, "preprocess_trial", "mdrm", "preprocess_trial", None),
        (mdrm, "train", "mdrm", "train", None),
        (mdrm, "potato_filter", "mdrm", "potato",
         lambda a, r, t: {"rejected": len(r.rejected)}),
        (online.OnlineState, "push_samples", "online", "push",
         lambda a, r, t: {"decisions": len(r),
                          "epochs": a[0].epoch_index - t}),
        (online, "evaluate_stream", "online", "evaluate_stream",
         lambda a, r, t: {"held_back": r.held_back_count}),
        (metrics, "run_benchmark", "metrics", "run_benchmark",
         lambda a, r, t: {"splits": len(r.rows) * r.replications}),
        (synthgen, "load", "synthgen", "load", trial_set_bytes),
        (mdrm, "save_model", "cli", "save_model",
         lambda a, r, t: _file_bytes(a[1])),
        (mdrm, "load_model", "cli", "load_model", None),
        (online, "write_epoch_log", "cli", "write_epoch_log",
         lambda a, r, t: _file_bytes(a[1])),
        (cli, "main", "cli", "main", None),
    ]


@contextlib.contextmanager
def instrumented(recorder):
    """Wrap every layer boundary while the block runs; restore afterwards."""
    saved = []
    try:
        for owner, attr, layer, name, measure in _targets():
            original = owner.__dict__[attr]
            # push_samples: epochs closed by the call, from the public counter
            before = _epoch_index if name == "push" else None
            saved.append((owner, attr, original))
            setattr(owner, attr,
                    _wrap(recorder, layer, name, original, measure, before))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(spans):
    """Per-name call counts, inclusive times and summed extras; per-layer
    self times (span time minus the time of its direct children)."""
    child_time = defaultdict(float)
    for span_id, parent, _, _, _, start, end, _, _ in spans:
        child_time[parent] += end - start
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    extras = defaultdict(lambda: defaultdict(int))
    errors = defaultdict(lambda: defaultdict(int))
    for span_id, _, _, layer, name, start, end, error, extra in spans:
        key = f"{layer}.{name}"
        duration = end - start
        own = duration - child_time[span_id]
        calls[key] += 1
        inclusive[key] += duration
        self_by_name[key] += own
        self_by_layer[layer] += own
        for field, value in (extra or {}).items():
            extras[key][field] += value
        if error is not None:
            errors[key][error] += 1
    return {"calls": calls, "inclusive": inclusive, "self": self_by_name,
            "layer_self": self_by_layer, "extras": extras, "errors": errors}
