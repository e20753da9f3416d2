"""What the benchmark in ``perfbench/`` needs from the library.

The benchmark wraps library functions by the name their callers look up,
and calls some with keyword arguments. A change that deletes one of
those breaks only the benchmark run; these checks catch it in the test
suite instead.
"""

import inspect
from pathlib import Path

from spdbci import metrics
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
