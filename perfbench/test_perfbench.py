"""Tests of the benchmark's own machinery (not of the library).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from bench_check import fingerprint, load_reference, mismatches  # noqa: E402
from bench_stats import tail  # noqa: E402
from bench_trace import Tracer  # noqa: E402
import bench_workloads  # noqa: E402
from bench_workloads import MALFORMED, EvalStream, PlanarSweep, TypedSweep  # noqa: E402
from planarhopf import enumeration  # noqa: E402
from planarhopf.linalg import LinComb  # noqa: E402


def _cotranslation_op(forest_key):
    wl = PlanarSweep(Tracer(False), 0)
    wl.setup()
    for kind, w in wl.ops:
        if kind == "cotranslation" and wl.key(kind, w) == forest_key:
            return wl, w
    raise AssertionError(forest_key)


def test_fingerprint_checker_accepts_the_reference_and_rejects_corruption():
    key = "cotranslation|{0[0,0]}"
    wl, w = _cotranslation_op(key)
    ok, outputs = wl.op_cotranslation(w)
    assert ok
    assert key in load_reference("planar-sweep")
    assert mismatches({key: fingerprint(outputs)}, "planar-sweep") == []

    lhs = outputs[0]
    dropped = LinComb(list(lhs.items())[1:])
    rescaled = LinComb((b, 2 * c) for b, c in lhs.items())
    for corrupted in ([dropped, outputs[1]], [rescaled, outputs[1]],
                      [lhs, outputs[1] + 1]):
        assert mismatches({key: fingerprint(corrupted)}, "planar-sweep") == [key]
    assert mismatches({"cotranslation|{unknown}": fingerprint(outputs)},
                      "planar-sweep") == ["cotranslation|{unknown}"]


def test_tail_percentile_small_counts_fall_back_to_the_median():
    assert tail([3.0]) == (3.0, 50.0, 1)
    assert tail([5.0, 1.0, 4.0, 2.0, 3.0]) == (3.0, 50.0, 5)
    assert tail(list(range(10))) == (4.5, 50.0, 10)


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    for n, pct in ((11, 100 / 11), (20, 50.0), (100, 90.0), (1000, 99.0),
                   (12345, 100 * 12335 / 12345)):
        samples = [float(i) for i in range(n)][::-1]
        value, got_pct, got_n = tail(samples)
        assert got_n == n
        assert abs(got_pct - pct) < 1e-9
        assert sum(1 for s in samples if s > value) == 10


def test_eval_stream_requests_are_distinct_and_seed_determined():
    for seed in (1, 2, 3):
        for pass_index in (0, 1):
            wl = EvalStream(Tracer(False), seed, pass_index)
            wl.setup()
            exprs = [x[1] for _, x in wl.ops]
            assert len(exprs) == len(set(exprs))
            again = EvalStream(Tracer(False), seed, pass_index)
            again.setup()
            assert again.ops == wl.ops
    families = {x[0] for _, x in wl.ops}
    assert set(MALFORMED) <= families
    other = EvalStream(Tracer(False), 4)
    other.setup()
    assert other.ops != wl.ops


def test_eval_stream_tolerates_only_the_known_escape(monkeypatch):
    wl = EvalStream(Tracer(False), 1)
    wl.setup()

    def escape(expr, session):
        raise ValueError("escaped")

    monkeypatch.setattr(bench_workloads.cli, "eval_expression", escape)
    expr = next(x for _, x in wl.ops if x[0] == "bad-int")
    assert wl.op_request(expr) == (True, ["rejected"])
    assert wl.counters["cli.eval_expression.escapes"] == 1
    for family in sorted(set(MALFORMED) - {"bad-int"}):
        expr = next(x for _, x in wl.ops if x[0] == family)
        try:
            wl.op_request(expr)
        except ValueError:
            continue
        raise AssertionError(f"{family}: a ValueError did not fail the op")


def test_typed_sample_does_not_depend_on_enumeration_order(monkeypatch):
    def ops():
        wl = TypedSweep(Tracer(False), 5)
        wl.setup()
        return [wl.key(kind, z) for kind, z in wl.ops]

    before = ops()
    typed = enumeration.typed_trees_up_to
    monkeypatch.setattr(enumeration, "typed_trees_up_to",
                        lambda *a, **k: typed(*a, **k)[::-1])
    assert ops() == before
