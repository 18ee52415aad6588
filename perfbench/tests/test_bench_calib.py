"""Normalisation and the run's aggregation, on synthetic timings."""

import statistics

import pytest

import calib
import run
from workloads import Op


def test_normalise_scales_by_reference_over_mean_kernel():
    ref = calib.REF_KERNEL_S
    assert calib.normalise(2.0, 0.8 * ref, 1.2 * ref) == pytest.approx(2.0)
    assert calib.normalise(2.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.0)
    # a machine running at half speed doubles both the op and the kernel
    fast = calib.normalise(1.0, ref, ref)
    slow = calib.normalise(2.0, 2 * ref, 2 * ref)
    assert fast == pytest.approx(1.0) and slow == pytest.approx(1.0)


def test_kernel_time_is_positive():
    assert calib.kernel_time() > 0


def _rec(op, norm, raw=None, failed=False, probe=False):
    return {"op": op, "norm_s": norm, "raw_s": raw if raw is not None else 2 * norm,
            "failed": failed, "probe": probe, "problems": []}


def test_end_to_end_takes_per_op_medians_of_successful_ops():
    rounds = [
        [_rec("a", 1.0), _rec("b", 0.2), _rec("p", 0.01, failed=True, probe=True)],
        [_rec("a", 3.0), _rec("b", 0.4), _rec("p", 0.01, failed=True, probe=True)],
        [_rec("a", 2.0), _rec("b", 0.3), _rec("p", 0.01, failed=True, probe=True)],
    ]
    e2e = run.end_to_end(rounds)
    assert e2e["per_op_norm_s"] == {"a": 2.0, "b": 0.3}
    assert e2e["time_s"] == pytest.approx(2.3)
    assert e2e["op_p50_s"] == pytest.approx(statistics.median([2.0, 0.3]))
    assert e2e["raw_time_s"] == pytest.approx(4.6)


def _trace(self_s, root):
    return {"calls": {"jets.mul": 10}, "counts": {"iigeom.ii_geometry_points": 4},
            "name_s": {"iigeom.ii_geometry": 0.5}, "self_s": self_s, "root_s": root,
            "distinct_points": 2}


def test_per_layer_is_per_round_and_checks_the_identity():
    rounds = [[dict(_rec("a", 1.0), trace=_trace({"bench": 0.25, "jets": 0.75}, 1.0))]
              for _ in range(2)]
    metrics, residual = run.per_layer(rounds)
    assert metrics["jets.mul_calls"]["value"] == 10
    assert metrics["jets.self_s"]["value"] == pytest.approx(0.75)
    assert metrics["iigeom.ii_geometry_s"]["value"] == pytest.approx(0.5)
    assert metrics["iigeom.recompute_ratio"]["value"] == pytest.approx(2.0)
    assert metrics["trace.total_s"]["value"] == pytest.approx(1.0)
    assert residual == pytest.approx(0.0)
    rounds[0][0]["trace"]["self_s"]["jets"] = 0.5
    assert run.per_layer(rounds)[1] > 0.1
    assert set(metrics) == {m[0] for m in run.PER_LAYER} | {"iigeom.recompute_ratio",
                                                             "trace.total_s"}


def test_measure_runs_whole_rounds_and_counts_probe_failures():
    calls = []
    ops = [Op("ok", lambda: calls.append(1) or 5, lambda out, state: [] if out == 5 else ["bad"]),
           Op("probe", lambda: 1, lambda out, state: [], expect_exit=2)]
    rounds = run.measure(ops, seconds=0.0)
    assert len(rounds) == run.MIN_ROUNDS
    assert all([r["op"] for r in recs] == ["ok", "probe"] for recs in rounds)
    assert [r["failed"] for recs in rounds for r in recs] == [False, True] * run.MIN_ROUNDS
    assert all(r["problems"] == [] for recs in rounds for r in recs)


def test_measure_reports_an_operation_that_raises_as_a_problem():
    def boom():
        raise ValueError("no result")

    ops = [Op("ok", lambda: 5, lambda out, state: []),
           Op("boom", boom, lambda out, state: [])]
    recs = [r for recs in run.measure(ops, seconds=0.0) for r in recs]
    assert [r["failed"] for r in recs] == [False, True] * run.MIN_ROUNDS
    assert [r["problems"] for r in recs if r["op"] == "boom"] == \
        [["ValueError: no result"]] * run.MIN_ROUNDS
    # end_to_end() leaves it out of the times, so only a problem marks the run incorrect
    assert set(run.end_to_end(run.measure(ops, seconds=0.0))["per_op_norm_s"]) == {"ok"}


def test_benchmark_json_matches_the_printed_metrics():
    import json

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    printed = {m[0]: m[1] for m in run.PER_LAYER}
    printed.update({"iigeom.recompute_ratio": "ratio", "trace.total_s": "s"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == printed
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
