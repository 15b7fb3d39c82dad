"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json

import pytest

import physics
import run
import serving
from outcome import Outcome, beyond, percentile
from spans import Span, SpanRecorder, self_time_by_name, self_times

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]

SMALL_PAPER = dict(physics.PAPER_STEP, ngrid=12, n_crit=64,
                   recount_sample=128, error_sinks=32)
SMALL_COSMO = dict(physics.COSMO_RUN, ngrid=8, steps=3, checkpoint_every=1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_names_match_benchmark_json():
    out = Outcome(setup_s=[1.0], unit_s=[2.0, 3.0], run_s=[1.5],
                  wall_s=5.0, interactions=10.0, interaction_s=1.0)
    assert sorted(run.end_to_end(out)) == sorted(E2E)


def test_every_layer_metric_is_declared():
    produced = set(physics.SELF_TIME_METRICS.values())
    assert produced <= set(LAYERS)


def test_report_emits_exactly_the_declared_metrics(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(run, "BUILD", tmp_path)
    out = Outcome(setup_s=[1.0], unit_s=[2.0], run_s=[1.5], wall_s=2.0,
                  interactions=10.0, interaction_s=1.5, attempted=1,
                  layers={"core.kernels.eval_s": 0.5})
    out.check("ok", True)
    for trace, names in ((False, E2E), (True, LAYERS)):
        line = run.report(SPEC, "cosmo_run", 3, trace, out, 1.0)
        assert list(line["metrics"]) == names
        assert line == {"correct": True, "attempted": 2, "failed": 0,
                        "metrics": line["metrics"]}
    out.check("bad", False)
    line = run.report(SPEC, "cosmo_run", 3, False, out, 1.0)
    assert not line["correct"] and line["failed"] == 1
    assert "failed_share" in capsys.readouterr().out


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, None)


def test_self_time_subtracts_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0),
             _span(2, 6.0, 8.0, 0), _span(3, 6.5, 7.0, 2)]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.5, 3: 0.5}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, 0),
             _span(2, 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recorder_nests_and_sums_to_root():
    rec = SpanRecorder()
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("b"):
                pass
        with rec.span("a"):
            pass
    root = [s for s in rec.spans if s.parent is None]
    assert [s.name for s in root] == ["root"]
    by_id = {s.id: s for s in rec.spans}
    assert all(by_id[s.parent].name == "a" for s in rec.spans
               if s.name == "b")
    own = self_time_by_name(rec.spans)
    assert sum(own.values()) == pytest.approx(root[0].duration, abs=1e-12)


def test_recorder_marks_raising_calls():
    rec = SpanRecorder()

    class Store:
        def get(self):
            raise KeyError("x")

    store = Store()
    rec.wrap(store, ["get"], "serve.store")
    with pytest.raises(KeyError):
        store.get()
    assert [(s.name, s.error) for s in rec.spans] == [("serve.store.get",
                                                        True)]


def test_percentiles_are_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert beyond(values, 95) == 10
    assert percentile([7.0], 95) == 7.0


def test_job_mix_is_seeded_and_fixed_share():
    a = [serving.job_spec(5, i) for i in range(64)]
    assert a == [serving.job_spec(5, i) for i in range(64)]
    pool = set(serving.pool_seeds(5))
    repeats = sum(s["params"]["seed"] in pool for s in a)
    assert repeats == 64 // serving.BLOCK * serving.REPEATS
    assert a != [serving.job_spec(6, i) for i in range(64)]


def test_paper_step_smoke():
    out = physics.run_paper_step(3, 0.0, True, SMALL_PAPER)
    assert out.checks and all(out.checks.values()), out.checks
    assert out.layers["trace.accounted_share"] == pytest.approx(1.0)
    assert out.layers["core.kernels.interactions"] > 0
    assert set(out.layers) <= set(LAYERS)


def test_cosmo_run_smoke():
    out = physics.run_cosmo(3, 0.0, True, SMALL_COSMO)
    assert out.checks and all(out.checks.values()), out.checks
    assert out.layers["sim.checkpoint.writes"] == 3
    assert out.layers["sim.force_calls"] == 4
    assert set(out.layers) <= set(LAYERS)


@pytest.mark.parametrize("kind", ["serve_local", "serve_fleet"])
def test_serve_smoke(kind):
    out = serving.run_serve(kind, 3, 2.0, True)
    assert out.checks and all(out.checks.values()), out.checks
    assert out.failed == 0 and out.unit_s
    assert set(out.layers) <= set(LAYERS)
    assert (out.layers["fleet.rpc_per_job"] > 0) == (kind == "serve_fleet")
