"""Tests for the benchmark's own helpers: python -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def kl():
    import katolab

    return katolab


# -- tail percentile --------------------------------------------------------------------


def test_tail_is_the_eleventh_largest_with_ten_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, beyond = run.tail_latency(values)
    assert (value, pct, beyond) == (90, 90.0, 10)


def test_tail_percentile_rises_with_sample_count():
    value, pct, beyond = run.tail_latency([float(x) for x in range(2000)])
    assert value == 1989.0 and beyond == 10 and pct == pytest.approx(99.5)


def test_tail_without_enough_samples_is_the_maximum():
    assert run.tail_latency([3, 1, 2]) == (3, 100.0, 0)
    assert run.tail_latency(list(range(10))) == (9, 100.0, 0)
    assert run.tail_latency(list(range(11))) == (0, 100 / 11, 10)


# -- self time --------------------------------------------------------------------------


def _span(sid, name, start, end, parent):
    return (sid, name, start, end, parent, 0, None)


def test_self_time_subtracts_nested_children():
    recorded = [
        _span(3, "d", 20, 30, 1),
        _span(1, "b", 10, 40, 0),
        _span(2, "c", 50, 60, 0),
        _span(0, "a", 0, 100, -1),
        _span(4, "a", 200, 210, -1),
    ]
    assert spans.self_times(recorded) == {"a": 100 - 30 - 10 + 10, "b": 30 - 10, "c": 10, "d": 10}


def test_covered_time_merges_overlaps_and_clips():
    assert spans.covered_ns(0, 100, [(10, 30), (20, 40), (90, 120), (-5, 5)]) == 30 + 10 + 5


def test_recorder_wraps_every_namespace_and_restores(kl):
    original = kl.words.factorize
    rec = spans.Recorder()
    rec.install(kl)
    try:
        for module in (kl, kl.words, kl.invariants, kl.dynamics):
            assert module.factorize is not original
        rec.op = 0
        kl.build_report(kl.IntMatrix(gen.compose(3, (2, 3))))
    finally:
        rec.uninstall()
    assert kl.invariants.factorize is original and kl.factorize is original
    metrics = spans.layer_metrics(rec, {0})
    assert metrics["words.factorize.calls_per_op"] == 7
    assert metrics["invariants.build_report.calls"] == 1
    assert metrics["intmat.IntMatrix.__mul__.calls"] > 0 and metrics["limits.guard_int.calls"] > 0
    (report,) = [s for s in rec.spans if s[1] == "invariants.build_report"]
    assert all(s[4] >= 0 for s in rec.spans if s is not report)


def test_recorder_counts_failures(kl):
    rec = spans.Recorder()
    rec.install(kl)
    try:
        with pytest.raises(kl.NotAProduct):
            kl.factorize(kl.IntMatrix([[0, 1], [1, 0]]))
    finally:
        rec.uninstall()
    assert [s[6] for s in rec.spans if s[1] == "words.factorize"] == ["NotAProduct"]


# -- inputs ------------------------------------------------------------------------------


def _take(stream, size):
    return list(itertools.islice(stream, size))


@pytest.mark.parametrize(
    "build, size",
    [(gen.batch_corpus, 80), (gen.orbit_series_rounds, 3)],
)
def test_inputs_are_a_function_of_the_seed(build, size):
    first, again, other = (repr(_take(build(seed), size)) for seed in (7, 7, 8))
    assert first == again
    assert first != other


def test_corpus_holds_controls_and_no_hard_words():
    corpus = _take(gen.batch_corpus(3), 400)
    controls = [i for i, item in enumerate(corpus) if not item["valid"]]
    assert controls == list(range(gen.CONTROL_EVERY - 1, 400, gen.CONTROL_EVERY))
    kinds = {item["errors"] for item in corpus if not item["valid"]}
    assert ("NotKato",) in kinds and ("NotAProduct",) in kinds and ("ValueError",) in kinds
    assert all(gen.perron_power_root(item) < gen.HARD_LAMBDA for item in corpus if item["valid"])


def test_probes_are_fixed_and_timed_escapers_stay_below_the_cap(kl):
    batch, orbit = workloads.BatchReport(), workloads.OrbitSeries()
    assert repr(batch.probe_inputs()) == repr(gen.hard_panel()) and len(gen.hard_panel()) == gen.PANEL_SIZE
    for item in batch.probe_inputs()[:2]:
        outcome = workloads.check_report(item, json.loads(batch.op(kl, item)()))
        assert outcome in (None, "ArithmeticError")
    (probe,) = orbit.probe_inputs()[0]["parts"]
    timed = next(gen.orbit_rounds(gen.PANEL_SEED))["parts"][-1]
    assert timed["z"] == probe["z"] and timed["max_iter"] < probe["max_iter"] == gen.DEFAULT_MAX_ITER
    assert orbit._part(kl, timed)().status == "undetermined"


# -- checks reject planted wrong answers ----------------------------------------------------


def _report_item(kl, word):
    item = gen.report_item(3, word)
    item["line"] = gen.matrix_text(item["rows"])
    record = json.loads(workloads.BatchReport().op(kl, item)())
    return item, record


def test_check_accepts_a_true_report(kl):
    item, record = _report_item(kl, (2, 3, 3))
    assert workloads.check_report(item, record) is None


@pytest.mark.parametrize(
    "plant",
    [
        lambda r: r.update(euler=r["euler"] + 1),
        lambda r: r.update(det=-r["det"]),
        lambda r: r["kA_basis"]["rows"].append([1, 0, 0]),
        lambda r: r.update(perron_alpha=r["perron_alpha"] * (1 + 1e-6)),
        lambda r: r.update(theta_index=2),
    ],
)
def test_check_rejects_a_planted_wrong_report(kl, plant):
    item, record = _report_item(kl, (2, 3, 3))
    plant(record)
    with pytest.raises(workloads.WrongAnswer, match="input: "):
        workloads.check_report(item, record)


def test_check_rejects_a_control_that_passes(kl):
    item, record = _report_item(kl, (2, 3, 3))
    control = {"valid": False, "line": item["line"], "errors": ("NotKato",)}
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_report(control, record)
    wrong_type = {"input": "x", "error": {"type": "ValueError", "message": ""}}
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_report(control, wrong_type)


def test_failure_on_a_valid_input_is_counted_not_rejected(kl):
    item, _ = _report_item(kl, (2, 3, 3))
    record = {"input": item["line"], "error": {"type": "ArithmeticError", "message": "no convergence"}}
    assert workloads.check_report(item, record) == "ArithmeticError"


@pytest.mark.parametrize("kind, plant", [("domain", lambda out: not out), ("tangent", lambda out: out + 1)])
def test_round_check_rejects_a_planted_wrong_part(kl, kind, plant):
    item = next(gen.orbit_series_rounds(2))
    workload = workloads.OrbitSeries()
    output = workload.op(kl, item)()
    assert workload.check(item, output) is None
    i = next(i for i, part in enumerate(item["parts"]) if part["op"] == kind)
    output[i] = plant(output[i])
    with pytest.raises(workloads.WrongAnswer, match=f"input: {kind}"):
        workload.check(item, output)


# -- declaration ---------------------------------------------------------------------------


def test_every_layer_metric_has_a_prediction():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer"]]
    assert sorted(names) == sorted(predictions)
    workload_names = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    for name, p in predictions.items():
        assert set(p["on"]) | set(p["unchanged_on"]) <= workload_names, name
        assert set(p["moves"]) <= end_to_end, name
