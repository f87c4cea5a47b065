"""Fast tests of the benchmark itself: generators, statistics, accounting.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The two
end-to-end run tests build a 7-task micro pool (about a second) instead of the
benchmark's 20-task one.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np
import pytest

from perfbench import system, workloads as W
from perfbench.checks import WeightHistory
from perfbench.spans import SpanRecorder
from perfbench.stats import OpLog, failed_ratio, percentile, self_time, tail_percentile

TASKS = tuple(f"task{i}" for i in range(W.NUM_TASKS))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make",
    [
        lambda seed: W.deliver_cold_round(TASKS, seed, 1),
        lambda seed: W.predict_stream_round(TASKS, seed, 2),
        lambda seed: list(itertools.islice(W.net_mixed_rounds(TASKS, seed), 2)),
        lambda seed: W.update_batch(TASKS, seed, 1),
        lambda seed: W.probe_ops("deliver", TASKS, seed),
    ],
)
def test_generators_are_deterministic_per_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_deliver_cold_never_repeats_a_composite_before_the_universe_is_used():
    universe = W.cold_composites(TASKS, 9)
    rounds = len(universe) // W.DELIVER_COLD_ROUND
    served = [op.names for r in range(rounds) for op in W.deliver_cold_round(TASKS, 9, r)]
    assert len(universe) >= 1000
    assert len(set(served)) == len(served) == rounds * W.DELIVER_COLD_ROUND
    assert all(len(names) == W.COLD_COMPOSITE_SIZE for names in served)


def test_net_mixed_rounds_have_fixed_counts_and_alternate_weight_sets():
    rounds = list(itertools.islice(W.net_mixed_rounds(TASKS, 5), 4))
    state = {}
    for ops in rounds:
        kinds = [op.kind for op in ops]
        assert len(ops) == W.NET_ROUND_OPS
        assert kinds.count("update") == round(0.05 * len(ops))
        assert kinds.count("predict") == round(0.35 * len(ops))
        assert [op.due for op in ops] == sorted(op.due for op in ops)
        for op in ops:
            if op.kind == "update":
                task = op.names[0]
                assert op.weight_set == 1 - state.get(task, 0)
                state[task] = op.weight_set
    # stratified draws: every round asks for the same composites, reordered
    for kind in ("deliver", "predict"):
        mixes = [sorted(op.names for op in ops if op.kind == kind) for ops in rounds]
        assert mixes[0] == mixes[1] == mixes[2] == mixes[3]
    # and every two rounds update every task once
    for pair in (rounds[:2], rounds[2:]):
        updated = sorted(op.names[0] for ops in pair for op in ops if op.kind == "update")
        assert updated == sorted(TASKS)


def test_predict_stream_repeats_only_recent_batches_of_the_same_client():
    clients = W.predict_stream_round(TASKS, 2, 0)
    repeats = 0
    for client, ops in enumerate(clients):
        for i, op in enumerate(ops):
            assert op.client == client
            if op.repeat:
                repeats += 1
                window = [o.images for o in ops[max(0, i - W.RECENT_BATCHES) : i]]
                assert op.images in window
    share = repeats / sum(len(ops) for ops in clients)
    assert 0.15 < share < 0.35


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count", [20, 100, 133, 200, 400, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(count):
    values = np.random.default_rng(count).standard_normal(count)
    q = tail_percentile(count)
    assert (values > percentile(values, q)).sum() >= 10
    # one rank higher would leave fewer than ten
    assert (values > percentile(values, q + 100.0 / count)).sum() < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_self_time_subtracts_the_union_of_children_inside_the_span():
    # children overlap each other and stick out of the parent on both sides
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(6.0)
    assert self_time(0.0, 10.0, [(-5.0, 2.0), (9.0, 12.0)]) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == pytest.approx(10.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_span_recorder_nests_wraps_and_adopts_worker_spans():
    recorder = SpanRecorder()

    class Layer:
        def work(self, seconds):
            time.sleep(seconds)
            return seconds

    recorder.wrap(Layer, "work", "layer.work", lambda result: {"seconds": result})
    worker_done = threading.Event()

    def worker():
        with recorder.span("worker.trunk"):
            time.sleep(0.02)
        worker_done.set()

    with recorder.span("op", request=7):
        Layer().work(0.02)
        thread = threading.Thread(target=worker)
        thread.start()
        worker_done.wait(5)
        thread.join(5)
    recorder.uninstall()
    assert Layer.work.__name__ == "work" and not hasattr(Layer.work, "__wrapped__")

    by_name = {s["name"]: s for s in recorder.spans}
    op, child, orphan = by_name["op"], by_name["layer.work"], by_name["worker.trunk"]
    assert child["parent"] == op["id"] and child["request"] == 7
    assert orphan["parent"] is None and orphan["request"] is None
    assert recorder.attr_mean("layer.work", "seconds") == 0.02
    times = recorder.self_times()
    duration = lambda s: s["end"] - s["start"]
    expected = duration(op) - duration(child) - duration(orphan)
    assert times[op["id"]] == pytest.approx(expected, abs=1e-6)
    layers = recorder.layer_ms()
    assert layers["worker.trunk"][1] >= 20.0
    assert layers["op"][0] == pytest.approx(1e3 * expected, abs=1e-3)


# ----------------------------------------------------------------------
# Accounting and checks
# ----------------------------------------------------------------------
def test_failed_ratio_counts_failures_against_attempts():
    log = OpLog()
    for i in range(98):
        log.record("deliver", 0.001 * (i + 1))
    log.fail("deliver")
    log.fail("predict")
    assert log.attempted() == 100 and log.failed() == 2
    assert log.attempted("deliver") == 99 and log.failed("predict") == 1
    assert failed_ratio(log.failed(), log.attempted()) == pytest.approx(3 / 102)
    assert failed_ratio(0, 400) > 0
    with pytest.raises(ValueError):
        failed_ratio(3, 2)


def test_weight_history_allows_only_the_latest_returned_set_unless_overlapping():
    history = WeightHistory()
    history.record("a", issued=1.0, returned=2.0, weight_set=1)
    history.record("a", issued=5.0, returned=6.0, weight_set=0)
    assert history.allowed(["a", "b"], 0.0, 0.5) == {"a": {0}, "b": {0}}
    assert history.allowed(["a"], 3.0, 4.0) == {"a": {1}}
    assert history.allowed(["a"], 4.0, 5.5) == {"a": {0, 1}}  # overlaps the second update
    assert history.allowed(["a"], 7.0, 8.0) == {"a": {0}}


@pytest.fixture
def micro_bench(monkeypatch, tmp_path):
    recipe = dict(num_tasks=7, train_per_class=4, epochs=1, seed=3)
    monkeypatch.setattr(system, "POOL_RECIPE", recipe)
    monkeypatch.setattr(system, "SETUP_REPEATS", 1)
    monkeypatch.setattr(W, "DELIVER_COLD_ROUND", 20)
    monkeypatch.setattr(W, "PROBE_OPS", 20)
    return lambda: system.BenchRun("deliver-cold", 1, 0.01, False, str(tmp_path))


def test_run_counts_an_injected_failure(micro_bench, monkeypatch):
    calls = {"n": 0}
    serve = system.ServingGateway.serve

    def flaky(self, tasks, transport="float32"):
        calls["n"] += 1
        if calls["n"] == 5:
            raise ConnectionError("injected")
        return serve(self, tasks, transport)

    monkeypatch.setattr(system.ServingGateway, "serve", flaky)
    outcome = micro_bench().run()
    assert outcome.correct
    assert outcome.failed == 1
    # one round of 20 deliveries, the predict probe and one update batch
    assert outcome.attempted == 20 + 20 + 7
    assert outcome.metrics["failed_ratio"][0] == pytest.approx(2 / 22)
    names = {
        "deliver_p50_ms", "deliver_tail_ms", "predict_p50_ms", "predict_tail_ms",
        "update_p50_ms", "ops_per_s", "bytes_per_model", "failed_ratio", "setup_s",
        "peak_rss_mb",
    }
    assert set(outcome.metrics) == names
    assert all(value > 0 for value, _unit in outcome.metrics.values())


def test_run_rejects_a_wrong_head(micro_bench, monkeypatch):
    decode = system.deserialize_task_model

    def corrupt(payload):
        model = decode(payload)
        weight = model.network.heads[0].fc.weight
        weight.data = weight.data + np.float32(1e-3)
        return model

    monkeypatch.setattr(system, "deserialize_task_model", corrupt)
    outcome = micro_bench().run()
    assert not outcome.correct
    assert any("matches neither weight set" in e for e in outcome.meta["errors"])
