"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    def middle():
        clock.advance(1.0)
        wrapped_leaf(2.0)
        wrapped_leaf(3.0)
        clock.advance(0.5)

    def outer():
        clock.advance(4.0)
        wrapped_middle()
        wrapped_same()

    def same():  # nested call of the outer layer
        clock.advance(0.25)

    wrapped_leaf = t.wrap("leaf", leaf)
    wrapped_middle = t.wrap("middle", middle)
    wrapped_same = t.wrap("outer", same)
    t.wrap("outer", outer)()

    assert t.self_times() == {"outer": 4.25, "middle": 1.5, "leaf": 5.0}
    assert t.total("outer") == 10.75
    assert t.total("leaf") == 5.0
    assert t.counts["leaf.calls"] == 2
    assert t.counts["outer.calls"] == 2


def test_self_time_is_recorded_when_the_call_raises():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def fails():
        clock.advance(2.0)
        raise ValueError

    with pytest.raises(ValueError):
        t.wrap("layer", fails)()
    assert t.self_times() == {"layer": 2.0}


def test_layer_figure_does_not_move_with_another_layer():
    counts = {"propagation.calls": 1, "pointer.rk4.calls": 2,
              "scenarios.calls": 1}
    before = tracing.layer_metrics(
        {"propagation": 2.0, "pointer.rk4": 4.0, "scenarios": 0.5}, counts,
        wall_s=6.5, run_scenario_s=6.5)
    after = tracing.layer_metrics(
        {"propagation": 2.0, "pointer.rk4": 1.0, "scenarios": 0.5}, counts,
        wall_s=3.5, run_scenario_s=3.5)
    assert before["pointer.rk4.calls_per_s"] == 0.5
    assert after["pointer.rk4.calls_per_s"] == 2.0
    for layer in ("propagation", "scenarios", "pointer.classify"):
        name = f"{layer}.calls_per_s"
        assert after[name] == before[name]
    assert before["pointer.classify.calls_per_s"] == 0.0


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One small traced optical-sg run through cli.main."""
    from bohmctx import cli
    out = tmp_path_factory.mktemp("run")
    cfg = out / "small.cfg"
    cfg.write_text("scenario = optical_sg\nn = 20\nN_sweep = 1, 4\n")
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _, _ in tracing.PATCHES}
    t = tracing.Tracer()
    with t.installed():
        code = t.wrap(tracing.ROOT_LAYER, cli.main)(
            ["optical-sg", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    return t, originals, summary


def test_traced_run_restores_every_patched_name(traced_run):
    t, originals, _ = traced_run
    import bohmctx.propagation
    import bohmctx.scenarios
    assert bohmctx.scenarios.propagate is bohmctx.propagation.propagate
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    assert t.counts["pointer.rk4.calls"] == 2
    assert t.counts["sampling.samples"] == 40
    assert t.counts["pointer.classify.calls"] == 4 * 40
    assert t.counts["pointer.rk4.coord_steps"] == 20 * (2 + 5) * 400


def test_check_rejects_one_flipped_label(traced_run):
    _, _, summary = traced_run
    reference = {"seed": summary["report"]["seed"],
                 "fields": checks.compared_fields(summary["report"])}
    assert checks.check_summary(summary, reference) == []

    flipped = copy.deepcopy(summary)
    outcomes = flipped["report"]["sweep"][0]["per_run"]["outcome"]
    outcomes[0] = "-" if outcomes[0] == "+" else "+"
    assert checks.check_summary(flipped, reference) == [
        "sweep differs from the reference"]


def test_check_rejects_broken_invariants(traced_run):
    _, _, summary = traced_run
    broken = copy.deepcopy(summary)
    audits = broken["report"]["audits"]
    audits["sweep"].update(N=[1, 64], apparatus_accuracy=[1.0, 0.98])
    audits["crossing_violations"] = 1
    assert checks.check_summary(broken, None) == [
        "crossing_violations = 1",
        "apparatus accuracy 0.98 < 0.99 at N = 64"]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    import run
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
