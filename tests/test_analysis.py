import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import binomtest

from bohmctx import ConfigError, analysis
from bohmctx.analysis import (AccuracyResult, AttributionThresholds,
                              INDETERMINATE, MIXED, M_DETERMINED,
                              S_DETERMINED, accuracy, attribute,
                              audit_trajectories, born_rule_ks,
                              crossing_audit, grid_cdf, ks_statistic,
                              wilson_interval)
from bohmctx.report import EnsembleReport
from conftest import grid_ensemble, traced_peak


def gaussian_mixture_cdf(weights, centers, sigmas):
    """CDF of a Gaussian mixture: the oracle for grid_cdf."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    c = np.asarray(centers, dtype=float)
    s = np.asarray(sigmas, dtype=float)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.sum(w[None, :] * ndtr((x[:, None] - c[None, :]) / s[None, :]),
                      axis=1)
    return cdf


# -- KS -----------------------------------------------------------------------

def test_ks_self_sampling():
    rng = np.random.default_rng(14)
    samples = rng.normal(0.0, 1.0, 2000)
    assert born_rule_ks(samples, lambda x: ndtr(x)) < 0.05


def test_ks_degenerate_point_mass():
    samples = np.zeros(200)
    stat = born_rule_ks(samples, lambda x: ndtr(np.asarray(x) / 1.0))
    assert stat == pytest.approx(0.5, abs=1e-12)  # CDF jump against Phi(0)


def test_ks_identical_sample_as_reference():
    rng = np.random.default_rng(2)
    samples = np.sort(rng.normal(0, 1, 500))

    def empirical_cdf(x):
        return np.searchsorted(samples, np.asarray(x), side="right") / len(samples)

    assert ks_statistic(samples, empirical_cdf) <= 1.0 / len(samples) + 1e-12


def test_ks_requires_enough_samples():
    with pytest.raises(ConfigError):
        born_rule_ks(np.zeros(99), lambda x: np.asarray(x) * 0.0)


def test_grid_cdf_matches_mixture():
    xs = np.linspace(-10, 10, 4000, endpoint=False)
    dx = xs[1] - xs[0]
    dens = 0.3 * np.exp(-(xs - 1) ** 2 / 2) / np.sqrt(2 * np.pi) \
        + 0.7 * np.exp(-(xs + 2) ** 2 / 2) / np.sqrt(2 * np.pi)
    ref = gaussian_mixture_cdf([0.3, 0.7], [1.0, -2.0], [1.0, 1.0])
    cdf = grid_cdf(xs, dens, dx)
    q = np.linspace(-6, 6, 101)
    assert np.abs(cdf(q) - ref(q)).max() <= 1e-4


# -- accuracy -----------------------------------------------------------------

def test_accuracy_perfect():
    res = accuracy(["+", "-", "+"], ["+", "-", "+"])
    assert res.fraction == 1.0
    assert res.n_resolved == 3


def test_accuracy_constant_predictor_on_even_split():
    outcomes = ["+", "-"] * 100
    res = accuracy(outcomes, ["+"] * 200)
    assert res.fraction == pytest.approx(0.5)
    assert 0 < res.radius < 0.1


def test_accuracy_skips_unresolved_outcomes():
    res = accuracy(["+", "unresolved", "-"], ["+", "+", "+"])
    assert res.n_resolved == 2
    assert res.fraction == pytest.approx(0.5)


def test_accuracy_zero_resolved_is_indeterminate():
    res = accuracy(["unresolved"] * 3, ["+"] * 3)
    assert res.indeterminate


def test_wilson_interval_properties():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        k = int(rng.integers(0, n + 1))
        p, r = wilson_interval(k, n)
        assert 0.0 <= p <= 1.0
        assert 0.0 < r <= 0.5
        # the radius is the half-width of the Wilson score interval
        ci = binomtest(k, n).proportion_ci(0.95, "wilson")
        assert abs(0.5 * (ci.high - ci.low) - r) <= 1e-12


# -- crossing audit -----------------------------------------------------------

def unchunked_crossings(pos):
    """Pairs, in the order of the first column, that are inverted at any
    time, from the whole (n, n, n_times) comparison."""
    p = pos[np.argsort(pos[:, 0], kind="stable")]
    bad = (p[None, :, :] <= p[:, None, :]).any(axis=2)
    return int(np.count_nonzero(np.triu(bad, k=1)))


def parallel_table(n=12, n_times=200):
    t = np.linspace(0, 1, n_times)
    return np.stack([0.3 * i + 2.0 * t for i in range(n)])


def swapped_at(columns):
    """parallel_table with rows 3 and 4 exchanged at the given columns."""
    pos = parallel_table()
    pos[np.ix_([3, 4], columns)] = pos[np.ix_([4, 3], columns)]
    return pos


def dive_table():
    # one trajectory dives below two others and returns: 2 violating pairs
    base0 = np.zeros(9)
    base1 = np.ones(9)
    diver = np.array([2.0, 2.0, -1.0, -1.0, -1.0, 2.0, 2.0, 2.0, 2.0])
    return np.stack([base0, base1, diver])


def two_way_swap():
    t = np.linspace(0, 1, 50)
    return np.stack([0.0 + 1.0 * t, 0.5 - 1.0 * t])


def test_crossing_parallel_trajectories():
    assert crossing_audit(parallel_table()) == 0


def test_crossing_synthetic_swap():
    assert crossing_audit(two_way_swap()) == 1


def test_crossing_counts_distinct_pairs_once():
    assert crossing_audit(dive_table()) == 2


CHUNK = analysis.CROSSING_CHUNK
CROSSING_CASES = {
    "parallel": (parallel_table(), 0),
    "two_way_swap": (two_way_swap(), 1),
    "dive_below_two": (dive_table(), 2),
    "first_of_chunk": (swapped_at([CHUNK]), 1),
    "last_of_chunk": (swapped_at([CHUNK - 1]), 1),
    "last_record": (swapped_at([199]), 1),
    "every_edge": (swapped_at([0, CHUNK - 1, CHUNK, 199]), 1),
    "two_chunks": (swapped_at([CHUNK]) - 0.5 * (np.arange(12) == 5)[:, None]
                   * (np.arange(200) == 199), 2),
}


@pytest.mark.parametrize("chunk", [1, 7, CHUNK, 1000])
@pytest.mark.parametrize("case", CROSSING_CASES)
def test_crossing_count_over_chunks(monkeypatch, case, chunk):
    # a swap in any column of any chunk, at either edge or at the last
    # record, counts as the whole-table comparison does, at every chunk
    # width; the grid ensemble of those positions gives the same count
    pos, want = CROSSING_CASES[case]
    monkeypatch.setattr(analysis, "CROSSING_CHUNK", chunk)
    assert unchunked_crossings(pos) == want
    assert crossing_audit(pos) == want
    trajs = grid_ensemble(np.arange(pos.shape[1], dtype=float),
                          pos[:, :, None])
    assert audit_trajectories(trajs) == want


def test_crossing_audit_holds_no_table_copy():
    # a crossing-free ensemble is read a chunk of record columns at a time:
    # the audit allocates below a quarter of the (n, n_records) table,
    # where stacking, reordering and differencing it took three tables
    n, n_rec = 200, 2001
    times = np.linspace(0.0, 1.0, n_rec)
    trajs = grid_ensemble(times, (0.5 * np.arange(n)[:, None]
                                  + np.sin(times))[:, :, None])
    count, peak = traced_peak(audit_trajectories, trajs)
    assert count == 0
    assert peak < n * n_rec * 8 / 4


def test_crossing_rejects_bad_shape():
    with pytest.raises(ConfigError):
        crossing_audit(np.zeros(5))


# -- attribution --------------------------------------------------------------

def acc(p, n=500):
    return AccuracyResult(p, 0.02, n)


@pytest.mark.parametrize("acc_s, acc_m, label", [
    (1.00, 0.50, S_DETERMINED),
    (0.99, 0.60, S_DETERMINED),
    (0.50, 0.995, M_DETERMINED),
    (0.60, 0.99, M_DETERMINED),
    (0.80, 0.75, MIXED),
    (0.95, 0.95, MIXED),
    (0.99, 0.99, INDETERMINATE),   # both determined-level: no single driver
    (0.50, 0.50, INDETERMINATE),
    (0.61, 0.50, INDETERMINATE),
])
def test_attribution_labels(acc_s, acc_m, label):
    verdict = attribute(acc(acc_s), acc(acc_m))
    assert verdict.label == label


def test_attribution_indeterminate_inputs():
    bad = AccuracyResult(float("nan"), float("nan"), 0)
    assert attribute(bad, acc(0.9)).label == INDETERMINATE


def test_attribution_is_pure():
    v1 = attribute(acc(0.995), acc(0.55))
    v2 = attribute(acc(0.995), acc(0.55))
    assert v1.label == v2.label == S_DETERMINED


def test_attribution_threshold_monotonicity():
    # raising the determined-threshold can only move verdicts away from
    # S_determined, never toward it
    rng = np.random.default_rng(13)
    for _ in range(300):
        a_s, a_m = rng.uniform(0.4, 1.0, 2)
        t_low = AttributionThresholds(determined=float(rng.uniform(0.8, 0.95)),
                                      irrelevant=0.6)
        t_high = AttributionThresholds(determined=float(
            rng.uniform(t_low.determined, 1.0)), irrelevant=0.6)
        v_low = attribute(acc(a_s), acc(a_m), t_low).label
        v_high = attribute(acc(a_s), acc(a_m), t_high).label
        if v_high == S_DETERMINED:
            assert v_low == S_DETERMINED


# -- node-event exclusion -------------------------------------------------------

NODE_EVENT_OUTCOMES = ["+"] * 98 + [analysis.UNRESOLVED, "-"]


def _node_event_report(flagged: int) -> EnsembleReport:
    """100 runs: 98 resolved "+" runs, then an unresolved run and a "-"
    run; every run predicted "+", and the last `flagged` runs each had
    three node events."""
    node_counts = np.zeros(100, dtype=np.int64)
    node_counts[100 - flagged:] = 3
    return EnsembleReport(
        scenario="test", seed=1, n_runs=100, outcomes=NODE_EVENT_OUTCOMES,
        predictions={"system": ["+"] * 100}, initial_system=np.zeros(100),
        node_counts=node_counts)


def test_node_events_at_the_budget_keep_every_run():
    # runs with node events at exactly 1 % of the ensemble: not degraded,
    # and every run counts in the statistics
    rep = _node_event_report(1)
    assert (rep.regularized_runs, rep.degraded) == (1, False)
    assert rep.unresolved_fraction == 0.01
    assert rep.outcome_frequencies() == {"+": 98 / 99, "-": 1 / 99}
    assert rep.accuracies()["system"] \
        == accuracy(NODE_EVENT_OUTCOMES, ["+"] * 100)
    d = rep.to_dict()
    assert (d["regularized_runs"], d["regularization_events"],
            d["degraded"]) == (1, 3, False)


def test_node_events_above_the_budget_are_excluded():
    # at 2 % the report is degraded: the flagged runs (the unresolved and
    # the "-" run) are left out of the frequencies, the unresolved
    # fraction and the accuracies, and still reported as flagged
    rep = _node_event_report(2)
    assert (rep.regularized_runs, rep.degraded) == (2, True)
    assert rep.unresolved_fraction == 0.0
    assert rep.outcome_frequencies() == {"+": 1.0}
    assert rep.accuracies()["system"] == accuracy(["+"] * 98, ["+"] * 98)
    d = rep.to_dict()
    assert (d["regularized_runs"], d["regularization_events"],
            d["degraded"]) == (2, 6, True)
    assert d["per_run"]["outcome"] == NODE_EVENT_OUTCOMES
