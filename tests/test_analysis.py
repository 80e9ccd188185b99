import numpy as np
import pytest
from scipy.special import ndtr

from bohmctx import ConfigError
from bohmctx.analysis import (AccuracyResult, AttributionThresholds,
                              INDETERMINATE, MIXED, M_DETERMINED,
                              S_DETERMINED, accuracy, attribute, born_rule_ks,
                              crossing_audit, grid_cdf, ks_statistic,
                              wilson_interval)


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
        lo, hi = p - r, p + r
        # Wilson interval center is shrunk toward 1/2, so the interval stays
        # inside [0, 1] up to rounding
        assert lo >= -r and hi <= 1.0 + r


# -- crossing audit -----------------------------------------------------------

def test_crossing_parallel_trajectories():
    t = np.linspace(0, 1, 50)
    pos = np.stack([x0 + 2.0 * t for x0 in (-1.0, 0.0, 0.5, 2.0)])
    assert crossing_audit(pos) == 0


def test_crossing_synthetic_swap():
    t = np.linspace(0, 1, 50)
    a = 0.0 + 1.0 * t
    b = 0.5 - 1.0 * t
    pos = np.stack([a, b])
    assert crossing_audit(pos) == 1


def test_crossing_counts_distinct_pairs_once():
    # one trajectory dives below two others and returns: 2 violating pairs
    base0 = np.zeros(9)
    base1 = np.ones(9)
    diver = np.array([2.0, 2.0, -1.0, -1.0, -1.0, 2.0, 2.0, 2.0, 2.0])
    assert crossing_audit(np.stack([base0, base1, diver])) == 2


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
