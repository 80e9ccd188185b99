"""Statistical verdicts: Born-rule (equivariance) checks, predictor
accuracies with Wilson confidence radii, the 1D no-crossing audit, and the
outcome-determinant attribution."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MIN_KS_SAMPLES = 100
WILSON_Z = 1.959963984540054  # 95% two-sided


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov equivariance diagnostics
# ---------------------------------------------------------------------------

def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Exact one-sample KS distance against a callable reference CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    ref = np.asarray(cdf(xs), dtype=float)
    hi = np.arange(1, n + 1) / n - ref
    lo = ref - np.arange(0, n) / n
    return float(max(hi.max(), lo.max(), 0.0))


def grid_cdf(x_cells: np.ndarray, density: np.ndarray, dx: float):
    """CDF of a density tabulated at points x_cells, each owning the cell
    centered on it (piecewise linear between cell edges)."""
    masses = np.asarray(density, dtype=float) * dx
    total = masses.sum()
    if total <= 0:
        raise ConfigError("reference density must have positive mass")
    edges = np.concatenate([x_cells - 0.5 * dx, [x_cells[-1] + 0.5 * dx]])
    cum = np.concatenate([[0.0], np.cumsum(masses)]) / total

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), edges, cum)
    return cdf


def born_rule_ks(endpoints: np.ndarray, reference_cdf) -> float:
    """KS distance between trajectory endpoints and a reference 1D marginal."""
    pts = np.asarray(endpoints, dtype=float).ravel()
    if len(pts) < MIN_KS_SAMPLES:
        raise ConfigError(f"need at least {MIN_KS_SAMPLES} endpoints, got {len(pts)}")
    return ks_statistic(pts, reference_cdf)


# ---------------------------------------------------------------------------
# Predictor accuracy
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, total: int, z: float = WILSON_Z
                    ) -> tuple[float, float]:
    """(fraction, confidence radius) by the Wilson score interval."""
    if total < 1:
        raise ConfigError("need at least one trial")
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    radius = (z / denom) * math.sqrt(p * (1 - p) / total
                                     + z * z / (4 * total * total))
    return p, radius


@dataclass(frozen=True)
class AccuracyResult:
    fraction: float
    radius: float
    n_resolved: int

    @property
    def indeterminate(self) -> bool:
        return self.n_resolved == 0


def accuracy(outcomes: list[str], predictions: list[str],
             unresolved: str = "unresolved") -> AccuracyResult:
    """Fraction of resolved runs where the prediction matches the outcome."""
    if len(outcomes) != len(predictions):
        raise ConfigError("outcomes and predictions must align")
    pairs = [(o, p) for o, p in zip(outcomes, predictions) if o != unresolved]
    if not pairs:
        return AccuracyResult(float("nan"), float("nan"), 0)
    hits = sum(1 for o, p in pairs if o == p)
    frac, radius = wilson_interval(hits, len(pairs))
    return AccuracyResult(frac, radius, len(pairs))


def predictor_accuracy(report, predictor_name: str) -> AccuracyResult:
    """Accuracy of a named predictor from an EnsembleReport."""
    if predictor_name not in report.predictions:
        raise ConfigError(f"report has no predictor {predictor_name!r}")
    outcomes = report.statistics_outcomes()
    preds = report.statistics_predictions(predictor_name)
    return accuracy(outcomes, preds)


# ---------------------------------------------------------------------------
# 1D no-crossing audit
# ---------------------------------------------------------------------------

def crossing_audit(positions: np.ndarray, times: np.ndarray | None = None) -> int:
    """Count trajectory pairs whose relative 1D order differs anywhere from
    their order at the first time.  positions has shape (n_traj, n_times).

    Fast path: once sorted by initial position, an ensemble with zero
    violations is sorted at every time, which is checked in O(n T).
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2:
        raise ConfigError("positions must be (n_trajectories, n_times)")
    order = np.argsort(pos[:, 0], kind="stable")
    p = pos[order]
    diffs = np.diff(p, axis=0)
    if np.all(diffs > 0):
        return 0
    # Slow path: mark every unordered pair inverted at any suspect time.
    n, m = p.shape
    bad = np.zeros((n, n), dtype=bool)
    suspect = np.where(~np.all(diffs > 0, axis=0))[0]
    for t in suspect:
        col = p[:, t]
        bad |= col[None, :] <= col[:, None]
    iu = np.triu_indices(n, k=1)
    return int(np.count_nonzero(bad[iu]))


def audit_trajectories(trajectories, axis: int = 0) -> int:
    times0 = trajectories[0].times
    for tr in trajectories:
        if len(tr.times) != len(times0) or not np.allclose(tr.times, times0):
            raise ConfigError("trajectories must share one time base")
    pos = np.stack([tr.points[:, axis] for tr in trajectories])
    return crossing_audit(pos)


# ---------------------------------------------------------------------------
# Outcome-determinant attribution
# ---------------------------------------------------------------------------

S_DETERMINED = "S_determined"
M_DETERMINED = "M_determined"
MIXED = "mixed"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class AttributionThresholds:
    determined: float = 0.99  # accuracy at/above which one side decides
    irrelevant: float = 0.60  # accuracy at/below which the other side is noise


@dataclass(frozen=True)
class AttributionVerdict:
    label: str
    acc_system: AccuracyResult
    acc_measurement: AccuracyResult
    thresholds: AttributionThresholds
    measurement_predictor: str


def attribute(acc_s: AccuracyResult, acc_m: AccuracyResult,
              thresholds: AttributionThresholds = AttributionThresholds(),
              measurement_predictor: str = "apparatus") -> AttributionVerdict:
    hi, lo = thresholds.determined, thresholds.irrelevant
    if acc_s.indeterminate or acc_m.indeterminate:
        label = INDETERMINATE
    elif acc_s.fraction >= hi and acc_m.fraction <= lo:
        label = S_DETERMINED
    elif acc_m.fraction >= hi and acc_s.fraction <= lo:
        label = M_DETERMINED
    elif lo < acc_s.fraction < hi and lo < acc_m.fraction < hi:
        label = MIXED
    else:
        label = INDETERMINATE
    return AttributionVerdict(label, acc_s, acc_m, thresholds,
                              measurement_predictor)


def determinant_attribution(report, thresholds: AttributionThresholds | None = None
                            ) -> AttributionVerdict:
    """Attribution verdict for a report carrying a "system" predictor and at
    least one measurement-side predictor (apparatus and/or ancilla); the
    measurement accuracy is the best of the measurement-side predictors."""
    thresholds = thresholds or AttributionThresholds()
    accs = {name: predictor_accuracy(report, name) for name in report.predictions}
    if "system" not in accs:
        raise ConfigError("report carries no system predictor")
    measurement = {k: v for k, v in accs.items() if k != "system"}
    if not measurement:
        raise ConfigError("report carries no measurement-side predictor")
    best_name = max(measurement,
                    key=lambda k: -1.0 if measurement[k].indeterminate
                    else measurement[k].fraction)
    return attribute(accs["system"], measurement[best_name], thresholds,
                     measurement_predictor=best_name)
