"""EnsembleReport: per-run outcomes and predictor verdicts plus aggregate
statistics, serializable to a stable dictionary for summary.json."""

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .analysis import UNRESOLVED, AccuracyResult, AttributionVerdict, accuracy

REGULARIZED_RUN_BUDGET = 0.01  # above this fraction, flagged runs are excluded


@dataclass
class EnsembleReport:
    scenario: str
    seed: int
    n_runs: int
    outcomes: list[str]
    predictions: dict[str, list[str]]
    initial_system: np.ndarray              # x0 per run
    initial_block_sums: dict[str, np.ndarray] = field(default_factory=dict)
    overlap_series: dict[str, np.ndarray] = field(default_factory=dict)
    node_counts: np.ndarray | None = None
    audits: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)      # JSON-safe values only
    artifacts: dict = field(default_factory=dict)   # runtime objects, never serialized
    sub_reports: list["EnsembleReport"] = field(default_factory=list)

    # -- resolved-run accounting --------------------------------------------
    # Statistics run over resolved outcomes.  Runs with node-regularization
    # events stay included unless they exceed 1% of the ensemble, in which
    # case they are excluded and the report is marked degraded; nothing is
    # dropped silently either way.

    def _stat_mask(self) -> np.ndarray:
        if self.degraded:
            return np.asarray(self.node_counts) <= 0
        return np.ones(self.n_runs, dtype=bool)

    def statistics_outcomes(self) -> list[str]:
        mask = self._stat_mask()
        return [o for o, m in zip(self.outcomes, mask) if m]

    def statistics_predictions(self, name: str) -> list[str]:
        mask = self._stat_mask()
        return [p for p, m in zip(self.predictions[name], mask) if m]

    @property
    def regularized_runs(self) -> int:
        if self.node_counts is None:
            return 0
        return int(np.sum(np.asarray(self.node_counts) > 0))

    @property
    def degraded(self) -> bool:
        return self.regularized_runs > REGULARIZED_RUN_BUDGET * self.n_runs

    @property
    def unresolved_fraction(self) -> float:
        outs = self.statistics_outcomes()
        if not outs:
            return 0.0
        return sum(1 for o in outs if o == UNRESOLVED) / len(outs)

    def outcome_frequencies(self) -> dict[str, float]:
        outs = [o for o in self.statistics_outcomes() if o != UNRESOLVED]
        if not outs:
            return {}
        labels = sorted(set(outs))
        return {lab: outs.count(lab) / len(outs) for lab in labels}

    def accuracies(self) -> dict[str, AccuracyResult]:
        outs = self.statistics_outcomes()
        return {name: accuracy(outs, self.statistics_predictions(name))
                for name in self.predictions}

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "scenario": self.scenario,
            "seed": self.seed,
            "n_runs": self.n_runs,
            "outcome_frequencies": self.outcome_frequencies(),
            "unresolved_fraction": self.unresolved_fraction,
            "accuracies": _plain(self.accuracies()),
            "regularized_runs": self.regularized_runs,
            "regularization_events": (0 if self.node_counts is None
                                      else int(np.sum(self.node_counts))),
            "degraded": self.degraded,
            "audits": _plain(self.audits),
            "extras": _plain(self.extras),
            "per_run": {
                "outcome": list(self.outcomes),
                "predictions": {k: list(v) for k, v in self.predictions.items()},
                "initial_system": [float(v) for v in self.initial_system],
                "initial_block_sums": {k: [float(v) for v in arr]
                                       for k, arr in self.initial_block_sums.items()},
            },
        }
        if self.overlap_series:
            d["overlap_series"] = {k: [float(v) for v in arr]
                                   for k, arr in self.overlap_series.items()}
        if self.sub_reports:
            d["sweep"] = [r.to_dict() for r in self.sub_reports]
        return d


def _plain(obj):
    """Recursively convert numpy and dataclass values to JSON-safe types."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN: an indeterminate accuracy or radius is null
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, AccuracyResult):
        return None if obj.indeterminate else {
            "fraction": obj.fraction, "radius": obj.radius,
            "n_resolved": obj.n_resolved}
    if isinstance(obj, AttributionVerdict):
        return {
            "label": obj.label,
            "acc_system": _plain(obj.acc_system),
            "acc_measurement": _plain(obj.acc_measurement),
            "measurement_predictor": obj.measurement_predictor,
            "thresholds": asdict(obj.thresholds),
        }
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)
