"""Correctness checks on the ``summary.json`` of one run.

Two checks apply:

* For any seed, the paper's invariants: no trajectory crossings, no failed
  trajectories, Gordon z-side agreement, apparatus accuracy >= 0.99 at
  N = 64, and an equivariance KS distance below the Kolmogorov critical
  value for the run's n.
* For the seed a reference was captured at, the compared fields (outcome
  and predictor labels, predictor accuracies, attribution verdicts and
  audit booleans) must equal the reference exactly.
"""

import math

# Two-sided Kolmogorov critical value c(alpha) / sqrt(n) at alpha = 0.001.
# At alpha = 0.01 one seed in a hundred would fail every run of that seed
# from sampling noise alone, and the seeds a run is given are not known in
# advance.
KS_COEFF = 1.95
MIN_APPARATUS_ACCURACY = 0.99
APPARATUS_ACCURACY_N = 64


def compared_fields(report: dict) -> dict:
    """The fields of a report (and of its sweep entries) that a later change
    must leave unchanged."""
    accuracies = {name: None if acc is None
                  else [acc["fraction"], acc["n_resolved"]]
                  for name, acc in report["accuracies"].items()}
    attribution = (report.get("attribution")
                   or report["audits"].get("attribution"))
    return {
        "outcomes": report["per_run"]["outcome"],
        "predictions": report["per_run"]["predictions"],
        "accuracies": accuracies,
        "attribution": attribution["label"] if attribution else None,
        "audit_flags": dict(_bool_leaves(report["audits"])),
        "sweep": [compared_fields(sub) for sub in report.get("sweep", [])],
    }


def _bool_leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, bool):
            yield prefix + key, value
        elif isinstance(value, dict):
            yield from _bool_leaves(value, f"{prefix}{key}.")


def invariant_failures(report: dict) -> list[str]:
    """Paper invariants that `report` breaks (empty when all hold)."""
    out = []
    n = report["n_runs"]
    audits = report["audits"]
    for key in ("crossing_violations", "failed_trajectories"):
        if audits.get(key, 0) != 0:
            out.append(f"{key} = {audits[key]}")
    if "gordon" in audits and not audits["gordon"]["z_side_agreement"]:
        out.append("gordon z_side_agreement is false")
    ks = audits.get("equivariance_ks")
    if ks is not None and not ks < KS_COEFF / math.sqrt(n):
        out.append(f"equivariance_ks {ks:.4f} >= {KS_COEFF}/sqrt({n})")
    sweep = audits.get("sweep")
    if sweep and APPARATUS_ACCURACY_N in sweep["N"]:
        acc = sweep["apparatus_accuracy"][
            sweep["N"].index(APPARATUS_ACCURACY_N)]
        if not acc >= MIN_APPARATUS_ACCURACY:
            out.append(f"apparatus accuracy {acc} < {MIN_APPARATUS_ACCURACY}"
                       f" at N = {APPARATUS_ACCURACY_N}")
    if len(report["per_run"]["outcome"]) != n:
        out.append("per-run outcome count differs from n_runs")
    return out


def check_summary(summary: dict, reference: dict | None) -> list[str]:
    """Problems with one run's summary; `reference` holds the compared
    fields and seed of a reference run, or is None."""
    report = summary["report"]
    problems = invariant_failures(report)
    if reference is not None and report["seed"] == reference["seed"]:
        got = compared_fields(report)
        for key, want in reference["fields"].items():
            if got.get(key) != want:
                problems.append(f"{key} differs from the reference")
    return problems
