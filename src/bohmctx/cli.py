"""Command-line front end.

Subcommands: beam-splitter, stern-gerlach, optical-sg, ancilla, born-check.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
Outputs are byte-identical for a given config and seed, whatever the
thread count of the numerical libraries.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _kernels, analysis, svgplot
from .config import (ScenarioConfig, config_from_mapping, load_config,
                     serialize_config)
from .errors import ConfigError, NumericalFailure
from .report import EnsembleReport, _plain
from .scenarios import run_born_check, run_scenario
from .trajectories import write_trajectories_csv

# every recorded point of every trajectory goes to trajectories.csv
TRAJECTORY_STRIDE = 1
# born-check draws at least this many trajectories
BORN_CHECK_N = 2000

SUBCOMMANDS = {
    "beam-splitter": "beam_splitter",
    "stern-gerlach": "stern_gerlach",
    "optical-sg": "optical_sg",
    "ancilla": "ancilla_chain",
}


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (1e6 bytes);
    ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _manifest(cfg: ScenarioConfig, duration: float, outputs: list) -> dict:
    """manifest.json: the config as text, what ran, how long it took and
    the names of the other files written."""
    return {"config": serialize_config(cfg), "seed": cfg.seed,
            "version": __version__, "duration_seconds": duration,
            "backend": _kernels.ACTIVE_BACKEND, "outputs": outputs,
            "peak_rss_mb": _peak_rss_mb()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohmctx",
        description="Bohmian measurement-scenario simulator")
    sub = parser.add_subparsers(dest="command")
    for name in (*SUBCOMMANDS, "born-check"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="trajectory table format")
        p.add_argument("--plot", action="store_true", help="emit SVG plots")
        p.add_argument("--trajectories", type=int, default=None,
                       help="ensemble size override")
    return parser


def _load_scenario_config(args, scenario: str | None) -> ScenarioConfig:
    if args.config is not None:
        cfg = load_config(args.config)
        if scenario is not None and cfg.scenario != scenario:
            raise ConfigError(
                f"config is for scenario {cfg.scenario!r}, expected {scenario!r}")
    else:
        if scenario is None:
            raise ConfigError("born-check requires --config")
        cfg = config_from_mapping({"scenario": scenario})
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if args.trajectories is not None:
        cfg.n = int(args.trajectories)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage()
        return 1
    try:
        if args.command == "born-check":
            return _run_born_check(args)
        return _run_scenario_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2


def _run_scenario_command(args) -> int:
    scenario = SUBCOMMANDS[args.command]
    cfg = _load_scenario_config(args, scenario)
    start = time.perf_counter()
    report = run_scenario(cfg)
    duration = time.perf_counter() - start
    out_dir = _out_dir(args)
    outputs = write_outputs(report, cfg, out_dir, args.format, args.plot)
    manifest_path = out_dir / "manifest.json"
    _write_json(manifest_path,
                _manifest(cfg, duration, [p.name for p in outputs]))
    for p in (*outputs, manifest_path):
        if not p.exists():
            raise NumericalFailure(f"expected output {p} missing")
    print(f"wrote {len(outputs) + 1} files to {out_dir}")
    return 0


def _run_born_check(args) -> int:
    cfg = _load_scenario_config(args, None)
    n = max(cfg.n, BORN_CHECK_N)
    start = time.perf_counter()
    result = run_born_check(cfg, n)
    duration = time.perf_counter() - start
    out_dir = _out_dir(args)
    _write_json(out_dir / "summary.json", {"born_check": result})
    _write_json(out_dir / "manifest.json",
                _manifest(cfg, duration, ["summary.json"]))
    print(f"born-check KS = {result['ks']:.5f} (n = {result['n']})")
    return 0


def _out_dir(args) -> Path:
    """The --out directory, created only once a run has returned, so that
    a run stopped by an error leaves no directory behind."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_outputs(report: EnsembleReport, cfg, out_dir: Path, fmt: str,
                  plot: bool) -> list[Path]:
    """summary.json plus trajectory and overlap tables (and SVG plots)."""
    outputs = []
    summary = {
        "config": {k: v for k, v in sorted(vars(cfg).items())},
        "report": report.to_dict(),
    }
    if "attribution" not in report.audits and _attributable(report):
        summary["report"]["attribution"] = _plain(
            analysis.determinant_attribution(report))
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, summary)
    outputs.append(summary_path)

    trajs = report.artifacts.get("trajectories")
    if trajs:
        path = out_dir / "trajectories.csv"
        if fmt == "json":
            path = out_dir / "trajectories.json"
            _write_trajectories_json(path, trajs)
        else:
            write_trajectories_csv(path, trajs, stride=TRAJECTORY_STRIDE)
        outputs.append(path)

    if report.overlap_series:
        path = out_dir / "overlaps.csv"
        _write_overlaps_csv(path, report.overlap_series)
        outputs.append(path)

    if plot:
        outputs.extend(_write_plots(report, out_dir))
    return outputs


def _attributable(report: EnsembleReport) -> bool:
    return "system" in report.predictions and len(report.predictions) > 1


def _write_overlaps_csv(path: Path, series: dict) -> None:
    names = [k for k in series if k != "t"]
    columns = [np.asarray(series[k], dtype=float).tolist()
               for k in ("t", *names)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *names]) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in zip(*columns))


def _write_plots(report: EnsembleReport, out_dir: Path) -> list[Path]:
    outputs = []
    if report.overlap_series:
        outputs.append(_overlap_plot(out_dir / "overlaps.svg",
                                     report.overlap_series, "branch overlaps"))
    sweep = report.audits.get("sweep")
    if sweep:
        # plotted when some entry resolves a run: an indeterminate
        # accuracy is NaN
        path = out_dir / "accuracy_vs_N.svg"
        if svgplot.line_plot(
                path,
                [(sweep["N"], sweep["apparatus_accuracy"],
                  "apparatus predictor"),
                 (sweep["N"], sweep["system_accuracy"], "system predictor")],
                title="predictor accuracy vs apparatus size", xlabel="N",
                ylabel="accuracy"):
            outputs.append(path)
        for sub in report.sub_reports:
            N = sub.extras["N"]
            outputs.append(_overlap_plot(out_dir / f"overlaps_N{N}.svg",
                                         sub.overlap_series, f"overlaps, N = {N}"))
    return outputs


def _overlap_plot(path: Path, series: dict, title: str) -> Path:
    """An SVG of every overlap series against series["t"]."""
    svgplot.line_plot(path, [(series["t"], v, k) for k, v in series.items()
                             if k != "t"],
                      title=title, xlabel="t", ylabel="overlap")
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_trajectories_json(path: Path, trajectories) -> None:
    """_write_json of {"times": the first trajectory's times, "points":
    every trajectory's points as nested lists}, written one trajectory at
    a time.  Each trajectory is dumped alone, and its lines are indented
    by the two levels it sits at inside the whole document."""
    with open(path, "w") as fh:
        fh.write('{\n "points": [')
        sep = "\n  "
        for tr in trajectories:
            fh.write(sep + json.dumps(tr.points.tolist(), indent=1)
                     .replace("\n", "\n  "))
            sep = ",\n  "
        fh.write('\n ],\n "times": '
                 + json.dumps(trajectories[0].times.tolist(), indent=1)
                 .replace("\n", "\n ") + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
