"""Outside-in benchmark of the bohmctx command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run starts a fresh interpreter (``child.py``) that imports the
program and calls ``bohmctx.cli.main`` once with the workload's config file
and ``--seed N``; runs repeat until S seconds are used.  Every run's
``summary.json`` is checked (``checks.py``) and every run of one invocation
must produce the same compared fields.

--trace 0 reports the end-to-end metrics as medians over the runs.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of ``tracer.py`` as medians over the traced runs, plus the tracing
overhead; the computed counts must repeat exactly across traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric with its sample count and range, and a JSON line with the
environment and every run's raw numbers.

``--workload all`` runs every workload in turn and ends with a table.
``--capture-reference`` writes ``reference/<workload>.json`` from one run
of each workload at the reference seed.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from tracer import UNITS, exact_count_keys, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 1

# workload name -> (CLI subcommand, config file under workloads/)
WORKLOADS = {
    "beam-splitter": ("beam-splitter", "beam_splitter.cfg"),
    "sg-gordon": ("stern-gerlach", "sg_gordon.cfg"),
    "optical-sg": ("optical-sg", "optical_sg.cfg"),
    "ancilla": ("ancilla", "ancilla.cfg"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_RUNS = 3           # untraced runs per --trace 0 invocation
MIN_TRACED_RUNS = 2    # of each kind per --trace 1 invocation
HARD_LIMIT_S = 150.0   # start no run after this; the invocation ends < 180 s
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BOHMCTX_THREADS", "BOHMCTX_BACKEND")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cli_args(workload: str, seed: int, out: Path) -> list[str]:
    subcommand, config = WORKLOADS[workload]
    return [subcommand, "--config", str(BENCH_DIR / "workloads" / config),
            "--seed", str(seed), "--out", str(out)]


def run_once(workload: str, seed: int, trace: bool, work: Path,
             timeout: float) -> dict:
    """One fresh-interpreter run; returns its measurements and problems."""
    out = Path(tempfile.mkdtemp(dir=work))
    result_path = out / "child.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
           "1" if trace else "0", *cli_args(workload, seed, out / "run")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        shutil.rmtree(out)
        return {"traced": trace, "elapsed_s": time.monotonic() - spawned,
                "timed_out": True,
                "problems": [f"timed out after {timeout:.0f} s"]}
    rec = {"traced": trace, "elapsed_s": time.monotonic() - spawned,
           "problems": []}
    try:
        if proc.returncode != 0:
            rec["problems"].append(f"child exited {proc.returncode}: "
                                   + proc.stderr.strip()[-400:])
            return rec
        rec.update(json.loads(result_path.read_text()))
        rec["setup_s"] = rec.pop("ready_monotonic") - spawned
        if rec["exit_code"] != 0:
            rec["problems"].append(f"cli.main returned {rec['exit_code']}: "
                                   + proc.stderr.strip()[-400:])
            return rec
        try:
            summary = json.loads((out / "run" / "summary.json").read_text())
            rec["problems"] += checks.check_summary(summary,
                                                    load_reference(workload))
            rec["fields"] = json.dumps(
                checks.compared_fields(summary["report"]), sort_keys=True)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["problems"].append(f"unreadable summary.json: {exc!r}")
        return rec
    finally:
        shutil.rmtree(out)


def load_reference(workload: str) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repeat runs until `seconds` are used; returns every run's record."""
    start = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        # compile and page in the program once, so that set-up is not timed
        # with a cold byte-code cache
        subprocess.run([sys.executable, "-c", "import bohmctx.cli"],
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        runs = []
        while True:
            traced = trace and len(runs) % 2 == 1
            timeout = max(CHILD_TIMEOUT_S - (time.monotonic() - start), 5.0)
            runs.append(run_once(workload, seed, traced, work, timeout))
            if runs[-1].get("timed_out"):
                return runs
            elapsed = time.monotonic() - start
            typical = statistics.median(r["elapsed_s"] for r in runs)
            enough = (sum(r["traced"] for r in runs) >= MIN_TRACED_RUNS
                      and sum(not r["traced"] for r in runs) >= MIN_TRACED_RUNS
                      if trace else len(runs) >= MIN_RUNS)
            if ((enough and elapsed + typical > seconds)
                    or elapsed + typical > HARD_LIMIT_S):
                return runs
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()  # only when no other invocation uses it


def cross_run_problems(runs: list) -> list[str]:
    """Compared fields must agree across runs, and computed counts must
    repeat exactly across traced runs."""
    problems = []
    fields = {r["fields"] for r in runs if "fields" in r}
    if len(fields) > 1:
        problems.append("compared fields differ between runs of one seed")
    counts = [json.dumps(exact_count_keys(r["counts"]), sort_keys=True)
              for r in runs if "counts" in r]
    if len(set(counts)) > 1:
        problems.append("computed counts differ between traced runs")
    return problems


def end_to_end_metrics(runs: list) -> tuple[dict, dict]:
    ok = [r for r in runs if "wall_s" in r]
    samples = {name: [r[name] for r in ok] for name in END_TO_END}
    return ({name: {"value": statistics.median(vals), "unit": END_TO_END[name]}
             for name, vals in samples.items()}, samples)


def per_layer_metrics(runs: list) -> tuple[dict, dict]:
    traced = [r for r in runs if "counts" in r]
    plain = [r["wall_s"] for r in runs if "wall_s" in r and not r["traced"]]
    per_run = [layer_metrics(r["self_s"], r["counts"], r["traced_wall_s"],
                             r["run_scenario_s"]) for r in traced]
    samples = {name: [m[name] for m in per_run] for name in per_run[0]}
    values = {name: statistics.median(vals) for name, vals in samples.items()}
    untraced = statistics.median(plain)
    samples["trace.overhead_frac"] = [t / untraced - 1.0
                                      for t in samples["trace.wall_s"]]
    values["trace.overhead_frac"] = values["trace.wall_s"] / untraced - 1.0
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in UNITS.items()}, samples)


def environment(runs: list) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "caches": caches,
            "machine": platform.machine(), **versions,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def describe(values: list) -> str:
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> dict:
    runs = measure(workload, seed, seconds, trace)
    completed = {r["traced"] for r in runs if "wall_s" in r}
    if completed != ({False, True} if trace else {False}):
        for r in runs:
            print(f"run failed: {'; '.join(r['problems'])}", file=sys.stderr)
        raise SystemExit(f"{workload}: too few runs completed")
    problems = cross_run_problems(runs)
    failed = sum(1 for r in runs if r["problems"])
    if trace:
        metrics, samples = per_layer_metrics(runs)
    else:
        metrics, samples = end_to_end_metrics(runs)
    print(f"# {workload} seed={seed} trace={int(trace)} runs={len(runs)} "
          f"failed={failed} failed_frac={failed / len(runs):.4g}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']:6s} "
              f"median, {describe(samples[name])}")
    for r in runs:
        for p in r["problems"]:
            print(f"problem: {p}", file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "environment": environment(runs),
              "failed_frac": failed / len(runs), "problems": problems,
              "runs": [{k: v for k, v in r.items()
                        if k not in ("fields", "versions")} for r in runs]}
    print(json.dumps(detail, sort_keys=True))
    return {"correct": failed == 0 and not problems,
            "attempted": len(runs), "failed": failed, "metrics": metrics}


def capture_references() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        out = Path(tempfile.mkdtemp(dir=OUT_DIR))
        try:
            subprocess.run([sys.executable, "-m", "bohmctx.cli",
                            *cli_args(workload, REFERENCE_SEED, out)],
                           env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
                           capture_output=True)
            report = json.loads((out / "summary.json").read_text())["report"]
        finally:
            shutil.rmtree(out)
        problems = checks.invariant_failures(report)
        if problems:
            raise SystemExit(f"{workload}: {problems}")
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(
            {"seed": REFERENCE_SEED,
             "fields": checks.compared_fields(report)}, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "bohmctx" / "cli.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.capture_reference:
        capture_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(results) > 1:
        for name, res in results.items():
            values = " ".join(f"{k}={m['value']:.4g} {m['unit']}"
                              for k, m in res["metrics"].items()
                              if k in END_TO_END or k.startswith("trace."))
            print(f"{name:14s} runs={res['attempted']} failed_frac="
                  f"{res['failed'] / res['attempted']:.3g} {values}")
    for res in results.values():
        print(json.dumps(res, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
