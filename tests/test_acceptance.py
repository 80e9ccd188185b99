"""Acceptance suite: every release criterion at its stated tolerance, one
printed PASS/FAIL line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.

Heavy ensemble runs are shared across criteria through module-scoped
fixtures; everything is deterministic (fixed seeds, fixed defaults).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bohmctx import GaussianPacketSpec, PotentialSpec, make_gaussian, propagate
from bohmctx.analysis import determinant_attribution
from bohmctx.config import (AncillaChainConfig, BeamSplitterConfig,
                            OpticalSGConfig, SternGerlachConfig)
from bohmctx.fields import position_std
from bohmctx.grids import SpatialGrid
from bohmctx.pointer import log_apparatus_overlap, log_single_coordinate_overlap
from bohmctx.scenarios import (build_optical_sg_model, run_ancilla_chain,
                               run_beam_splitter, run_born_check,
                               run_optical_sg, run_stern_gerlach)

from conftest import free_width, harmonic_width

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {tag}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- shared runs ---------------------------------------------------------------

@pytest.fixture(scope="module")
def bs_run():
    return run_beam_splitter(BeamSplitterConfig())


@pytest.fixture(scope="module")
def sg_default_run():
    return run_stern_gerlach(SternGerlachConfig())


@pytest.fixture(scope="module")
def sg_context_run():
    # the contextuality configuration: (alpha, beta) = (1, 1)/sqrt(2), n=500
    return run_stern_gerlach(SternGerlachConfig(n=500, spinor_phase=0.0))


@pytest.fixture(scope="module")
def gordon_run():
    return run_stern_gerlach(SternGerlachConfig(n=500, gordon=True))


@pytest.fixture(scope="module")
def optical_sweep():
    return run_optical_sg(OpticalSGConfig())


@pytest.fixture(scope="module")
def pre_separated_run():
    cfg = OpticalSGConfig(N_sweep=[64], initial_separation=8.0,
                          system_separation=0.0)
    return run_optical_sg(cfg)


@pytest.fixture(scope="module")
def ancilla_sweep():
    cfg = AncillaChainConfig(n=300, N_prime_sweep=[1, 4, 16, 64],
                             separation_sweep=[0.0, 2.0, 8.0])
    return run_ancilla_chain(cfg)


# -- criterion 1: numerics oracle -----------------------------------------------

def test_acceptance_1_numerics_oracle():
    grid = SpatialGrid.line(512, -20.0, 20.0)
    psi = make_gaussian(grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))

    res = propagate(psi, PotentialSpec.free(), 0.01, 200)
    width = position_std(res.final)[0]
    rel = abs(width - free_width(2.0)) / free_width(2.0)
    ok_width = rel <= 1e-3

    # dt-convergence of the Strang step, measured against the closed-form
    # Gaussian oracle in a harmonic trap (free and linear-potential evolution
    # are dt-exact under the spectral kinetic step, so carry no dt error)
    x = grid.axis(0)
    trap = PotentialSpec.sampled(0.5 * x ** 2)
    errs = []
    for dt in (0.02, 0.01):
        r = propagate(psi, trap, dt, int(round(1.0 / dt)))
        errs.append(abs(position_std(r.final)[0] - harmonic_width(1.0)))
    ratio = errs[0] / errs[1]
    ok_ratio = 3.0 <= ratio <= 5.0

    _report(1, "numerics oracle", ok_width and ok_ratio,
            f"width rel err {rel:.2e}, dt-halving error ratio {ratio:.2f}")


# -- criterion 2: equivariance ----------------------------------------------------

def test_acceptance_2_equivariance(bs_run, sg_default_run):
    ks_values = {
        "beam_splitter(n=1000)": bs_run.audits["equivariance_ks"],
        "stern_gerlach(n=1000)": sg_default_run.audits["equivariance_ks"],
        "optical_sg(born n=2000)": run_born_check(OpticalSGConfig(), 2000)["ks"],
        "ancilla(born n=2000)": run_born_check(AncillaChainConfig(), 2000)["ks"],
    }
    ok = all(v < 0.05 for v in ks_values.values())
    detail = ", ".join(f"{k}={v:.4f}" for k, v in ks_values.items())
    _report(2, "equivariance KS < 0.05", ok, detail)


# -- criterion 3: beam-splitter claim ---------------------------------------------

def test_acceptance_3_beam_splitter(bs_run):
    median = bs_run.audits["initial_median"]
    mismatches = sum(
        1 for x0, out in zip(bs_run.initial_system, bs_run.outcomes)
        if out != "unresolved" and out != ("D1" if x0 > median else "D2"))
    freq = bs_run.outcome_frequencies().get("D1", 0.0)
    crossings = bs_run.audits["crossing_violations"]
    ok = (mismatches == 0 and abs(freq - 0.5) <= 0.05 and crossings == 0)
    _report(3, "which detector clicks follows x0", ok,
            f"median mismatches {mismatches}, D1 freq {freq:.4f}, "
            f"crossings {crossings}")


# -- criterion 4: Stern-Gerlach contextuality -------------------------------------

def test_acceptance_4_contextuality(sg_context_run):
    rep = sg_context_run
    bad_mapping = sum(
        1 for z0, out in zip(rep.initial_system, rep.outcomes)
        if out != "unresolved" and out != ("+" if z0 > 0 else "-"))
    gi = rep.audits["gradient_inversion"]
    ok = (bad_mapping == 0 and gi["all_spins_swapped"]
          and gi["all_deflection_sides_unchanged"] and gi["n_compared"] > 450)
    _report(4, "gradient inversion swaps spin labels only", ok,
            f"mapping errors {bad_mapping}, compared {gi['n_compared']}, "
            f"swapped {gi['all_spins_swapped']}, "
            f"sides unchanged {gi['all_deflection_sides_unchanged']}")


# -- criterion 5: Gordon robustness ------------------------------------------------

def test_acceptance_5_gordon(gordon_run):
    g = gordon_run.audits["gordon"]
    ok = g["z_side_agreement"] and g["n_compared"] > 450
    _report(5, "Gordon term leaves z-side outcomes unchanged", ok,
            f"compared {g['n_compared']}, z-side agreement "
            f"{g['z_side_agreement']}")


# -- criterion 6: optical Stern-Gerlach sweep --------------------------------------

def test_acceptance_6_optical_sweep(optical_sweep):
    sweep = optical_sweep.audits["sweep"]
    app = sweep["apparatus_accuracy"]
    sys_acc = sweep["system_accuracy"]
    ok_monotone = all(b >= a - 1e-12 for a, b in zip(app, app[1:]))
    ok_final = app[-1] >= 0.99
    ok_system = all(abs(s - 0.5) <= 0.08 for s in sys_acc)

    # exponent law at machine precision, straight from the model
    cfg = OpticalSGConfig()
    ok_law = True
    for N in cfg.N_sweep:
        model = build_optical_sg_model(cfg, int(N))
        for t in (0.1, 0.25, 0.5, 0.75, 1.0):
            lhs = log_apparatus_overlap(t, model)
            rhs = N * log_single_coordinate_overlap(t, model)
            if not math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12):
                ok_law = False
    ok = ok_monotone and ok_final and ok_system and ok_law
    _report(6, "apparatus size decides the outcome", ok,
            f"apparatus acc {[round(a, 4) for a in app]}, "
            f"system acc {[round(s, 4) for s in sys_acc]}, "
            f"exponent law {ok_law}")


# -- criterion 7: attribution dichotomy --------------------------------------------

def test_acceptance_7_attribution(pre_separated_run, optical_sweep):
    v_sep = determinant_attribution(pre_separated_run.sub_reports[0])
    n64 = [r for r in optical_sweep.sub_reports if r.extras["N"] == 64][0]
    v_ovl = determinant_attribution(n64)
    ok = v_sep.label == "S_determined" and v_ovl.label == "M_determined"
    _report(7, "attribution dichotomy", ok,
            f"pre-separated -> {v_sep.label}, overlapping N=64 -> {v_ovl.label}")


# -- criterion 8: ancilla regimes ---------------------------------------------------

def test_acceptance_8_ancilla_regimes(ancilla_sweep):
    table = ancilla_sweep.audits["regime_table"]
    with open(FIXTURE_DIR / "ancilla_regime_table.json") as fh:
        committed = json.load(fh)
    matches = json.loads(json.dumps(table)) == committed
    verdicts = {row["verdict"] for row in table}
    needed = {"S_determined", "mixed", "M_determined"}
    ok = needed <= verdicts and matches
    _report(8, "ancilla chain spans all three regimes", ok,
            f"verdicts found: {sorted(verdicts)}; table matches "
            f"tests/fixtures/ancilla_regime_table.json: {matches}")


# -- criterion 9: determinism --------------------------------------------------------

def test_acceptance_9_determinism(tmp_path):
    def run(out, threads):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        r = subprocess.run(
            [sys.executable, "-m", "bohmctx.cli", "stern-gerlach",
             "--seed", "23", "--trajectories", "80", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        return (out / "summary.json").read_bytes()

    blobs = [run(tmp_path / "a", "1"), run(tmp_path / "b", "2"),
             run(tmp_path / "c", None)]
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(9, "byte-identical summaries across thread counts", ok,
            f"sizes {[len(b) for b in blobs]}")
