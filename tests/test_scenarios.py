import json
import tracemalloc

import numpy as np
import pytest

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     SeparationError, SpatialGrid, SpinorField,
                     SupportGuardViolation, make_gaussian, norm, overlap,
                     scenarios)
from bohmctx.fields import spatial_overlap
from bohmctx.analysis import determinant_attribution, predictor_accuracy
from bohmctx import _kernels
from bohmctx.guidance import (NODE_DENSITY_REL, VelocityModel, _interp,
                              build_stacks)
from bohmctx.propagation import PotentialSpec, propagate
from bohmctx.config import (AncillaChainConfig, BeamSplitterConfig,
                            OpticalSGConfig, SternGerlachConfig)
from bohmctx.report import _plain
from bohmctx.sampling import sample_equilibrium
from bohmctx.units import DEFAULT_UNITS
from conftest import assert_same_trajectories
from bohmctx.scenarios import (run_ancilla_chain, run_beam_splitter,
                               run_born_check, run_optical_sg,
                               run_stern_gerlach, run_scenario)
from bohmctx.trajectories import (GridFlow, integrate_over_stacks,
                                  integrate_product_flows)


# -- beam splitter ------------------------------------------------------------

def test_beam_splitter_single_packet_all_d1():
    cfg = BeamSplitterConfig(n=40, seed=2, amplitude_right=1.0,
                             amplitude_left=0.0)
    rep = run_beam_splitter(cfg)
    assert rep.outcome_frequencies() == {"D1": 1.0}


def test_beam_splitter_symmetric_small():
    cfg = BeamSplitterConfig(n=200, seed=5)
    rep = run_beam_splitter(cfg)
    accs = rep.accuracies()
    assert accs["system"].fraction == 1.0  # outcome == sign(x0 - median)
    assert rep.audits["crossing_violations"] == 0
    assert rep.audits["branch_jumps_after_separation"] == 0
    assert rep.audits["detector_agreement_fraction"] == 1.0
    freq = rep.outcome_frequencies()
    assert abs(freq["D1"] - 0.5) < 0.12  # loose at n=200; tight in acceptance


def test_beam_splitter_separation_failure():
    cfg = BeamSplitterConfig(n=10, seed=1, n_steps=60, frame_stride=1,
                             dt_traj=0.001)
    with pytest.raises(SeparationError):
        run_beam_splitter(cfg)


def _small_beam_splitter_config(**kw):
    return BeamSplitterConfig(**{"n": 20, "seed": 1, "grid_n": 512,
                                 "dt_traj": 0.0005, **kw})


@pytest.mark.parametrize("kw", [
    {},
    # frames 5 steps apart, 2.5 trajectory steps per frame, every 5th
    # step recorded
    dict(frame_stride=5, dt_traj=0.004, record_stride=5),
], ids=["small", "frame_stride_5"])
def test_beam_splitter_streamed_trajectories_equal_stored_stacks(kw):
    # the trajectories integrated while the superposition propagates are
    # bitwise those of integrate_over_stacks over build_stacks of the
    # stored frames of the same propagation, at the run's record stride
    cfg = _small_beam_splitter_config(**kw)
    _, _, _, psi0 = scenarios._bs_setup(cfg, DEFAULT_UNITS)
    positions = sample_equilibrium(psi0, cfg.n, cfg.seed).positions
    _, stride = cfg.trajectory_steps()
    assert stride > 1
    final, trajs = scenarios._bs_propagate(cfg, psi0, positions, stride,
                                           DEFAULT_UNITS)
    prop = propagate(psi0, PotentialSpec.free(), cfg.dt, cfg.n_steps,
                     frame_stride=cfg.frame_stride)
    ref = integrate_over_stacks(
        build_stacks(prop.frames, prop.times, VelocityModel.SCALAR),
        positions, cfg.dt_traj, record_stride=stride)
    assert np.array_equal(final.values, prop.final.values)
    assert_same_trajectories(trajs, ref)


@pytest.mark.parametrize("case", ["separation", "record_grid", "ramp"])
def test_beam_splitter_separation_checks_precede_the_grid_flow(
        case, monkeypatch):
    # the branch pair propagates first, so a failed separation, a record
    # grid that misses the separation time and a detector ramp longer than
    # the detector stage all stop the run before any grid RK4 step
    cfg, error, match = {
        "separation": (BeamSplitterConfig(n=10, seed=1, n_steps=60,
                                          frame_stride=1, dt_traj=0.001),
                       SeparationError, "never satisfied"),
        "record_grid": (_small_beam_splitter_config(record_stride=1000),
                        ConfigError, "record grid"),
        "ramp": (_small_beam_splitter_config(detector_ramp_duration=1.9),
                 ConfigError, "detector ramp"),
    }[case]
    advances = []
    real = GridFlow.advance

    def counting_advance(self, ready):
        advances.append(ready)
        real(self, ready)

    monkeypatch.setattr(GridFlow, "advance", counting_advance)
    with pytest.raises(error, match=match):
        run_beam_splitter(cfg)
    assert advances == []
    # the counter sees the RK4 advance of a run that passes those checks,
    # through to the last frame
    cfg = _small_beam_splitter_config()
    cfg.dt_traj = cfg.dt
    run_beam_splitter(cfg)
    assert len(advances) > 1
    assert advances[-1] == cfg.n_steps // cfg.frame_stride


def test_beam_splitter_branch_series_equal_separate_propagations():
    # the batched (plus, minus) pair gives bitwise the series of the two
    # packets propagated one by one, with the per-frame formulas over them
    cfg = _small_beam_splitter_config()
    _, plus, minus, _ = scenarios._bs_setup(cfg, DEFAULT_UNITS)
    got = scenarios._bs_branch_series(cfg, plus, minus, DEFAULT_UNITS)
    frames = [propagate(packet, PotentialSpec.free(), cfg.dt, cfg.n_steps,
                        frame_stride=cfg.frame_stride).frames
              for packet in (plus, minus)]

    def center_width(f):
        x = f.grid.axis(0)
        w = f.density() / f.density().sum()
        mu = float(np.sum(w * x))
        return mu, np.sqrt(float(np.sum(w * (x - mu) ** 2)))

    bhatt = np.array([spatial_overlap(a, b) for a, b in zip(*frames)])
    inner = np.array([abs(overlap(a, b)) for a, b in zip(*frames)])
    c_p, width = np.array([center_width(f) for f in frames[0]]).T
    c_m, _ = np.array([center_width(f) for f in frames[1]]).T
    separated = ((np.abs(c_p - c_m) >= cfg.separation_sigmas * width)
                 & (bhatt < cfg.spatial_overlap_threshold))
    sep_idx = int(np.argmax(separated))
    assert separated[sep_idx] and 0 < sep_idx < len(bhatt) - 1
    for series, want in ((got.bhattacharyya, bhatt), (got.inner, inner),
                         (got.center_plus, c_p), (got.center_minus, c_m),
                         (got.width, width)):
        assert np.array_equal(series, want)
    assert got.sep_idx == sep_idx
    assert np.array_equal(got.rho_plus, frames[0][sep_idx].density())
    assert np.array_equal(got.rho_minus, frames[1][sep_idx].density())


def test_beam_splitter_propagates_twice_without_frames(monkeypatch):
    # two propagate calls (superposition, batched branch pair), each with an
    # observer, so no frame list is kept; the peak traced allocation stays
    # below two float64 (F, grid_n) arrays, where stored frames (16 bytes
    # per cell each) of three propagations reach about 67 bytes per cell.
    # dt_traj at the frame step keeps the traced run short; the stacks and
    # frames, not the trajectories, set the peak
    cfg = _small_beam_splitter_config()
    cfg.dt_traj = cfg.dt
    calls = []
    real = scenarios.propagate

    def counting_propagate(*args, **kwargs):
        calls.append(kwargs.get("observer"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, "propagate", counting_propagate)
    n_frames = cfg.n_steps // cfg.frame_stride + 1
    tracemalloc.start()
    try:
        run_beam_splitter(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(calls) == 2 and all(obs is not None for obs in calls)
    assert peak < 32 * n_frames * cfg.grid_n


@pytest.mark.parametrize("cfg", [
    BeamSplitterConfig(n=20, seed=1, grid_n=512, dt_traj=0.002),
    SternGerlachConfig(n=10, seed=3, grid_n=512),
], ids=["beam_splitter", "stern_gerlach_1d"])
def test_grid_run_holds_no_frame_stack(cfg):
    # the 1D grid runs integrate while they propagate, from a ring of a few
    # frames: the peak traced allocation of a whole run stays below one
    # float64 (F, grid_n) array, where the density and current stacks
    # alone would take two
    n_frames = cfg.n_steps // cfg.frame_stride + 1
    tracemalloc.start()
    try:
        run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_frames * cfg.grid_n


def test_beam_splitter_support_guard_on_each_branch():
    # too narrow a domain stops the run and born-check; the pair's guard
    # checks each branch alone, so it stops at the step and ratio of the
    # right-moving packet's own guarded propagation
    cfg = _small_beam_splitter_config(grid_half_width=14.0)
    with pytest.raises(SupportGuardViolation):
        run_beam_splitter(cfg)
    with pytest.raises(SupportGuardViolation):
        run_born_check(cfg, 10)
    grid = SpatialGrid.line(cfg.grid_n, -cfg.grid_half_width,
                            cfg.grid_half_width)
    plus, minus = (make_gaussian(grid, GaussianPacketSpec.make(
        0.0, cfg.sigma, k)) for k in (cfg.splitter_momentum,
                                      -cfg.splitter_momentum))
    with pytest.raises(SupportGuardViolation) as pair:
        scenarios._bs_branch_series(cfg, plus, minus, DEFAULT_UNITS)
    with pytest.raises(SupportGuardViolation) as alone:
        propagate(plus, PotentialSpec.free(), cfg.dt, cfg.n_steps,
                  frame_stride=cfg.frame_stride)
    assert 0 < alone.value.step < cfg.n_steps
    assert pair.value.step == alone.value.step
    assert pair.value.ratio == alone.value.ratio


# -- Stern-Gerlach -------------------------------------------------------------

def test_sg_spin_up_only():
    cfg = SternGerlachConfig(n=30, seed=3, alpha=1.0, beta=0.0)
    rep = run_stern_gerlach(cfg)
    assert rep.outcome_frequencies() == {"+": 1.0}


def test_sg_contextuality_small():
    cfg = SternGerlachConfig(n=150, seed=4)
    rep = run_stern_gerlach(cfg)
    gi = rep.audits["gradient_inversion"]
    assert gi["all_spins_swapped"]
    assert gi["all_deflection_sides_unchanged"]
    # outcome is +hbar/2 exactly when z0 > 0 (gradient > 0)
    for z0, out in zip(rep.initial_system, rep.outcomes):
        if out == "unresolved":
            continue
        assert out == ("+" if z0 > 0 else "-")
    assert predictor_accuracy(rep, "system").fraction == 1.0
    with pytest.raises(ConfigError):
        predictor_accuracy(rep, "nonexistent")


def test_sg_weak_gradient_rejected():
    cfg = SternGerlachConfig(n=10, seed=1, gradient=0.1)
    with pytest.raises(SeparationError):
        run_stern_gerlach(cfg)


def test_sg_relative_phase_does_not_change_1d_outcomes():
    a = run_stern_gerlach(SternGerlachConfig(n=80, seed=6, spinor_phase=0.0))
    b = run_stern_gerlach(SternGerlachConfig(n=80, seed=6,
                                             spinor_phase=np.pi / 2))
    assert a.outcomes == b.outcomes


# -- optical Stern-Gerlach ------------------------------------------------------

def test_optical_sg_dead_branch():
    cfg = OpticalSGConfig(n=40, seed=2, N_sweep=[4], amplitude_plus=1.0,
                          amplitude_minus=0.0)
    rep = run_optical_sg(cfg)
    assert rep.sub_reports[0].outcome_frequencies() == {"+": 1.0}


def test_optical_sg_sweep_structure():
    cfg = OpticalSGConfig(n=60, seed=3, N_sweep=[1, 4])
    rep = run_optical_sg(cfg)
    assert [s.extras["N"] for s in rep.sub_reports] == [1, 4]
    sweep = rep.audits["sweep"]
    assert len(sweep["apparatus_accuracy"]) == 2
    assert set(rep.overlap_series) >= {"t", "system", "apparatus"}


# -- ancilla chain --------------------------------------------------------------

def test_ancilla_zero_coupling_unresolved():
    cfg = AncillaChainConfig(n=30, seed=1, ancilla_displacement=0.0,
                             apparatus_displacement=0.0, system_separation=0.0)
    rep = run_ancilla_chain(cfg)
    assert set(rep.outcomes) == {"unresolved"}
    assert rep.unresolved_fraction == 1.0
    assert rep.audits["quality_degraded"]  # run still returned, but marked


def test_optical_default_not_degraded():
    rep = run_optical_sg(OpticalSGConfig(n=80, seed=9, N_sweep=[64]))
    assert not rep.sub_reports[0].audits["quality_degraded"]


def test_ancilla_pre_separated_system_decides():
    cfg = AncillaChainConfig(n=150, seed=2, system_separation=8.0, N_prime=4)
    rep = run_ancilla_chain(cfg)
    accs = rep.accuracies()
    assert accs["system"].fraction == 1.0
    assert rep.audits["attribution"].label == "S_determined"


def test_ancilla_overlapping_ancilla_decides():
    cfg = AncillaChainConfig(n=150, seed=2, system_separation=0.0, N_prime=64)
    rep = run_ancilla_chain(cfg)
    accs = rep.accuracies()
    assert accs["ancilla"].fraction >= 0.95
    assert abs(accs["system"].fraction - 0.5) <= 0.1


def test_ancilla_sweep_regime_table():
    cfg = AncillaChainConfig(n=120, seed=1, N_prime_sweep=[1, 64],
                             separation_sweep=[0.0, 8.0])
    rep = run_ancilla_chain(cfg)
    table = rep.audits["regime_table"]
    assert len(table) == 4
    verdicts = {row["verdict"] for row in table}
    assert "S_determined" in verdicts


def test_ancilla_ramp_window_validation():
    cfg = AncillaChainConfig(ancilla_ramp_end=0.8, t1=0.5)
    with pytest.raises(ConfigError):
        run_ancilla_chain(cfg)


# -- cross-cutting ---------------------------------------------------------------

def test_seed_reproducibility_bitwise():
    a = run_stern_gerlach(SternGerlachConfig(n=60, seed=11))
    b = run_stern_gerlach(SternGerlachConfig(n=60, seed=11))
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)


def test_run_scenario_dispatch():
    rep = run_scenario(SternGerlachConfig(n=30, seed=1))
    assert rep.scenario == "stern_gerlach"


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["run", "twin"])
def test_sg_1d_streamed_trajectories_and_branch_overlap_equal_stored_frames(
        sign):
    # each of the twin runs integrates its trajectories while it
    # propagates, bitwise as integrate_over_stacks over build_stacks of the
    # stored frames
    cfg = SternGerlachConfig(n=10, seed=3, grid_n=512)
    spinor0 = scenarios._sg_initial_1d(cfg, DEFAULT_UNITS)
    positions = sample_equilibrium(spinor0, cfg.n, cfg.seed).positions
    final, trajs, branch = scenarios._sg_propagate_1d(
        cfg, spinor0, sign * cfg.gradient, positions, 1, DEFAULT_UNITS)
    prop = propagate(spinor0, PotentialSpec.linear_spin_dependent(
        sign * cfg.gradient, cfg.offset), cfg.dt, cfg.n_steps,
        frame_stride=cfg.frame_stride)
    ref = integrate_over_stacks(
        build_stacks(prop.frames, prop.times, VelocityModel.SPINOR),
        positions, cfg.dt_traj)
    want = [abs(overlap(f.up, f.down)) / max(norm(f.up) * norm(f.down), 1e-300)
            for f in prop.frames]
    assert np.array_equal(final.up.values, prop.final.up.values)
    assert np.array_equal(final.down.values, prop.final.down.values)
    assert np.array_equal(branch, want)
    assert_same_trajectories(trajs, ref)


def test_born_check_grid_scenario():
    res = run_born_check(SternGerlachConfig(seed=3), 500)
    assert res["scenario"] == "stern_gerlach"
    assert res["ks"] < 0.08  # loose bound at n=500; tight one in acceptance


def _small_gordon_config(n):
    return SternGerlachConfig(gordon=True, n=n, seed=3, grid_n_y=64,
                              grid_n_z=256, dt=0.008, n_steps=250)


def _sg_2d_reference(cfg):
    """The factorised setup of cfg and the 2D propagation of its initial
    spinor."""
    spinor0, final, branch, tables = scenarios._sg_setup_2d(cfg, DEFAULT_UNITS)
    prop = propagate(spinor0, PotentialSpec.linear_spin_dependent(
        cfg.gradient, cfg.offset), cfg.dt, cfg.n_steps,
        frame_stride=cfg.frame_stride)
    return (spinor0, final, branch, tables), prop


def _close(got, want):
    """got within 1e-12 of the largest |want|."""
    return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _assert_sg_2d_setup_matches_2d_run(cfg):
    # the factorised setup (1D y and z propagations, per-frame 1D tables)
    # reproduces the 2D propagation, and product_velocity over its tables
    # matches grid_velocity over build_stacks of the 2D frames, Gordon on
    # (weight 1) and off (weight 0), with the same node flags.  The 2D
    # reference rounds to its frame peak, not to the local density, so the
    # velocity error is weighted by rho / peak (an error in the current)
    # and must be within 1e-12 of the largest velocity over both flows and
    # all times.  Returns the velocities {weight: [(2, m) per time]}.
    (spinor0, final, branch, tables), prop = _sg_2d_reference(cfg)
    assert _close(final.up.values, prop.final.up.values)
    assert _close(final.down.values, prop.final.down.values)
    want_branch = [abs(overlap(f.up, f.down)) / (norm(f.up) * norm(f.down))
                   for f in prop.frames]
    assert np.abs(branch - want_branch).max() <= 1e-12
    assert np.array_equal(tables.times, prop.times)

    grid = tables.grid
    rng = np.random.default_rng(5)
    inside = rng.uniform(grid.x_min, grid.x_max, (20, 2))
    # the last cell on each axis interpolates across the periodic wrap
    last = rng.uniform(np.subtract(grid.x_max, grid.dx), grid.x_max, (6, 2))
    pts = np.concatenate([
        inside, last, np.column_stack([inside[:6, 0], last[:, 1]]),
        np.column_stack([last[:, 0], inside[:6, 1]]),
        sample_equilibrium(spinor0, 40, 1).positions,   # the packet at t0
        sample_equilibrium(final, 40, 2).positions])    # both branches at T
    lo, step = np.reshape(grid.x_min, (2, 1)), np.reshape(grid.dx, (2, 1))
    t0, frame_dt = tables.times[0], tables.times[1] - tables.times[0]
    n_frames = len(tables.times)
    vprev = np.full((2, len(pts)), 99.0)
    got, want = {}, {}
    for weight, model in ((1.0, VelocityModel.SPINOR_GORDON),
                          (0.0, VelocityModel.SPINOR)):
        ref = build_stacks(prop.frames, prop.times, model)
        assert _close(tables.peaks, ref.peaks)
        got[weight], want[weight] = [], []
        for ft in (0.0, 0.5, 7.3, 25.0, n_frames - 1.5, n_frames - 1.0):
            t = t0 + ft * frame_dt
            v, node = _kernels.product_velocity(
                pts.T, t, vprev, tables.y, tables.z, tables.peaks,
                np.full(len(pts), weight), t0, frame_dt, lo, step,
                NODE_DENSITY_REL)
            v_ref, node_ref = _kernels.grid_velocity(
                pts.T, t, vprev, (ref.rho, *ref.g), ref.peaks, t0, frame_dt,
                lo, step, NODE_DENSITY_REL)
            assert np.array_equal(node, node_ref)
            assert node.any() and not node.all()
            f0 = min(int(np.floor(ft + 1e-12)), n_frames - 2)
            w = ft - f0
            rho = ((1 - w) * _interp(grid, ref.rho[f0], pts)
                   + w * _interp(grid, ref.rho[f0 + 1], pts))
            peak = (1 - w) * ref.peaks[f0] + w * ref.peaks[f0 + 1]
            got[weight].append(v[:, ~node])
            want[weight].append((v_ref[:, ~node], rho[~node] / peak))
    v_max = max(np.abs(v).max() for flow in want.values() for v, _ in flow)
    for weight in got:
        for v, (v_ref, rel_rho) in zip(got[weight], want[weight]):
            assert (np.abs(v - v_ref) * rel_rho).max() <= 1e-12 * v_max
    return got


def test_sg_2d_setup_velocities_match_build_stacks():
    _assert_sg_2d_setup_matches_2d_run(_small_gordon_config(10))


def test_sg_2d_product_form_with_spin_coherence():
    # alpha != beta and a generic phase: s_x = P S is nonzero and both
    # Gordon terms (P S' on y, P' S on z) carry weight
    cfg = _small_gordon_config(10)
    cfg.alpha, cfg.beta, cfg.spinor_phase = 0.6, 0.8, 0.7
    v = _assert_sg_2d_setup_matches_2d_run(cfg)
    on, off = np.concatenate(v[1.0], axis=1), np.concatenate(v[0.0], axis=1)
    for ax in range(2):
        assert np.abs(on[ax] - off[ax]).max() > 1e-3 * np.abs(off[ax]).max()


def test_sg_2d_product_flows_match_2d_stack_flows():
    # both flows of one product-table kernel call against integrate_over_stacks
    # over the 2D propagation's stacks, from the same initial points
    cfg = _small_gordon_config(40)
    cfg.alpha, cfg.beta, cfg.spinor_phase = 0.6, 0.8, 0.7
    (spinor0, _, _, tables), prop = _sg_2d_reference(cfg)
    sample = sample_equilibrium(spinor0, cfg.n, cfg.seed)
    flows = integrate_product_flows(tables, sample.positions, cfg.dt_traj,
                                    gordon=(1.0, 0.0))
    for trajs, model in zip(flows, (VelocityModel.SPINOR_GORDON,
                                    VelocityModel.SPINOR)):
        ref = integrate_over_stacks(
            build_stacks(prop.frames, prop.times, model), sample.positions,
            cfg.dt_traj)
        assert len(trajs) == len(ref) == cfg.n
        ends = np.array([tr.endpoint for tr in trajs])
        want = np.array([tr.endpoint for tr in ref])
        assert np.abs(ends - want).max() <= 1e-12
        assert [tr.node_regularization_events for tr in trajs] \
            == [tr.node_regularization_events for tr in ref]
        assert not any(tr.failed for tr in trajs)
    ends_on, ends_off = (np.array([tr.endpoint for tr in f]) for f in flows)
    assert np.abs(ends_on - ends_off).max() > 1e-3


def test_sg_2d_setup_and_flows_hold_no_2d_stack():
    # the setup and the two-flow integration together allocate less than
    # one (F, ny, nz) float64 array, the size of each former 2D stack
    cfg = _small_gordon_config(100)
    stack_bytes = ((cfg.n_steps // cfg.frame_stride + 1)
                   * cfg.grid_n_y * cfg.grid_n_z * 8)
    tracemalloc.start()
    try:
        spinor0, _, _, tables = scenarios._sg_setup_2d(cfg, DEFAULT_UNITS)
        sample = sample_equilibrium(spinor0, cfg.n, cfg.seed)
        integrate_product_flows(tables, sample.positions, cfg.dt_traj,
                                gordon=(1.0, 0.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


@pytest.mark.parametrize("narrow", [dict(sigma_y=0.5, grid_half_width_y=12.0),
                                    dict(grid_half_width_z=14.0)],
                         ids=["y", "z"])
def test_sg_2d_support_guard_fires_at_the_2d_step(narrow):
    # the 2D guard ratio of P R is the larger of the factor ratios, so the
    # factorised setup stops at the capture where the 2D propagation does
    cfg = _small_gordon_config(10)
    for key, value in narrow.items():
        setattr(cfg, key, value)
    with pytest.raises(SupportGuardViolation) as factorised:
        scenarios._sg_setup_2d(cfg, DEFAULT_UNITS)
    grid = SpatialGrid.plane(
        cfg.grid_n_y, (-cfg.grid_half_width_y, cfg.grid_half_width_y),
        cfg.grid_n_z, (-cfg.grid_half_width_z, cfg.grid_half_width_z))
    g2 = make_gaussian(grid, GaussianPacketSpec.make(
        (0.0, 0.0), (cfg.sigma_y, cfg.sigma), (0.0, 0.0)))
    beta = cfg.beta * np.exp(1j * cfg.spinor_phase)
    spinor0 = SpinorField(ComplexField(grid, cfg.alpha * g2.values),
                          ComplexField(grid, beta * g2.values))
    with pytest.raises(SupportGuardViolation) as full:
        propagate(spinor0, PotentialSpec.linear_spin_dependent(
            cfg.gradient, cfg.offset), cfg.dt, cfg.n_steps,
            frame_stride=cfg.frame_stride)
    assert 0 < full.value.step < cfg.n_steps
    assert factorised.value.step == full.value.step
    assert factorised.value.ratio == pytest.approx(full.value.ratio, rel=1e-9)


def test_born_check_gordon_matches_run():
    # born-check of a Gordon config integrates the run's 2D Gordon-on flow
    cfg = _small_gordon_config(100)
    run = run_stern_gerlach(cfg)
    checked = run_born_check(cfg, 100)
    assert checked["ks"] == run.audits["equivariance_ks"]


def test_born_check_uses_configured_beam_splitter_state(monkeypatch):
    # born-check must propagate the same initial state as the run, built
    # from amplitude_right/amplitude_left: here the right-moving packet
    # alone.  The run propagates the branch pair (a SpinorField) first.
    class Stop(Exception):
        pass

    real = scenarios.propagate

    def first_state(run):
        seen = []

        def fake_propagate(state, *args, **kwargs):
            if isinstance(state, SpinorField):
                return real(state, *args, **kwargs)
            seen.append(state)
            raise Stop

        monkeypatch.setattr(scenarios, "propagate", fake_propagate)
        with pytest.raises(Stop):
            run()
        return seen[0]

    cfg = BeamSplitterConfig(n=10, seed=1, amplitude_right=1.0,
                             amplitude_left=0.0)
    checked = first_state(lambda: run_born_check(cfg, 10))
    ran = first_state(lambda: run_beam_splitter(cfg))
    grid = checked.grid
    right = make_gaussian(grid, GaussianPacketSpec.make(
        0.0, cfg.sigma, cfg.splitter_momentum))
    assert np.abs(checked.values - right.values).max() < 1e-12
    assert np.array_equal(checked.values, ran.values)


def test_attribution_from_optical_report():
    cfg = OpticalSGConfig(n=120, seed=4, N_sweep=[64])
    rep = run_optical_sg(cfg)
    verdict = determinant_attribution(rep.sub_reports[0])
    assert verdict.label == "M_determined"
    assert _plain(verdict)["label"] == "M_determined"
