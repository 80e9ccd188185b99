import json

import numpy as np
import pytest

from bohmctx import (ConfigError, GaussianPacketSpec, SeparationError,
                     SpatialGrid, SpinorField, SupportGuardViolation,
                     make_gaussian, norm, overlap, scenarios)
from bohmctx.fields import density_overlap
from bohmctx.analysis import born_rule_ks, determinant_attribution, grid_cdf
from bohmctx import _kernels, pointer
from bohmctx.guidance import NODE_DENSITY_REL, build_stacks
from bohmctx.pointer import (classify_point, integrate_pointer_ensemble,
                             labels_from_log_ratio)
from bohmctx.propagation import (GUARD_BAND_CELLS, GUARD_DENSITY_RATIO,
                                 PotentialSpec, propagate)
from bohmctx.config import (AncillaChainConfig, BeamSplitterConfig,
                            OpticalSGConfig, SternGerlachConfig)
from bohmctx.report import _plain
from bohmctx.sampling import (_cell_cdf, _stream, inverse_cdf_sample,
                              sample_equilibrium)
from conftest import assert_same_trajectories, propagate_frames, traced_peak
import gaussian_oracle
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
    _, _, _, psi0 = scenarios._bs_setup(cfg)
    positions = sample_equilibrium(psi0, cfg.n, cfg.seed)
    _, stride = cfg.trajectory_steps()
    assert stride > 1
    final, trajs = scenarios._stream_propagate(
        cfg, psi0, PotentialSpec.free(), positions, stride)
    prop = propagate_frames(psi0, PotentialSpec.free(), cfg.dt, cfg.n_steps,
                            frame_stride=cfg.frame_stride)
    ref = integrate_over_stacks(
        build_stacks(prop.frames, prop.times),
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


def test_beam_splitter_detector_stage_at_the_frame_step():
    # the run steps its detector stage at the frame step, 4 x dt_traj here:
    # from the run's points at t_sep, the endpoints move by at most 1e-6
    # and no label changes against the stage stepped at dt_traj
    cfg = _small_beam_splitter_config()
    rep = run_beam_splitter(cfg)
    _, plus, minus, _ = scenarios._bs_setup(cfg)
    model = scenarios._bs_detector_model(
        cfg, scenarios._bs_branch_series(cfg, plus, minus))
    init = np.column_stack([rep.artifacts["x_at_separation"],
                            scenarios._bs_detector_offsets(cfg)])
    ends, labels = [], []
    for dt in (cfg.dt_traj, cfg.dt * cfg.frame_stride):
        steps = int(round(model.T / dt))
        res = integrate_pointer_ensemble(model, init, dt,
                                         record_stride=steps)
        assert res.node_counts.sum() == 0
        ends.append(res.final_points())
        labels.append([classify_point(p, model.T, model, cfg.ratio_threshold)
                       for p in ends[-1]])
    assert np.abs(ends[1] - ends[0]).max() <= 1e-6
    assert labels[0] == labels[1]
    assert set(labels[0]) == {"D1", "D2"}


def test_beam_splitter_branch_series_equal_separate_propagations():
    # the batched (plus, minus) pair gives bitwise the series of the two
    # packets propagated one by one, with the per-frame formulas over them
    cfg = _small_beam_splitter_config()
    _, plus, minus, _ = scenarios._bs_setup(cfg)
    got = scenarios._bs_branch_series(cfg, plus, minus)
    frames = [propagate_frames(packet, PotentialSpec.free(), cfg.dt,
                               cfg.n_steps, frame_stride=cfg.frame_stride).frames
              for packet in (plus, minus)]

    def center_width(f):
        x = f.grid.axis()
        w = f.density() / f.density().sum()
        mu = float(np.sum(w * x))
        return mu, np.sqrt(float(np.sum(w * (x - mu) ** 2)))

    bhatt = np.array([density_overlap(a.density(), b.density(), a.grid.dx)
                      for a, b in zip(*frames)])
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
    _, peak = traced_peak(run_beam_splitter, cfg)
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
    _, peak = traced_peak(run_scenario, cfg)
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
        scenarios._bs_branch_series(cfg, plus, minus)
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
    assert rep.accuracies()["system"].fraction == 1.0


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


def test_ancilla_sweep_entry_matches_single_run():
    # a result does not depend on its entry point: the sweep entry for
    # (N' = 4, separation = 8.0) is the single run of those scalars
    single = run_ancilla_chain(AncillaChainConfig(
        n=60, seed=2, N_prime=4, system_separation=8.0))
    sweep = run_ancilla_chain(AncillaChainConfig(
        n=60, seed=2, N_prime_sweep=[1, 4], separation_sweep=[0.0, 8.0]))
    entry = sweep.sub_reports[-1]
    assert (entry.extras["N_prime"], entry.extras["system_separation"]) \
        == (4, 8.0)
    assert entry.to_dict() == single.to_dict()


def test_optical_sg_entry_does_not_depend_on_the_sweep():
    # the N = 16 entry is the same alone and after an N = 1 entry
    alone = run_optical_sg(OpticalSGConfig(n=60, seed=3, N_sweep=[16]))
    after = run_optical_sg(OpticalSGConfig(n=60, seed=3, N_sweep=[1, 16]))
    assert after.sub_reports[1].to_dict() == alone.sub_reports[0].to_dict()


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


def _sg_spinor_1d(cfg):
    """The initial spinor of the 1D Stern-Gerlach run."""
    return scenarios._sg_spinor(cfg, SpatialGrid.line(
        cfg.grid_n, -cfg.grid_half_width, cfg.grid_half_width))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["run", "twin"])
def test_sg_1d_streamed_trajectories_and_branch_overlap_equal_stored_frames(
        sign):
    # each of the twin runs integrates its trajectories while it
    # propagates, bitwise as integrate_over_stacks over build_stacks of the
    # stored frames
    cfg = SternGerlachConfig(n=10, seed=3, grid_n=512)
    spinor0 = _sg_spinor_1d(cfg)
    positions = sample_equilibrium(spinor0, cfg.n, cfg.seed)
    potential = PotentialSpec.linear_spin_dependent(sign * cfg.gradient,
                                                    cfg.offset)
    branch = {}

    def observe(f, state):
        branch[f] = scenarios._branch_overlap(state)

    final, trajs = scenarios._stream_propagate(
        cfg, spinor0, potential, positions, 1, observe)
    prop = propagate_frames(spinor0, potential, cfg.dt, cfg.n_steps,
                            frame_stride=cfg.frame_stride)
    ref = integrate_over_stacks(
        build_stacks(prop.frames, prop.times),
        positions, cfg.dt_traj)
    want = [abs(overlap(f.up, f.down)) / max(norm(f.up) * norm(f.down), 1e-300)
            for f in prop.frames]
    assert np.array_equal(final.up.values, prop.final.up.values)
    assert np.array_equal(final.down.values, prop.final.down.values)
    assert list(branch) == list(range(len(want)))
    assert np.array_equal(list(branch.values()), want)
    assert_same_trajectories(trajs, ref)


def _exact_sg_1d_flow(cfg, z0):
    """Endpoints of RK4 at dt_traj on the closed-form SG-1D velocity
    Im(u* u' + d* d') / (|u|^2 + |d|^2), from z0 over the flight time."""
    def v(z, t):
        u, d, du, dd = gaussian_oracle.sg_spinor(z, t, cfg)
        return ((np.conj(u) * du + np.conj(d) * dd).imag
                / (np.abs(u) ** 2 + np.abs(d) ** 2))

    h, z = cfg.dt_traj, np.array(z0, dtype=float)
    for i in range(round(cfg.n_steps * cfg.dt / h)):
        t = i * h
        k1 = v(z, t)
        k2 = v(z + 0.5 * h * k1, t + 0.5 * h)
        k3 = v(z + 0.5 * h * k2, t + 0.5 * h)
        k4 = v(z + h * k3, t + h)
        z += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def test_sg_1d_grid_flow_endpoints_match_closed_form_flow():
    # the grid flow (frames 0.01 apart, each linearly interpolated on the
    # default 1024-point grid) against RK4 at the same dt_traj on the exact
    # velocity: at n = 50, seed 1 the endpoints differ by at most 1.87e-3
    # (median 6.2e-4).  On a 512-point grid the maximum is 4.12e-3, so the
    # bound 2.5e-3 catches a grid that is too coarse
    cfg = SternGerlachConfig(n=50, seed=1)
    spinor0 = _sg_spinor_1d(cfg)
    positions = sample_equilibrium(spinor0, cfg.n, cfg.seed)
    _, trajs = scenarios._stream_propagate(
        cfg, spinor0, PotentialSpec.linear_spin_dependent(
            cfg.gradient, cfg.offset), positions, 1)
    exact = _exact_sg_1d_flow(cfg, positions[:, 0])
    assert not any(tr.failed for tr in trajs)
    assert np.abs(trajs.final_points()[:, 0] - exact).max() <= 2.5e-3


def test_born_check_grid_scenario():
    res = run_born_check(SternGerlachConfig(seed=3), 500)
    assert res["scenario"] == "stern_gerlach"
    assert res["ks"] < 0.08  # loose bound at n=500; tight one in acceptance


def _small_gordon_config(n):
    return SternGerlachConfig(gordon=True, n=n, seed=3, grid_n_y=64,
                              grid_n_z=256, dt=0.008, n_steps=250)


def _plane(tables):
    """lo, step (2, 1): x_min and dx of the y and z line grids of tables."""
    grids = (tables.y_grid, tables.z_grid)
    return (np.array([[g.x_min] for g in grids]),
            np.array([[g.dx] for g in grids]))


def _oracle_stacks(cfg, tables, gordon):
    """(rho, G_y, G_z) stacks (F, ny, nz) of the closed-form Gordon state
    of cfg at the frame times of tables, with Gordon weight `gordon`, and
    their peaks (F,): outer products of the exact factor tables."""
    y, z = tables.y_grid.axis(), tables.z_grid.axis()
    frames = [gaussian_oracle.product_fields(
        *gaussian_oracle.product_tables(y, z, t, cfg), gordon)
        for t in tables.times]
    rho, g_y, g_z = (np.array(f) for f in zip(*frames))
    return (rho, g_y, g_z), rho.max(axis=(1, 2))


def _assert_sg_2d_setup_matches_closed_form(cfg):
    # the factorised setup (1D y and z propagations, per-frame 1D tables)
    # against the closed form of phi(y) chi(z).  Strang splitting under the
    # linear potential leaves a global phase on chi (f^2 t dt^2 / 24, the
    # same for both components), so tables and overlaps are compared, not
    # amplitudes.  Each table column is compared relative to its largest
    # value over all frames; measured at the two spin states of the tests:
    # P, R, S and the peaks within 2.6e-14 (bound 1e-13), J_phi 2.5e-13,
    # J_chi, -P'/2 and S'/2 within 5.5e-14 (bound 1e-12).  Then
    # product_velocity over the tables against the stage velocity over the
    # closed form's 2D stacks (bilinear in space, linear in time), Gordon on
    # (weight 1) and off (weight 0), with the same node flags.  The error
    # is weighted by rho / peak (an error in the current) and is within
    # 1.2e-15 of the largest velocity (bound 1e-13).  Returns the
    # velocities {weight: [(2, m) per time]}.
    phi0, chi0, chi, branch, tables = scenarios._sg_setup_2d(cfg)
    y, z = tables.y_grid.axis(), tables.z_grid.axis()
    n_frames = len(tables.times)
    frame_dt = cfg.dt * cfg.frame_stride
    assert np.abs(tables.times - frame_dt * np.arange(n_frames)).max() \
        <= 1e-15
    exact = [gaussian_oracle.product_tables(y, z, t, cfg)
             for t in tables.times]
    for got, want, tols in (
            (tables.y, [e[0] for e in exact], (1e-13, 1e-12, 1e-12)),
            (tables.z, [e[1] for e in exact], (1e-13, 1e-12, 1e-13, 1e-12))):
        want = np.array(want)
        for c, tol in enumerate(tols):
            assert np.abs(got[:, c] - want[:, c]).max() \
                <= tol * np.abs(want[:, c]).max()
    # |<up|down>| / (|up| |down|) of the closed-form chi summed on the z
    # grid: within 2.0e-15
    want_branch = []
    for t in tables.times:
        u, d, _, _ = gaussian_oracle.sg_spinor(z, t, cfg)
        want_branch.append(abs(np.sum(np.conj(u) * d))
                           / np.sqrt(np.sum(abs(u) ** 2) * np.sum(abs(d) ** 2)))
    assert np.abs(branch - want_branch).max() <= 1e-13

    lo, step = _plane(tables)
    x_min, dx = lo[:, 0], step[:, 0]
    x_max = x_min + dx * [tables.y_grid.n, tables.z_grid.n]
    rng = np.random.default_rng(5)
    inside = rng.uniform(x_min, x_max, (20, 2))
    # the last cell on each axis interpolates across the periodic wrap
    last = rng.uniform(x_max - dx, x_max, (6, 2))
    pts = np.concatenate([
        inside, last, np.column_stack([inside[:6, 0], last[:, 1]]),
        np.column_stack([last[:, 0], inside[:6, 1]]),
        sample_equilibrium((phi0, chi0), 40, 1)])  # the packet
    t0 = tables.times[0]
    vprev = np.full((2, len(pts)), 99.0)
    got, want = {}, {}
    for weight in (1.0, 0.0):
        fields, peaks = _oracle_stacks(cfg, tables, weight)
        assert np.abs(tables.peaks - peaks).max() <= 1e-13 * peaks.max()
        got[weight], want[weight] = [], []
        for ft in (0.0, 0.5, 7.3, 25.0, n_frames - 1.5, n_frames - 1.0):
            t = t0 + ft * frame_dt
            v, node = _kernels.product_velocity(
                pts.T, t, vprev, tables.y, tables.z, tables.peaks,
                np.full(len(pts), weight), t0, frame_dt, lo, step,
                NODE_DENSITY_REL)
            v_ref, node_ref = gaussian_oracle.stage_velocity(
                pts.T, t, vprev, fields, peaks, t0, frame_dt, lo, step,
                NODE_DENSITY_REL)
            assert np.array_equal(node, node_ref)
            assert node.any() and not node.all()
            f0 = min(int(np.floor(ft + 1e-12)), n_frames - 2)
            w = ft - f0
            rho = ((1 - w) * gaussian_oracle.bilinear(fields[0][f0], pts,
                                                      x_min, dx)
                   + w * gaussian_oracle.bilinear(fields[0][f0 + 1], pts,
                                                  x_min, dx))
            peak = (1 - w) * peaks[f0] + w * peaks[f0 + 1]
            got[weight].append(v[:, ~node])
            want[weight].append((v_ref[:, ~node], rho[~node] / peak))
    v_max = max(np.abs(v).max() for flow in want.values() for v, _ in flow)
    for weight in got:
        for v, (v_ref, rel_rho) in zip(got[weight], want[weight]):
            assert (np.abs(v - v_ref) * rel_rho).max() <= 1e-13 * v_max
    return got


def test_sg_2d_setup_velocities_match_closed_form():
    _assert_sg_2d_setup_matches_closed_form(_small_gordon_config(10))


def test_sg_2d_product_form_with_spin_coherence():
    # alpha != beta and a generic phase: s_x = P S is nonzero and both
    # Gordon terms (P S' on y, P' S on z) carry weight
    cfg = _small_gordon_config(10)
    cfg.alpha, cfg.beta, cfg.spinor_phase = 0.6, 0.8, 0.7
    v = _assert_sg_2d_setup_matches_closed_form(cfg)
    on, off = np.concatenate(v[1.0], axis=1), np.concatenate(v[0.0], axis=1)
    for ax in range(2):
        assert np.abs(on[ax] - off[ax]).max() > 1e-3 * np.abs(off[ax]).max()


def test_sg_2d_product_flows_match_2d_stack_flows():
    # both flows of one product-table kernel call against the package's
    # grid RK4 under the 2D stage velocity over the closed form's 2D
    # stacks, from the same initial points.  Measured endpoint difference:
    # 6.7e-14 (Gordon on) and 5.9e-14 (off); bound 1e-12
    cfg = _small_gordon_config(40)
    cfg.alpha, cfg.beta, cfg.spinor_phase = 0.6, 0.8, 0.7
    phi0, chi0, _, _, tables = scenarios._sg_setup_2d(cfg)
    positions = sample_equilibrium((phi0, chi0), cfg.n, cfg.seed)
    flows = integrate_product_flows(tables, positions, cfg.dt_traj,
                                    gordon=(1.0, 0.0))
    for trajs, gordon in zip(flows, (1.0, 0.0)):
        flow = GridFlow((tables.y_grid, tables.z_grid), tables.times,
                        positions, cfg.dt_traj, 1,
                        gaussian_oracle.stage_velocity,
                        _oracle_stacks(cfg, tables, gordon))
        flow.advance(len(tables.times) - 1)
        ref = flow.trajectories
        assert len(trajs) == len(ref) == cfg.n
        assert np.abs(trajs.final_points() - ref.final_points()).max() <= 1e-12
        assert [tr.node_regularization_events for tr in trajs] \
            == [tr.node_regularization_events for tr in ref]
        assert not any(tr.failed for tr in trajs)
    assert np.abs(flows[0].final_points() - flows[1].final_points()).max() > 1e-3


def test_sg_2d_setup_and_flows_hold_no_2d_stack():
    # the setup and the two-flow integration together allocate less than
    # one (F, ny, nz) float64 array, the size of each former 2D stack
    cfg = _small_gordon_config(100)
    stack_bytes = ((cfg.n_steps // cfg.frame_stride + 1)
                   * cfg.grid_n_y * cfg.grid_n_z * 8)

    def setup_and_flows():
        phi0, chi0, _, _, tables = scenarios._sg_setup_2d(cfg)
        positions = sample_equilibrium((phi0, chi0), cfg.n, cfg.seed)
        integrate_product_flows(tables, positions, cfg.dt_traj,
                                gordon=(1.0, 0.0))
    _, peak = traced_peak(setup_and_flows)
    assert peak < stack_bytes


def test_sg_gordon_run_holds_no_2d_array():
    # a Gordon run on a plane whose one (ny, nz) complex array outweighs
    # the run's records and 1D tables peaks below that array's bytes: no
    # 2D field is built to sample, label, check separation or run the KS
    cfg = _small_gordon_config(20)
    cfg.grid_n_y, cfg.grid_n_z = 512, 1024
    plane_bytes = cfg.grid_n_y * cfg.grid_n_z * 16
    n_frames = cfg.n_steps // cfg.frame_stride + 1
    steps, _ = cfg.trajectory_steps()
    records = 2 * cfg.n * (steps + 1) * 2 * 8
    tables = n_frames * (3 * cfg.grid_n_y + 4 * cfg.grid_n_z) * 8
    assert records + tables < plane_bytes / 2
    report, peak = traced_peak(run_scenario, cfg)
    assert report.audits["gordon"]["outcome_agreement"]
    assert peak < plane_bytes


def _sample_2d(rho, lo, dx, n, seed):
    """(n, 2) points from a 2D density rho (ny, nz) on the plane with lower
    corner lo (2,) and spacing dx (2,): y from the row marginal, then z
    from the conditional of the selected cell row, with the index's two
    uniforms in that order."""
    row_cdf = _cell_cdf(rho.sum(axis=1) * dx[0] * dx[1])
    out = np.empty((n, 2))
    for i in range(n):
        u1, u2 = _stream(seed, i).random(2)
        out[i, 0] = inverse_cdf_sample(row_cdf, lo[0], dx[0], u1)
        j = min(max(int(round((out[i, 0] - lo[0]) / dx[0])), 0), len(rho) - 1)
        out[i, 1] = inverse_cdf_sample(
            _cell_cdf(np.maximum(rho[j], 1e-300) * dx[1]), lo[1], dx[1], u2)
    return np.clip(out, lo, lo + dx * (np.array(rho.shape) - 1e-9))


def test_sg_gordon_sampler_matches_2d_marginal_conditional():
    # y from |phi0|^2 and z from |chi0|^2 with the index's two uniforms in
    # order give the points of the 2D marginal/conditional sampler on the
    # closed-form |phi0 chi0|^2 (an outer product on the default Gordon
    # plane), to rounding: measured 5.7e-14, bound 1e-12
    cfg = SternGerlachConfig(gordon=True)
    phi0, chi0, _, _, tables = scenarios._sg_setup_2d(cfg)
    got = sample_equilibrium((phi0, chi0), 1000, cfg.seed)
    lo, step = _plane(tables)
    y_cols, z_cols = gaussian_oracle.product_tables(
        tables.y_grid.axis(), tables.z_grid.axis(), 0.0, cfg)
    want = _sample_2d(np.outer(y_cols[0], z_cols[0]), lo[:, 0], step[:, 0],
                      1000, cfg.seed)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sg_gordon_labels_equal_2d_labels(seed):
    # the labels from chi alone at the endpoints' z equal those from the
    # two closed-form 2D component densities |phi|^2 |chi_up|^2 and
    # |phi|^2 |chi_down|^2 at T (outer products), bilinearly interpolated
    # at (y, z), for both flows
    cfg = _small_gordon_config(100)
    cfg.seed = seed
    report = run_stern_gerlach(cfg)
    _, _, _, _, tables = scenarios._sg_setup_2d(cfg)
    lo, step = _plane(tables)
    T = cfg.dt * cfg.n_steps
    phi, _ = gaussian_oracle.free_packet(tables.y_grid.axis(), T, 0.0,
                                         cfg.sigma_y)
    up, down, _, _ = gaussian_oracle.sg_spinor(tables.z_grid.axis(), T, cfg)
    for labels, trajs in ((report.outcomes, "trajectories"),
                          (report.extras["outcomes_gordon_off"],
                           "trajectories_gordon_off")):
        ends = report.artifacts[trajs].final_points()
        log_up, log_down = (np.log(np.maximum(gaussian_oracle.bilinear(
            np.outer(np.abs(phi) ** 2, np.abs(comp) ** 2), ends, lo[:, 0],
            step[:, 0]), 1e-300)) for comp in (up, down))
        assert labels == labels_from_log_ratio(log_up - log_down, ("+", "-"),
                                               cfg.ratio_threshold)
    assert set(report.outcomes) == {"+", "-"}


@pytest.mark.parametrize("narrow", [dict(sigma_y=0.5, grid_half_width_y=12.0),
                                    dict(grid_half_width_z=14.0),
                                    dict(sigma_y=0.5, grid_half_width_y=14.0,
                                         grid_half_width_z=12.0)],
                         ids=["y", "z", "both"])
def test_sg_2d_support_guard_fires_at_the_2d_step(narrow):
    # the 2D guard ratio of P R is the larger of the factor ratios, so the
    # factorised setup stops at the capture where the guard on the 2D
    # density would: here the closed-form P R (an outer product) with the
    # band of 10 cells at each end of both axes.  With both factors
    # breaching ("both"), z breaches first, at step 175, and y at 190.
    # The step is exact; the ratios differ by 7.4e-7 (y), 5.3e-3 (z) and
    # 5.4e-4 (both) relative, because the periodic grid's density near the
    # ends is not the whole line's (bound 1e-2)
    cfg = _small_gordon_config(10)
    for key, value in narrow.items():
        setattr(cfg, key, value)
    with pytest.raises(SupportGuardViolation) as factorised:
        scenarios._sg_setup_2d(cfg)
    y_grid, z_grid = (SpatialGrid.line(n, -half, half) for n, half in (
        (cfg.grid_n_y, cfg.grid_half_width_y),
        (cfg.grid_n_z, cfg.grid_half_width_z)))
    band = np.zeros((y_grid.n, z_grid.n), dtype=bool)
    band[:GUARD_BAND_CELLS] = band[-GUARD_BAND_CELLS:] = True
    band[:, :GUARD_BAND_CELLS] = band[:, -GUARD_BAND_CELLS:] = True
    for step in range(0, cfg.n_steps + 1, cfg.frame_stride):
        y_cols, z_cols = gaussian_oracle.product_tables(
            y_grid.axis(), z_grid.axis(), step * cfg.dt, cfg)
        rho = np.outer(y_cols[0], z_cols[0])
        ratio = rho[band].max() / rho.max()
        if ratio >= GUARD_DENSITY_RATIO:
            break
    assert 0 < step < cfg.n_steps
    assert factorised.value.step == step
    assert factorised.value.ratio == pytest.approx(ratio, rel=1e-2)


def test_gordon_term_vanishes_for_a_z_eigenstate():
    # with beta = 0, chi has one component: S = 2 Re(chi_up* chi_down) and
    # its gradient are exactly zero in the tables, and the flows with and
    # without the Gordon term are the same flow
    cfg = _small_gordon_config(20)
    cfg.alpha, cfg.beta = 1.0, 0.0
    phi0, chi0, _, _, tables = scenarios._sg_setup_2d(cfg)
    assert not tables.z[:, 2:].any()
    positions = sample_equilibrium((phi0, chi0), cfg.n, cfg.seed)
    on, off = integrate_product_flows(tables, positions, cfg.dt_traj,
                                      gordon=(1.0, 0.0))
    assert np.array_equal(on.final_points(), off.final_points())


@pytest.mark.parametrize("cfg", [
    _small_beam_splitter_config(n=100),
    SternGerlachConfig(n=100, seed=3, grid_n=512),
    _small_gordon_config(100),
    OpticalSGConfig(n=100, seed=3, N_sweep=[1, 16]),
    AncillaChainConfig(n=100, seed=3),
], ids=["beam_splitter", "stern_gerlach_1d", "stern_gerlach_gordon",
        "optical_sg", "ancilla"])
def test_born_check_matches_run(cfg, monkeypatch):
    # born-check records only the endpoints, the run more (and the Gordon
    # run integrates its Gordon-off flow beside): both integrate the same
    # flow from the same sample, so the KS is the same.  A pointer run has
    # no KS audit; its own final x (of the sweep's last N on optical-sg)
    # is compared with the x-marginal at T, as born-check compares its own
    if isinstance(cfg, (BeamSplitterConfig, SternGerlachConfig)):
        checked = run_born_check(cfg, cfg.n)
        assert checked["ks"] == run_scenario(cfg).audits["equivariance_ks"]
        return
    real = scenarios.integrate_pointer_ensemble
    runs = []

    def spy(model, *args, **kwargs):
        runs.append((model, real(model, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(scenarios, "integrate_pointer_ensemble", spy)
    checked = run_born_check(cfg, cfg.n)
    assert len(runs[-1][1].times) == 2  # the endpoints alone
    run_scenario(cfg)
    model, res = runs[-1]
    assert len(res.times) > 2
    xs, dens = pointer.x_marginal_density(model, model.T)
    ks = born_rule_ks(res.final_points()[:, 0],
                      grid_cdf(xs, dens, float(xs[1] - xs[0])))
    assert checked["ks"] == ks


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
