import numpy as np
import pytest
from scipy import fft as scipy_fft

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     PotentialSpec, SpatialGrid, SpinorField,
                     SupportGuardViolation, make_gaussian, norm, propagate)
from bohmctx.errors import PropagationBlowup
from bohmctx import scenarios
from bohmctx.config import BeamSplitterConfig, SternGerlachConfig
from bohmctx.fields import position_std

from conftest import free_width, harmonic_width, propagate_frames
import gaussian_oracle


def test_free_gaussian_width_oracle(line_grid, unit_gaussian):
    # sigma(t) = sigma0 sqrt(1 + (hbar t / 2 m sigma0^2)^2); t=2 gives sqrt(2)
    res = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 200)
    got = position_std(res.final)[0]
    expected = free_width(2.0)
    assert expected == pytest.approx(np.sqrt(2.0))
    assert abs(got - expected) / expected <= 1e-3


def test_zero_steps_identity(unit_gaussian):
    res = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 0)
    assert np.array_equal(res.final.values, unit_gaussian.values)


def test_plane_wave_kinetic_phase(line_grid):
    L = 40.0
    k = 2 * np.pi * 11 / L
    x = line_grid.axis()
    pw = ComplexField(line_grid, np.exp(1j * k * x) / np.sqrt(L))
    t = 1.5
    res = propagate(pw, PotentialSpec.free(), 0.015, 100, support_guard=False)
    expected = pw.values * np.exp(-1j * k ** 2 * t / 2.0)
    assert np.abs(res.final.values - expected).max() <= 1e-8


def test_unitarity_battery(line_grid):
    n_steps = 400
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 1.0))
    runs = [
        (psi, PotentialSpec.free()),
        (SpinorField(ComplexField(line_grid, psi.values * 0.6),
                     ComplexField(line_grid, psi.values * 0.8)),
         PotentialSpec.linear_spin_dependent(2.0, 0.5)),
        (psi, PotentialSpec.sampled(0.5 * line_grid.axis() ** 2)),
    ]
    for state, pot in runs:
        res = propagate(state, pot, 0.002, n_steps, support_guard=False)
        assert abs(norm(res.final) - norm(state)) <= 1e-10 * n_steps


def test_time_reversal(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(-2.0, 1.0, 1.5))
    fwd = propagate(psi, PotentialSpec.free(), 0.01, 150)
    back = propagate(fwd.final, PotentialSpec.free(), -0.01, 150)
    assert np.abs(back.final.values - psi.values).max() <= 1e-8


def test_time_reversal_linear_spinor(line_grid):
    g = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    sp = SpinorField(ComplexField(line_grid, g.values * np.sqrt(0.5)),
                     ComplexField(line_grid, g.values * np.sqrt(0.5)))
    pot = PotentialSpec.linear_spin_dependent(4.0)
    fwd = propagate(sp, pot, 0.004, 150)
    back = propagate(fwd.final, pot, -0.004, 150)
    assert np.abs(back.final.up.values - sp.up.values).max() <= 1e-8
    assert np.abs(back.final.down.values - sp.down.values).max() <= 1e-8


def test_spinor_decoupling(line_grid):
    # spinor under the linear spin-dependent potential equals per-component
    # scalar propagation under -/+ (hbar/2)(B0 + b z)
    g = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    sp = SpinorField(ComplexField(line_grid, g.values * 0.6),
                     ComplexField(line_grid, g.values * 0.8))
    b, b0 = 3.0, 0.7
    joint = propagate(sp, PotentialSpec.linear_spin_dependent(b, b0),
                      0.002, 200)
    z = line_grid.axis()
    base = 0.5 * (b0 + b * z)
    up = propagate(sp.up, PotentialSpec.sampled(-base), 0.002, 200)
    down = propagate(sp.down, PotentialSpec.sampled(+base), 0.002, 200)
    assert np.abs(joint.final.up.values - up.final.values).max() <= 1e-12
    assert np.abs(joint.final.down.values - down.final.values).max() <= 1e-12


def test_linear_potential_requires_spinor(unit_gaussian):
    with pytest.raises(ConfigError):
        propagate(unit_gaussian, PotentialSpec.linear_spin_dependent(1.0),
                  0.01, 10)


def test_strang_convergence_order(line_grid, unit_gaussian):
    # Strang splitting is O(dt^2): halving dt cuts the width error vs the
    # closed-form harmonic-trap Gaussian by ~4x.  (Free and linear-potential
    # evolution carry no dt error with a spectral kinetic step, so the order
    # is measured where splitting error exists.)
    x = line_grid.axis()
    trap = PotentialSpec.sampled(0.5 * x ** 2)
    t_final = 1.0
    errors = []
    for dt in (0.02, 0.01):
        res = propagate(unit_gaussian, trap, dt, int(round(t_final / dt)))
        errors.append(abs(position_std(res.final)[0] - harmonic_width(t_final)))
    ratio = errors[0] / errors[1]
    assert 3.0 <= ratio <= 5.0


def test_free_propagation_is_dt_exact(line_grid, unit_gaussian):
    # with a spectral kinetic step, free evolution has no dt dependence
    a = propagate(unit_gaussian, PotentialSpec.free(), 0.05, 20)
    b = propagate(unit_gaussian, PotentialSpec.free(), 0.005, 200)
    assert np.abs(a.final.values - b.final.values).max() <= 1e-10


def test_frames_capture(unit_gaussian):
    res = propagate_frames(unit_gaussian, PotentialSpec.free(), 0.01, 100,
                           frame_stride=10)
    assert len(res.frames) == 11
    assert np.allclose(res.times, 0.01 * 10 * np.arange(11))
    assert np.array_equal(res.frames[-1].values, res.final.values)


def test_frame_stride_must_divide(unit_gaussian):
    with pytest.raises(ConfigError):
        propagate(unit_gaussian, PotentialSpec.free(), 0.01, 100,
                  frame_stride=7)


def test_support_guard_aborts(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 8.0))
    with pytest.raises(SupportGuardViolation) as err:
        propagate(psi, PotentialSpec.free(), 0.01, 400, frame_stride=10)
    assert err.value.step > 0


def test_nan_detection_reports_step(unit_gaussian):
    with pytest.raises(PropagationBlowup) as err:
        propagate(unit_gaussian, PotentialSpec.free(), float("nan"), 5,
                  support_guard=False)
    assert err.value.step == 1


def _split_step_reference(comps, pots, grid, dt, n_steps):
    """Strang steps one component at a time with numpy.fft."""
    k = grid.wavenumbers()
    kin = np.exp(-1j * (k * k) * dt / 2.0)
    out = []
    for psi, v in zip(comps, pots):
        half = np.exp(-0.5j * v * dt)
        for _ in range(n_steps):
            psi = half * np.fft.ifftn(kin * np.fft.fftn(half * psi))
        out.append(psi)
    return out


def test_batched_propagation_matches_per_component_reference(line_grid):
    # scalar in a harmonic trap
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(-1.0, 1.0, 1.5))
    v = 0.5 * line_grid.axis() ** 2
    res = propagate(psi, PotentialSpec.sampled(v), 0.01, 120)
    (ref,) = _split_step_reference([psi.values], [v], line_grid, 0.01, 120)
    assert np.abs(res.final.values - ref).max() <= 1e-12 * np.abs(ref).max()

    # spinor under the linear spin-dependent potential
    g = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.5))
    sp = SpinorField(ComplexField(line_grid, 0.6 * g.values),
                     ComplexField(line_grid, 0.8j * g.values))
    b, b0 = 3.0, 0.4
    res = propagate(sp, PotentialSpec.linear_spin_dependent(b, b0), 0.005, 80,
                    support_guard=False)
    base = 0.5 * (b0 + b * line_grid.axis())
    ref = _split_step_reference([sp.up.values, sp.down.values],
                                [-base, base], line_grid, 0.005, 80)
    for got, want in zip((res.final.up.values, res.final.down.values), ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _scipy_strang_step(comps, pot, grid, dt):
    """One propagate() step on (C, n) components, with the transform pair
    taken from scipy.fft.fftn/ifftn over the grid axis."""
    k = grid.wavenumbers()
    kin = np.exp(-1j * (k * k) * dt / 2.0)
    half = 1.0
    if pot.kind == "linear_spin_dependent":
        base = 0.5 * (pot.offset + pot.gradient * grid.axis())
        half = np.exp(-0.5j * np.stack([-base, +base]) * dt)
    # in-place products as in propagate: `a *= b` and `b * a` can differ in
    # the last bit
    comps = comps * half
    comps = scipy_fft.fftn(comps, axes=(-1,))
    comps *= kin
    comps = scipy_fft.ifftn(comps, axes=(-1,))
    comps *= half
    return comps


@pytest.mark.parametrize("pot", [PotentialSpec.free(),
                                 PotentialSpec.linear_spin_dependent(3.0, 0.4)],
                         ids=["free", "linear"])
def test_step_matches_scipy_fftn(line_grid, pot):
    # numpy.fft is bitwise scipy.fft on the grid axis
    g = make_gaussian(line_grid, GaussianPacketSpec.make(0.5, 1.0, 1.5))
    sp = SpinorField(ComplexField(line_grid, 0.6 * g.values),
                     ComplexField(line_grid, 0.8j * g.values))
    res = propagate(sp, pot, 0.01, 1)
    want = _scipy_strang_step(np.stack([sp.up.values, sp.down.values]), pot,
                              line_grid, 0.01)
    assert np.array_equal(res.final.up.values, want[0])
    assert np.array_equal(res.final.down.values, want[1])


def test_observer_replaces_frame_storage(line_grid):
    # a spinor run shows its observer the state of every capture step,
    # bitwise the final state of a run that stops at that step
    g = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    sp = SpinorField(ComplexField(line_grid, 0.6 * g.values),
                     ComplexField(line_grid, 0.8 * g.values))
    pot = PotentialSpec.linear_spin_dependent(2.0)
    watched = propagate_frames(sp, pot, 0.01, 40, frame_stride=10)
    assert watched.times.tolist() == [10 * i * 0.01 for i in range(5)]
    for i, frame in enumerate(watched.frames):
        stopped = propagate(sp, pot, 0.01, 10 * i).final
        assert np.array_equal(frame.up.values, stopped.up.values)
        assert np.array_equal(frame.down.values, stopped.down.values)


# -- closed form ---------------------------------------------------------------

def test_beam_splitter_default_final_density_matches_closed_form():
    # the default beam-splitter superposition after free flight to T, on
    # its grid, against the two closed-form packets: measured 1.7e-13 of
    # the peak density, bound 1e-12
    cfg = BeamSplitterConfig()
    grid, _, _, psi0 = scenarios._bs_setup(cfg)
    final = propagate(psi0, PotentialSpec.free(), cfg.dt, cfg.n_steps).final
    exact = np.abs(gaussian_oracle.beam_splitter_state(
        grid.axis(), cfg.dt * cfg.n_steps, cfg)) ** 2
    assert np.abs(final.density() - exact).max() <= 1e-12 * exact.max()


def test_sg_1d_default_components_match_closed_form():
    # the default Stern-Gerlach spinor under the linear spin-dependent
    # potential, each component against the closed-form packet under the
    # force +-gradient/2: measured 4.4e-14 (up) and 2.1e-13 (down) of the
    # peak density, bound 1e-12.  Strang splitting leaves the global phase
    # f^2 T dt^2 / 24 = 5.3e-6 on both, so densities are compared
    cfg = SternGerlachConfig()
    spinor0 = scenarios._sg_spinor(cfg, SpatialGrid.line(
        cfg.grid_n, -cfg.grid_half_width, cfg.grid_half_width))
    final = propagate(spinor0, PotentialSpec.linear_spin_dependent(
        cfg.gradient, cfg.offset), cfg.dt, cfg.n_steps).final
    up, down, _, _ = gaussian_oracle.sg_spinor(
        spinor0.grid.axis(), cfg.dt * cfg.n_steps, cfg)
    for got, want in ((final.up, up), (final.down, down)):
        exact = np.abs(want) ** 2
        assert np.abs(got.density() - exact).max() <= 1e-12 * exact.max()
