import numpy as np
import pytest

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     PotentialSpec, SpatialGrid, SpinorField,
                     SupportGuardViolation, make_gaussian, norm, propagate)
from bohmctx.errors import PropagationBlowup
from bohmctx.fields import position_std

from conftest import free_width, harmonic_width


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
    x = line_grid.axis(0)
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
        (psi, PotentialSpec.sampled(0.5 * line_grid.axis(0) ** 2)),
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
    z = line_grid.axis(0)
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
    x = line_grid.axis(0)
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
    res = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 100,
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


def _split_step_reference(comps, pots, grid, dt, n_steps, hbar=1.0, m=1.0):
    """Strang steps one component at a time with numpy.fft."""
    kin = np.exp(-1j * hbar * grid.k_squared * dt / (2.0 * m))
    out = []
    for psi, v in zip(comps, pots):
        half = np.exp(-0.5j * v * dt / hbar)
        for _ in range(n_steps):
            psi = half * np.fft.ifftn(kin * np.fft.fftn(half * psi))
        out.append(psi)
    return out


def test_batched_propagation_matches_per_component_reference(line_grid):
    # 1D scalar in a harmonic trap
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(-1.0, 1.0, 1.5))
    v = 0.5 * line_grid.axis(0) ** 2
    res = propagate(psi, PotentialSpec.sampled(v), 0.01, 120)
    (ref,) = _split_step_reference([psi.values], [v], line_grid, 0.01, 120)
    assert np.abs(res.final.values - ref).max() <= 1e-12 * np.abs(ref).max()

    # 2D spinor under the linear spin-dependent potential
    grid = SpatialGrid.plane(64, (-12.0, 12.0), 96, (-16.0, 16.0))
    g = make_gaussian(grid, GaussianPacketSpec.make((0.0, 0.0), (2.0, 1.0),
                                                    (0.5, 0.0)))
    sp = SpinorField(ComplexField(grid, 0.6 * g.values),
                     ComplexField(grid, 0.8j * g.values))
    b, b0 = 3.0, 0.4
    res = propagate(sp, PotentialSpec.linear_spin_dependent(b, b0), 0.005, 80,
                    support_guard=False)
    base = 0.5 * (b0 + b * grid.meshes[-1])
    ref = _split_step_reference([sp.up.values, sp.down.values],
                                [-base, base], grid, 0.005, 80)
    for got, want in zip((res.final.up.values, res.final.down.values), ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_observer_replaces_frame_storage():
    # a 2D spinor run with an observer keeps no frames, yet makes the
    # observer calls of a stored-frame run and ends in the same state
    grid = SpatialGrid.plane(64, (-12.0, 12.0), 96, (-16.0, 16.0))
    g = make_gaussian(grid, GaussianPacketSpec.make((0.0, 0.0), (1.0, 1.0),
                                                    (0.0, 0.0)))
    sp = SpinorField(ComplexField(grid, 0.6 * g.values),
                     ComplexField(grid, 0.8 * g.values))
    pot = PotentialSpec.linear_spin_dependent(2.0)
    calls = []

    def observer(step, t, state):
        calls.append((step, t, state.up.values.copy(),
                      state.down.values.copy()))

    watched = propagate(sp, pot, 0.01, 40, frame_stride=10, observer=observer)
    stored = propagate(sp, pot, 0.01, 40, frame_stride=10)
    assert watched.frames == [] and watched.times is None
    assert [(s, t) for s, t, _, _ in calls] \
        == [(10 * i, 10 * i * 0.01) for i in range(5)]
    for (_, t, up, down), frame, t_frame in zip(calls, stored.frames,
                                                 stored.times):
        assert t == t_frame
        assert np.array_equal(up, frame.up.values)
        assert np.array_equal(down, frame.down.values)
    assert np.array_equal(watched.final.up.values, stored.final.up.values)
    assert np.array_equal(watched.final.down.values, stored.final.down.values)
