import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from bohmctx import ConfigError
from bohmctx.pointer import (BlockModel, Branch, ConfigPoint,
                             CoordinateBlock, PointerModelConfig,
                             UNRESOLVED, apparatus_overlap,
                             branch_local_log_weight, branch_local_weight,
                             classify_point, classify_outcome,
                             integrate_pointer_ensemble,
                             log_apparatus_overlap, pointer_velocity,
                             predictor_apparatus, predictor_system,
                             sample_model_equilibrium,
                             single_coordinate_overlap, system_overlap,
                             x_marginal_density)
from bohmctx.schedules import PiecewiseLinear
from bohmctx.trajectories import Trajectory


def symmetric_model(N=4, a_max=2.0, sigma=1.0, T=1.0, amps=None):
    amps = amps or (1 / math.sqrt(2), 1 / math.sqrt(2))
    branches = (
        Branch("+", amps[0], PiecewiseLinear.constant(0.0), sigma, +1.0),
        Branch("-", amps[1], PiecewiseLinear.constant(0.0), sigma, -1.0),
    )
    return PointerModelConfig(N=N, apparatus_sigma=sigma,
                              ramp=PiecewiseLinear.ramp(0.0, 0.5, a_max),
                              branches=branches, T=T)


def separated_model(N=4, x_gap=8.0, sigma=1.0):
    branches = (
        Branch("+", 1 / math.sqrt(2), PiecewiseLinear.constant(+x_gap / 2),
               sigma, +1.0),
        Branch("-", 1 / math.sqrt(2), PiecewiseLinear.constant(-x_gap / 2),
               sigma, -1.0),
    )
    return PointerModelConfig(N=N, apparatus_sigma=sigma,
                              ramp=PiecewiseLinear.ramp(0.0, 0.5, 2.0),
                              branches=branches, T=1.0)


# -- branch weights ----------------------------------------------------------

def test_symmetric_weights_equal_at_origin():
    model = symmetric_model()
    w = branch_local_weight(ConfigPoint(0.0, np.zeros(4)), 0.0, model)
    assert w[0] == w[1]
    assert w[0] > 0


def test_dead_branch_zero_weight():
    model = symmetric_model(amps=(1.0, 0.0))
    w = branch_local_weight(ConfigPoint(0.4, np.ones(4)), 0.7, model)
    assert w[1] == 0.0
    assert np.all(np.isfinite(w))


def test_late_time_weight_ratio_oracle():
    # at the + branch centers, log(w+/w-) = N (2a)^2 / (2 sigma^2) minus the
    # system-factor gap; verified against an independent direct evaluation
    N, a, sigma = 6, 2.0, 1.0
    model = symmetric_model(N=N, a_max=a, sigma=sigma)
    cfg_pt = ConfigPoint(0.0, np.full(N, a))
    lw = branch_local_log_weight(cfg_pt, 1.0, model)
    gap = lw[0] - lw[1]
    # direct: per coordinate, -(y-a)^2/(2s^2) + (y+a)^2/(2s^2) at y = a
    direct = N * ((2 * a) ** 2) / (2 * sigma ** 2)
    assert gap == pytest.approx(direct, rel=1e-12)
    assert gap >= N * a ** 2 / sigma ** 2 - 1e-9


# -- velocities ---------------------------------------------------------------

def test_single_branch_velocity_is_schedule_derivative():
    model = symmetric_model(N=3, amps=(1.0, 0.0))
    v = pointer_velocity(ConfigPoint(0.7, np.array([0.1, -2.0, 1.4])), 0.25,
                         model)
    # during the ramp every apparatus coordinate moves at a' = 4; x is static
    assert v[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(v[1:], 4.0, atol=1e-12)


def test_symmetric_origin_zero_velocity():
    model = symmetric_model()
    v = pointer_velocity(ConfigPoint(0.0, np.zeros(4)), 0.0, model)
    assert np.abs(v).max() <= 1e-12


def test_deep_branch_velocity_matches_schedule():
    # configuration deep in the + branch at t = T: every velocity equals the
    # + schedule derivative (zero after the ramp) to relative 1e-6.
    # Cross-check with a finite difference of log Psi along each coordinate.
    N = 8
    model = symmetric_model(N=N)
    q = np.concatenate([[0.0], np.full(N, 2.0)])
    t = 0.25  # mid-ramp: schedules move at 4
    lw = branch_local_log_weight(ConfigPoint(q[0], q[1:]), t, model)
    assert lw[0] - lw[1] >= math.log(1e12)
    v = pointer_velocity(ConfigPoint(q[0], q[1:]), t, model)
    assert np.allclose(v[1:], 4.0, rtol=1e-6)

    def log_psi(qq):
        centers, vels = model.schedule_tables(np.array([t]))
        block_id = model.coordinate_blocks()
        sig, inv4s2, _ = model._per_coord()
        total = 0.0 + 0.0j
        for b, amp in enumerate(model.amplitudes):
            d = qq - centers[0, b, block_id]
            lam = math.log(abs(amp)) - np.sum(d * d * inv4s2)
            th = np.sum(vels[0, b, block_id] * d)
            total += np.exp(lam + 1j * th)
        return np.log(total)

    h = 1e-7
    for c in range(len(q)):
        qp, qm = q.copy(), q.copy()
        qp[c] += h
        qm[c] -= h
        fd = (log_psi(qp) - log_psi(qm)) / (2 * h)
        assert v[c] == pytest.approx(fd.imag, abs=1e-5)


def test_empty_wave_invariance():
    # once one branch dominates by >= 1e12 in weight, dropping the other
    # changes no velocity by more than 1e-6 relative
    N = 6
    model = symmetric_model(N=N)
    solo = symmetric_model(N=N, amps=(1.0, 0.0))
    t = 0.4
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = np.concatenate([[rng.normal(0, 1)],
                            rng.normal(1.6 * 0.8 * 4 * t, 0.5, N)])
        lw = branch_local_log_weight(ConfigPoint(q[0], q[1:]), t, model)
        if lw[0] - lw[1] < math.log(1e12):
            continue
        v_two = pointer_velocity(ConfigPoint(q[0], q[1:]), t, model)
        v_one = pointer_velocity(ConfigPoint(q[0], q[1:]), t, solo)
        scale = max(np.abs(v_one).max(), 1.0)
        assert np.abs(v_two - v_one).max() <= 1e-6 * scale


# -- overlaps -----------------------------------------------------------------

def test_overlap_at_time_zero():
    model = symmetric_model()
    assert single_coordinate_overlap(0.0, model) == 1.0
    assert apparatus_overlap(0.0, model) == 1.0


def test_overlap_n1_equals_omega():
    model = symmetric_model(N=1)
    for t in (0.2, 0.5, 0.9):
        assert apparatus_overlap(t, model) == pytest.approx(
            single_coordinate_overlap(t, model), rel=1e-15)


def test_overlap_exponent_law_exact():
    # asserted in log space, where the law holds even after the linear
    # value underflows (N = 64 late in the ramp)
    for N in (1, 2, 8, 64):
        model = symmetric_model(N=N)
        for t in (0.1, 0.3, 0.7, 1.0):
            log_om = math.log(single_coordinate_overlap(t, model))
            assert log_apparatus_overlap(t, model) \
                == pytest.approx(N * log_om, rel=1e-12, abs=1e-12)


def test_apparatus_overlap_quadrature_oracle():
    # N = 8, displacement a = sigma, velocity phases on: the model value
    # exp(8 log omega) equals the 8-fold power of the numerically integrated
    # single-coordinate overlap integral.
    sigma = 1.0
    model = symmetric_model(N=8, a_max=1.0, sigma=sigma, T=1.0)
    t = 0.25  # mid-ramp: a = 0.5, adot = 2, so phases contribute
    a = 0.5
    k = 2.0  # m adot / hbar per branch, opposite signs

    def g(q, center, kvec):
        amp = (2 * np.pi * sigma ** 2) ** -0.25
        return amp * np.exp(-(q - center) ** 2 / (4 * sigma ** 2)
                            + 1j * kvec * (q - center))

    re, _ = quad(lambda q: (np.conj(g(q, +a, +k)) * g(q, -a, -k)).real,
                 -30, 30, limit=200)
    im, _ = quad(lambda q: (np.conj(g(q, +a, +k)) * g(q, -a, -k)).imag,
                 -30, 30, limit=200)
    omega_quad = abs(re + 1j * im)
    assert single_coordinate_overlap(t, model) == pytest.approx(omega_quad,
                                                                rel=1e-8)
    assert apparatus_overlap(t, model) == pytest.approx(omega_quad ** 8,
                                                        rel=1e-6, abs=1e-8)


def test_system_overlap_separated():
    model = separated_model(x_gap=4.0)
    # centers +-2, sigma 1: |<phi+|phi->| = exp(-(4)^2/8) = exp(-2)
    assert system_overlap(0.5, model) == pytest.approx(math.exp(-2.0),
                                                       rel=1e-12)


# -- classification and predictors -------------------------------------------

def test_classify_dead_branch_always_plus():
    model = symmetric_model(amps=(1.0, 0.0))
    init = sample_model_equilibrium(model, 50, seed=3)
    res = integrate_pointer_ensemble(model, init, 0.0025)
    labels = [classify_point(res.positions[i, -1], 1.0, model)
              for i in range(50)]
    assert set(labels) == {"+"}


def test_classify_midpoint_unresolved():
    model = symmetric_model()
    traj = Trajectory(times=np.array([0.0, 1.0]),
                      points=np.zeros((2, 5)))
    assert classify_outcome(traj, model) == UNRESOLVED


def test_classify_threshold_sensitivity():
    model = symmetric_model(N=2)
    point = np.array([0.0, 0.8, 0.8])
    lw = branch_local_log_weight(ConfigPoint(point[0], point[1:]), 1.0, model)
    gap = lw[0] - lw[1]
    loose = classify_point(point, 1.0, model, ratio_threshold=math.exp(gap) / 2)
    strict = classify_point(point, 1.0, model, ratio_threshold=math.exp(gap) * 2)
    assert loose == "+"
    assert strict == UNRESOLVED


def test_predictor_apparatus_sign():
    model = symmetric_model()
    assert predictor_apparatus(np.array([0.5, 0.1, 0.2, 0.3]), model) == "+"
    assert predictor_apparatus(np.array([-0.5, -0.1, -0.2, -0.3]), model) == "-"
    assert predictor_apparatus(np.zeros(4), model) == UNRESOLVED


def test_predictor_system_midpoint_tie():
    model = separated_model()
    assert predictor_system(0.0, model) == UNRESOLVED
    assert predictor_system(0.7, model) == "+"
    assert predictor_system(-0.7, model) == "-"


def test_unresolved_fraction_small_at_large_N():
    model = symmetric_model(N=64, a_max=4.0)
    init = sample_model_equilibrium(model, 300, seed=5)
    res = integrate_pointer_ensemble(model, init, 0.0025, record_stride=4)
    labels = [classify_point(res.positions[i, -1], 1.0, model)
              for i in range(300)]
    assert labels.count(UNRESOLVED) / 300 < 0.01


def test_apparatus_predictor_headline(tmp_path):
    model = symmetric_model(N=64, a_max=4.0)
    init = sample_model_equilibrium(model, 300, seed=6)
    res = integrate_pointer_ensemble(model, init, 0.0025, record_stride=4)
    hits = total = 0
    for i in range(300):
        out = classify_point(res.positions[i, -1], 1.0, model)
        if out == UNRESOLVED:
            continue
        total += 1
        hits += out == predictor_apparatus(init[i, 1:], model)
    assert total > 250
    assert hits / total >= 0.99


# -- sampling and marginals ---------------------------------------------------

def test_model_sampling_deterministic():
    model = symmetric_model()
    a = sample_model_equilibrium(model, 20, seed=1)
    b = sample_model_equilibrium(model, 20, seed=1)
    assert np.array_equal(a, b)


def test_model_sampling_marginals():
    model = separated_model(N=2, x_gap=8.0)
    init = sample_model_equilibrium(model, 2000, seed=8)
    # apparatus coordinates are exact unit normals at t=0
    stat = kstest(init[:, 1], "norm").statistic
    assert stat < 0.05
    # x marginal is the two-bump mixture
    xs, dens = x_marginal_density(model, 0.0)
    dx = xs[1] - xs[0]
    edges = np.concatenate([xs - dx / 2, [xs[-1] + dx / 2]])
    cum = np.concatenate([[0.0], np.cumsum(dens * dx)])
    cum /= cum[-1]
    stat_x = kstest(init[:, 0], lambda q: np.interp(q, edges, cum)).statistic
    assert stat_x < 0.05


def test_x_marginal_density_normalized():
    for model in (symmetric_model(), separated_model()):
        xs, dens = x_marginal_density(model, 0.7)
        assert np.all(dens >= 0)
        assert np.sum(dens) * (xs[1] - xs[0]) == pytest.approx(1.0, abs=1e-9)


def test_pre_separated_regime_inversion():
    # disjoint system branches: the system coordinate decides, the apparatus
    # predictor falls to a coin flip
    model = separated_model(N=8, x_gap=8.0)
    init = sample_model_equilibrium(model, 300, seed=9)
    res = integrate_pointer_ensemble(model, init, 0.0025, record_stride=4)
    s_hits = a_hits = total = 0
    for i in range(300):
        out = classify_point(res.positions[i, -1], 1.0, model)
        if out == UNRESOLVED:
            continue
        total += 1
        s_hits += out == predictor_system(init[i, 0], model)
        a_hits += out == predictor_apparatus(init[i, 1:], model)
    assert total == 300
    assert s_hits / total == 1.0
    assert abs(a_hits / total - 0.5) <= 0.08


def test_monotone_apparatus_dominance():
    # fully overlapping system branches: apparatus accuracy non-decreasing
    # in N and high at N = 64; system predictor stays a coin flip
    accs = []
    sys_accs = []
    for N in (1, 4, 16, 64):
        model = symmetric_model(N=N, a_max=4.0)
        init = sample_model_equilibrium(model, 300, seed=10)
        res = integrate_pointer_ensemble(model, init, 0.0025, record_stride=4)
        a_hits = s_hits = total = 0
        for i in range(300):
            out = classify_point(res.positions[i, -1], 1.0, model)
            if out == UNRESOLVED:
                continue
            total += 1
            a_hits += out == predictor_apparatus(init[i, 1:], model)
            s_hits += out == predictor_system(init[i, 0], model)
        accs.append(a_hits / total)
        sys_accs.append(s_hits / total)
    assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))
    assert accs[-1] >= 0.99
    assert all(abs(s - 0.5) <= 0.08 for s in sys_accs)


def _pointer_model(N=2, apparatus_sigma=1.0, ramp=None, amps=(1.0, 0.0),
                   system_sigmas=(1.0, 1.0), signs=(+1.0, -1.0)):
    branches = tuple(Branch(label, amp, PiecewiseLinear.constant(0.0), s, e)
                     for label, amp, s, e
                     in zip("+-", amps, system_sigmas, signs))
    return PointerModelConfig(
        N=N, apparatus_sigma=apparatus_sigma,
        ramp=ramp or PiecewiseLinear.ramp(0.0, 0.5, 1.0),
        branches=branches, T=1.0)


@pytest.mark.parametrize("bad", [
    dict(N=-1),
    dict(apparatus_sigma=0.0),
    dict(system_sigmas=(0.0, 0.0)),
    dict(ramp=PiecewiseLinear.constant(1.0)),
    dict(system_sigmas=(1.0, 2.0)),
    dict(amps=(1.0, 1.0)),
    dict(signs=(+1.0, 0.5)),
], ids=["N_negative", "apparatus_sigma", "system_sigma", "ramp_start",
        "one_system_sigma", "amplitudes", "apparatus_sign"])
def test_pointer_model_config_rejects(bad):
    assert isinstance(_pointer_model(), BlockModel)
    with pytest.raises(ConfigError):
        _pointer_model(**bad)


def test_x_marginal_density_matches_superposition_at_t0():
    # the density the sampler inverts: at t = 0 the apparatus factors
    # coincide, so the x-marginal is |c+ phi+ + c- phi-|^2 of the system
    # factors alone; here with moving packets and a relative amplitude phase
    sigma = 0.8
    branches = (
        Branch("+", 0.6, PiecewiseLinear((-1.0, 1.0), (-0.5, 1.5)), sigma,
               +1.0),
        Branch("-", 0.8j, PiecewiseLinear((-1.0, 1.0), (0.7, -1.3)), sigma,
               -1.0),
    )
    model = PointerModelConfig(N=3, apparatus_sigma=1.0,
                               ramp=PiecewiseLinear.ramp(0.0, 0.5, 2.0),
                               branches=branches, T=1.0)
    xs, dens = x_marginal_density(model, 0.0)
    assert xs[0] == pytest.approx(-0.3 - 10 * sigma)
    psi = np.zeros(xs.shape, dtype=complex)
    for amp, c, v in ((0.6, 0.5, 1.0), (0.8j, -0.3, -1.0)):
        d = xs - c
        psi += amp * (2 * np.pi * sigma ** 2) ** -0.25 \
            * np.exp(-d * d / (4 * sigma ** 2) + 1j * v * d)
    ref = np.abs(psi) ** 2
    ref /= ref.sum() * (xs[1] - xs[0])
    assert np.abs(dens - ref).max() <= 1e-13 * ref.max()


def test_x_marginal_density_matches_quadrature_over_apparatus():
    # one apparatus coordinate whose branch factors move apart with unequal
    # momenta, so the cross term carries the overlap magnitude and its
    # phase: the x-marginal against |Psi(x, y)|^2 summed over a fine y grid
    sigma, t = 0.8, 0.5
    model = BlockModel(
        (CoordinateBlock("system", 1, sigma,
                         (PiecewiseLinear((-1.0, 1.0), (-0.5, 1.5)),
                          PiecewiseLinear((-1.0, 1.0), (0.7, -1.3)))),
         CoordinateBlock("apparatus", 1, 1.0,
                         (PiecewiseLinear((0.0, 2.0), (0.0, 3.0)),
                          PiecewiseLinear((0.0, 2.0), (0.0, 1.0))))),
        (0.6, 0.8j), ("+", "-"), 2.0)
    xs, dens = x_marginal_density(model, t, n_points=512)
    ys, dy = np.linspace(-12.0, 14.0, 1041, retstep=True)

    def gauss(q, center, velocity, s):
        d = q - center
        return (2 * np.pi * s ** 2) ** -0.25 \
            * np.exp(-d * d / (4 * s ** 2) + 1j * velocity * d)

    # at t = 0.5: system centers 1.0 / -0.8 moving at +1 / -1, apparatus
    # centers 0.75 / 0.25 moving at 1.5 / 0.5
    psi = (0.6 * gauss(xs, 1.0, 1.0, sigma)[:, None]
           * gauss(ys, 0.75, 1.5, 1.0)[None, :]
           + 0.8j * gauss(xs, -0.8, -1.0, sigma)[:, None]
           * gauss(ys, 0.25, 0.5, 1.0)[None, :])
    ref = np.sum(np.abs(psi) ** 2, axis=1) * dy
    ref /= ref.sum() * (xs[1] - xs[0])
    assert np.abs(dens - ref).max() <= 1e-10 * ref.max()


def test_predictor_system_inverted_schedules():
    # the + system packet starts above the midpoint 0.5 and ends below the
    # - packet, so a start above the midpoint predicts "-"
    branches = (
        Branch("+", 1 / math.sqrt(2),
               PiecewiseLinear.ramp(0.0, 1.0, -3.0, start=1.5), 1.0, +1.0),
        Branch("-", 1 / math.sqrt(2),
               PiecewiseLinear.ramp(0.0, 1.0, 3.0, start=-0.5), 1.0, -1.0),
    )
    model = PointerModelConfig(N=2, apparatus_sigma=1.0,
                               ramp=PiecewiseLinear.ramp(0.0, 0.5, 2.0),
                               branches=branches, T=1.0)
    assert predictor_system(0.5, model) == UNRESOLVED
    assert predictor_system(0.6, model) == "-"
    assert predictor_system(0.4, model) == "+"
