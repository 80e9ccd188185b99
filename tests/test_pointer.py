import math
from collections.abc import Sequence

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from bohmctx import ConfigError
from bohmctx.pointer import (BlockModel, CoordinateBlock, UNRESOLVED,
                             block_overlap,
                             classify_point, integrate_pointer_ensemble,
                             log_apparatus_overlap,
                             log_single_coordinate_overlap,
                             predictor_block_sum, predictor_system,
                             sample_model_equilibrium, system_overlap,
                             x_marginal_density)
from bohmctx.schedules import PiecewiseLinear
from bohmctx.trajectories import Trajectory
from conftest import assert_same_trajectories


def pointer_model(N, ramp, system_centers=None, amps=None, sigma=1.0,
                  apparatus_sigma=1.0, T=1.0):
    """The pointer model proper: a system coordinate on system_centers
    (both at 0 by default) and N apparatus coordinates displaced by +ramp
    in branch + and by -ramp in branch -."""
    zero = PiecewiseLinear.constant(0.0)
    return BlockModel(
        (CoordinateBlock("system", 1, sigma, system_centers or (zero, zero)),
         CoordinateBlock("apparatus", N, apparatus_sigma,
                         (ramp, ramp.scaled(-1.0)))),
        amps or (1 / math.sqrt(2), 1 / math.sqrt(2)), ("+", "-"), T)


def symmetric_model(N=4, a_max=2.0, sigma=1.0, T=1.0, amps=None):
    return pointer_model(N, PiecewiseLinear.ramp(0.0, 0.5, a_max), amps=amps,
                         sigma=sigma, apparatus_sigma=sigma, T=T)


def separated_model(N=4, x_gap=8.0, sigma=1.0):
    return pointer_model(N, PiecewiseLinear.ramp(0.0, 0.5, 2.0),
                         (PiecewiseLinear.constant(+x_gap / 2),
                          PiecewiseLinear.constant(-x_gap / 2)),
                         sigma=sigma, apparatus_sigma=sigma)


# -- branch weights ----------------------------------------------------------

def test_symmetric_weights_equal_at_origin():
    model = symmetric_model()
    assert model.log_weight_gap(model.block_means(np.zeros(5)), 0.0)[0] == 0.0


def test_dead_branch_zero_weight():
    # w_- = 0 while w_+ is positive and finite
    model = symmetric_model(amps=(1.0, 0.0))
    q = np.r_[0.4, np.ones(4)]
    assert model.log_weight_gap(model.block_means(q), 0.7)[0] == math.inf


def test_late_time_weight_ratio_oracle():
    # at the + branch centers, log(w+/w-) = N (2a)^2 / (2 sigma^2) minus the
    # system-factor gap; verified against an independent direct evaluation
    N, a, sigma = 6, 2.0, 1.0
    model = symmetric_model(N=N, a_max=a, sigma=sigma)
    q = np.r_[0.0, np.full(N, a)]
    gap = model.log_weight_gap(model.block_means(q), 1.0)[0]
    # direct: per coordinate, -(y-a)^2/(2s^2) + (y+a)^2/(2s^2) at y = a
    direct = N * ((2 * a) ** 2) / (2 * sigma ** 2)
    assert gap == pytest.approx(direct, rel=1e-12)
    assert gap >= N * a ** 2 / sigma ** 2 - 1e-9


# -- velocities ---------------------------------------------------------------

def test_single_branch_velocity_is_schedule_derivative():
    model = symmetric_model(N=3, amps=(1.0, 0.0))
    v = model.velocities(np.array([[0.7, 0.1, -2.0, 1.4]]), 0.25)[0]
    # during the ramp every apparatus coordinate moves at a' = 4; x is static
    assert v[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(v[1:], 4.0, atol=1e-12)


def test_symmetric_origin_zero_velocity():
    model = symmetric_model()
    v = model.velocities(np.zeros((1, 5)), 0.0)[0]
    assert np.abs(v).max() <= 1e-12


def test_deep_branch_velocity_matches_schedule():
    # configuration deep in the + branch at t = T: every velocity equals the
    # + schedule derivative (zero after the ramp) to relative 1e-6.
    # Cross-check with a finite difference of log Psi along each coordinate.
    N = 8
    model = symmetric_model(N=N)
    q = np.concatenate([[0.0], np.full(N, 2.0)])
    t = 0.25  # mid-ramp: schedules move at 4
    assert model.log_weight_gap(model.block_means(q), t)[0] >= math.log(1e12)
    v = model.velocities(q[None], t)[0]
    assert np.allclose(v[1:], 4.0, rtol=1e-6)

    def log_psi(qq):
        centers, vels = model.schedule_tables(np.array([t]))
        block_id = model.coordinate_blocks()
        inv4s2 = 1.0 / (4.0 * np.repeat([b.sigma for b in model.blocks],
                                         [b.count for b in model.blocks]) ** 2)
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
        if model.log_weight_gap(model.block_means(q), t)[0] < math.log(1e12):
            continue
        v_two = model.velocities(q[None], t)[0]
        v_one = solo.velocities(q[None], t)[0]
        scale = max(np.abs(v_one).max(), 1.0)
        assert np.abs(v_two - v_one).max() <= 1e-6 * scale


# -- overlaps -----------------------------------------------------------------

def test_overlap_at_time_zero():
    model = symmetric_model()
    assert math.exp(log_single_coordinate_overlap(0.0, model)) == 1.0
    assert block_overlap(0.0, model, "apparatus") == 1.0


def test_overlap_n1_equals_omega():
    model = symmetric_model(N=1)
    for t in (0.2, 0.5, 0.9):
        assert block_overlap(t, model, "apparatus") == pytest.approx(
            math.exp(log_single_coordinate_overlap(t, model)), rel=1e-15)


def test_overlap_exponent_law_exact():
    # asserted in log space, where the law holds even after the linear
    # value underflows (N = 64 late in the ramp)
    for N in (1, 2, 8, 64):
        model = symmetric_model(N=N)
        for t in (0.1, 0.3, 0.7, 1.0):
            log_om = log_single_coordinate_overlap(t, model)
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
    assert math.exp(log_single_coordinate_overlap(t, model)) \
        == pytest.approx(omega_quad, rel=1e-8)
    assert block_overlap(t, model, "apparatus") == pytest.approx(
        omega_quad ** 8, rel=1e-6, abs=1e-8)


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
    labels = [classify_point(p, 1.0, model) for p in res.final_points()]
    assert set(labels) == {"+"}


def test_classify_midpoint_unresolved():
    model = symmetric_model()
    assert classify_point(np.zeros(5), 1.0, model) == UNRESOLVED


def test_classify_threshold_sensitivity():
    model = symmetric_model(N=2)
    point = np.array([0.0, 0.8, 0.8])
    gap = model.log_weight_gap(model.block_means(point), 1.0)[0]
    loose = classify_point(point, 1.0, model, ratio_threshold=math.exp(gap) / 2)
    strict = classify_point(point, 1.0, model, ratio_threshold=math.exp(gap) * 2)
    assert loose == "+"
    assert strict == UNRESOLVED


def test_predictor_apparatus_sign():
    model = symmetric_model()
    y0 = np.array([[0.5, 0.1, 0.2, 0.3], [-0.5, -0.1, -0.2, -0.3],
                   np.zeros(4)])
    assert predictor_block_sum(y0.sum(axis=1), model, "apparatus") \
        == ["+", "-", UNRESOLVED]


def test_predictor_system_midpoint_tie():
    model = separated_model()
    assert predictor_system(np.array([0.0, 0.7, -0.7]), model) \
        == [UNRESOLVED, "+", "-"]


def test_unresolved_fraction_small_at_large_N():
    model = symmetric_model(N=64, a_max=4.0)
    init = sample_model_equilibrium(model, 300, seed=5)
    res = integrate_pointer_ensemble(model, init, 0.0025, record_stride=4)
    labels = [classify_point(p, 1.0, model) for p in res.final_points()]
    assert labels.count(UNRESOLVED) / 300 < 0.01


def test_apparatus_predictor_headline(tmp_path):
    model = symmetric_model(N=64, a_max=4.0)
    init = sample_model_equilibrium(model, 300, seed=6)
    res = integrate_pointer_ensemble(model, init, 0.0025, record_stride=4)
    final = res.final_points()
    app = predictor_block_sum(init[:, 1:].sum(axis=1), model, "apparatus")
    hits = total = 0
    for i in range(300):
        out = classify_point(final[i], 1.0, model)
        if out == UNRESOLVED:
            continue
        total += 1
        hits += out == app[i]
    assert total > 250
    assert hits / total >= 0.99


# -- trajectories -------------------------------------------------------------

def test_trajectories_sequence_rebuilds_each_trajectory():
    # the result is a read-only sequence whose items are bitwise the
    # trajectories that the whole (n, n_rec, C) shift table gives
    model = symmetric_model(N=3)
    init = sample_model_equilibrium(model, 7, seed=4)
    res = integrate_pointer_ensemble(model, init, 0.0025, record_stride=8)
    shift = res.means - res.means[:, :1]
    want = [Trajectory(res.times, res.initial[i] + shift[i][:, res.block_id],
                       node_regularization_events=int(res.node_counts[i]),
                       regularized_flags=res.reg_flags[i])
            for i in range(7)]
    assert isinstance(res, Sequence) and not isinstance(res, list)
    assert len(res) == 7
    assert_same_trajectories(list(res), want)
    assert_same_trajectories([res[-1], res[-7], res[np.int64(2)]],
                             [want[6], want[0], want[2]])
    for i in (7, -8):
        with pytest.raises(IndexError):
            res[i]
    with pytest.raises(TypeError):
        res[0] = want[0]


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
    final = res.final_points()
    sys_pred = predictor_system(init[:, 0], model)
    app = predictor_block_sum(init[:, 1:].sum(axis=1), model, "apparatus")
    s_hits = a_hits = total = 0
    for i in range(300):
        out = classify_point(final[i], 1.0, model)
        if out == UNRESOLVED:
            continue
        total += 1
        s_hits += out == sys_pred[i]
        a_hits += out == app[i]
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
        final = res.final_points()
        app = predictor_block_sum(init[:, 1:].sum(axis=1), model, "apparatus")
        sys_pred = predictor_system(init[:, 0], model)
        a_hits = s_hits = total = 0
        for i in range(300):
            out = classify_point(final[i], 1.0, model)
            if out == UNRESOLVED:
                continue
            total += 1
            a_hits += out == app[i]
            s_hits += out == sys_pred[i]
        accs.append(a_hits / total)
        sys_accs.append(s_hits / total)
    assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))
    assert accs[-1] >= 0.99
    assert all(abs(s - 0.5) <= 0.08 for s in sys_accs)


@pytest.mark.parametrize("bad, message", [
    (dict(N=-1), "block count"),
    (dict(apparatus_sigma=0.0), "block sigma"),
    (dict(sigma=0.0), "block sigma"),
    (dict(ramp=PiecewiseLinear.constant(1.0)), "coincide at t=0"),
    (dict(amps=(1.0, 1.0)), "amplitudes"),
], ids=["N_negative", "apparatus_sigma", "system_sigma", "ramp_start",
        "amplitudes"])
def test_pointer_model_config_rejects(bad, message):
    # CoordinateBlock checks the count and sigma, BlockModel the
    # amplitudes, and the sampler a ramp with a(0) != 0, whose apparatus
    # factors differ at t = 0
    good = dict(N=2, ramp=PiecewiseLinear.ramp(0.0, 0.5, 1.0), amps=(1.0, 0.0))
    assert sample_model_equilibrium(pointer_model(**good), 4, 0).shape == (4, 3)
    with pytest.raises(ConfigError, match=message):
        sample_model_equilibrium(pointer_model(**{**good, **bad}), 4, 0)


def test_x_marginal_density_matches_superposition_at_t0():
    # the density the sampler inverts: at t = 0 the apparatus factors
    # coincide, so the x-marginal is |c+ phi+ + c- phi-|^2 of the system
    # factors alone; here with moving packets and a relative amplitude phase
    sigma = 0.8
    model = pointer_model(3, PiecewiseLinear.ramp(0.0, 0.5, 2.0),
                          (PiecewiseLinear((-1.0, 1.0), (-0.5, 1.5)),
                           PiecewiseLinear((-1.0, 1.0), (0.7, -1.3))),
                          amps=(0.6, 0.8j), sigma=sigma)
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
    model = pointer_model(2, PiecewiseLinear.ramp(0.0, 0.5, 2.0),
                          (PiecewiseLinear.ramp(0.0, 1.0, -3.0, start=1.5),
                           PiecewiseLinear.ramp(0.0, 1.0, 3.0, start=-0.5)))
    assert predictor_system(np.array([0.5, 0.6, 0.4]), model) \
        == [UNRESOLVED, "-", "+"]
