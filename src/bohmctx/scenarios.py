"""End-to-end experiment drivers.  Each driver consumes its typed config,
runs propagation / trajectory integration / classification, and returns an
EnsembleReport.  Everything is deterministic given (config, seed).

Outcome labels: the beam splitter uses "D1" (right detector) and "D2";
spin scenarios use "+" and "-" for spin projection +hbar/2 / -hbar/2 along
the quantization axis; pointer scenarios use their branch labels "+"/"-".
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis, pointer
from .analysis import born_rule_ks, grid_cdf
from .config import (AncillaChainConfig, BeamSplitterConfig, OpticalSGConfig,
                     ScenarioConfig, SternGerlachConfig)
from .errors import ConfigError, SeparationError
from .fields import (ComplexField, SpinorField, make_gaussian, norm, overlap,
                     spatial_overlap, GaussianPacketSpec)
from .grids import SpatialGrid
# build_stacks and integrate_over_stacks are not called here; they stay
# importable from this module because perfbench/tracer.py wraps them
from .guidance import (ProductTables, VelocityModel, build_stacks,
                       current_and_density, _interp, _spectral_gradient)
from .pointer import (BlockModel, Branch, CoordinateBlock, PointerModelConfig,
                      UNRESOLVED, classify_point, integrate_pointer_ensemble,
                      labels_from_log_ratio, predictor_block_sum,
                      predictor_system, sample_model_equilibrium)
from .propagation import (PotentialSpec, _boundary_band_mask,
                          check_support_guard, propagate)
from .report import EnsembleReport
from .sampling import sample_equilibrium
from .schedules import PiecewiseLinear
from .trajectories import (FrameStream, integrate_over_stacks,
                           integrate_product_flows)
from .units import UnitsConfig, DEFAULT_UNITS


def _maybe_ks(endpoints, cdf):
    """Equivariance KS when the ensemble is large enough, else None."""
    if len(endpoints) < analysis.MIN_KS_SAMPLES:
        return None
    return born_rule_ks(endpoints, cdf)


def run_scenario(cfg: ScenarioConfig, units: UnitsConfig = DEFAULT_UNITS
                 ) -> EnsembleReport:
    cfg.validate()
    if isinstance(cfg, BeamSplitterConfig):
        return run_beam_splitter(cfg, units)
    if isinstance(cfg, SternGerlachConfig):
        return run_stern_gerlach(cfg, units)
    if isinstance(cfg, OpticalSGConfig):
        return run_optical_sg(cfg, units)
    if isinstance(cfg, AncillaChainConfig):
        return run_ancilla_chain(cfg, units)
    raise ConfigError(f"unknown scenario config {type(cfg)!r}")


# ---------------------------------------------------------------------------
# Beam splitter: superposition of counter-propagating packets, free flight
# until the packets are disjoint, then a pointer-model detector stage.
# ---------------------------------------------------------------------------

def run_beam_splitter(cfg: BeamSplitterConfig, units: UnitsConfig = DEFAULT_UNITS
                      ) -> EnsembleReport:
    cfg.validate()
    k = cfg.splitter_momentum
    a_r, a_l = cfg.amplitude_right, cfg.amplitude_left
    grid, plus, minus, psi0 = _bs_setup(cfg, units)
    # the branch pair first: its separation, and the record and detector
    # checks that depend on it, fail before the superposition propagates
    branches = _bs_branch_series(cfg, plus, minus, units)
    times = _frame_times(cfg)
    sep_idx = branches.sep_idx
    t_sep = float(times[sep_idx])
    t_end = float(times[-1])

    _, stride = cfg.trajectory_steps()
    rec_dt = cfg.dt_traj * stride
    sep_rec = int(round((t_sep - times[0]) / rec_dt))
    if abs(sep_rec * rec_dt + times[0] - t_sep) > 1e-9:
        raise ConfigError("record grid must contain the separation time")

    # detector stage: two-branch pointer model on [t_sep, t_end], system
    # factors tracking the separated packets (rigid width), detector
    # coordinates sampled fresh around zero displacement.
    det_tau = t_end - t_sep
    c_sep = float(branches.center_plus[sep_idx])
    sig_sep = float(branches.width[sep_idx])
    det_model = BlockModel(
        blocks=(
            CoordinateBlock("system", 1, sig_sep,
                            (PiecewiseLinear((-1.0, det_tau),
                                             (c_sep - k, c_sep + k * det_tau)),
                             PiecewiseLinear((-1.0, det_tau),
                                             (-c_sep + k, -c_sep - k * det_tau)))),
            CoordinateBlock("apparatus", cfg.detector_count, cfg.detector_sigma,
                            (PiecewiseLinear.ramp(0.0, cfg.detector_ramp_duration,
                                                  cfg.detector_displacement),
                             PiecewiseLinear.ramp(0.0, cfg.detector_ramp_duration,
                                                  -cfg.detector_displacement))),
        ),
        amplitudes=(complex(a_r), complex(a_l)),
        labels=("D1", "D2"), T=det_tau, units=units)
    if det_tau <= cfg.detector_ramp_duration:
        raise ConfigError("detector ramp does not fit between separation and T")

    sample = sample_equilibrium(psi0, cfg.n, cfg.seed)
    x0 = sample.positions[:, 0]
    median = _density_median(grid, psi0.density())
    final, trajs = _bs_propagate(cfg, psi0, sample.positions, stride, units)
    x_at_sep = np.array([tr.points[sep_rec, 0] for tr in trajs])

    # outcome: the detector whose branch contains the trajectory at t_sep
    outcomes = _dominant_density_labels(
        grid, branches.rho_plus * a_r ** 2,
        branches.rho_minus * a_l ** 2, x_at_sep[:, None],
        ("D1", "D2"), cfg.ratio_threshold)

    y0 = np.empty((cfg.n, cfg.detector_count))
    for i in range(cfg.n):
        rng = np.random.default_rng((int(cfg.seed), int(i), 1))
        y0[i] = cfg.detector_sigma * rng.standard_normal(cfg.detector_count)
    det_init = np.column_stack([x_at_sep, y0])
    det_res = integrate_pointer_ensemble(det_model, det_init, cfg.dt_traj,
                                         record_stride=stride)
    det_labels = [classify_point(p, det_tau, det_model, cfg.ratio_threshold)
                  for p in det_res.final_points()]
    agree = [o == d for o, d in zip(outcomes, det_labels)
             if o != UNRESOLVED and d != UNRESOLVED]

    predictions = {
        "system": ["D1" if v > median else ("D2" if v < median else UNRESOLVED)
                   for v in x0],
        "apparatus": [predictor_block_sum(y0[i], det_model, "apparatus")
                      for i in range(cfg.n)],
    }

    # audits: 1D no-crossing over the grid stage, no branch jumps after t_sep
    crossings = analysis.audit_trajectories(trajs)
    jumps = 0
    for tr in trajs:
        seg = np.sign(tr.points[sep_rec:, 0])
        seg = seg[seg != 0]
        if len(seg) and np.any(seg != seg[0]):
            jumps += 1
    ks = _maybe_ks(np.array([tr.points[-1, 0] for tr in trajs]),
                   grid_cdf(grid.axis(0), final.density(), grid.dx[0]))

    node_counts = np.array([tr.node_regularization_events for tr in trajs]) \
        + det_res.node_counts
    failed = sum(1 for tr in trajs if tr.failed)
    report = EnsembleReport(
        scenario="beam_splitter", seed=cfg.seed, n_runs=cfg.n,
        outcomes=outcomes, predictions=predictions,
        initial_system=x0,
        initial_block_sums={"apparatus": y0.sum(axis=1)},
        overlap_series={"t": times, "system_spatial": branches.bhattacharyya,
                        "system_inner": branches.inner,
                        "detector": pointer.block_overlap(
                            np.maximum(times - t_sep, 0.0), det_model,
                            "apparatus")},
        node_counts=node_counts,
        audits={"crossing_violations": crossings,
                "branch_jumps_after_separation": jumps,
                "detector_agreement_fraction":
                    (sum(agree) / len(agree)) if agree else 1.0,
                "equivariance_ks": ks,
                "separation_time": t_sep,
                "initial_median": median,
                "failed_trajectories": failed},
    )
    report.artifacts["trajectories"] = trajs
    report.artifacts["x_at_separation"] = x_at_sep
    return report


def _bs_setup(cfg: BeamSplitterConfig, units: UnitsConfig) -> tuple:
    """Grid, right- and left-moving packets and their normalized
    superposition psi0 = a_r plus + a_l minus: the setup shared by the run
    and born-check."""
    grid = SpatialGrid.line(cfg.grid_n, -cfg.grid_half_width, cfg.grid_half_width)
    k = cfg.splitter_momentum
    plus = make_gaussian(grid, GaussianPacketSpec.make(0.0, cfg.sigma, +k), units)
    minus = make_gaussian(grid, GaussianPacketSpec.make(0.0, cfg.sigma, -k), units)
    vals = cfg.amplitude_right * plus.values + cfg.amplitude_left * minus.values
    psi0 = ComplexField(grid, vals / norm(ComplexField(grid, vals)))
    return grid, plus, minus, psi0


def _bs_propagate(cfg: BeamSplitterConfig, psi0: ComplexField,
                  positions: np.ndarray, record_stride: int,
                  units: UnitsConfig) -> tuple:
    """Final state of the free propagation of psi0 and the trajectories
    from positions under its SCALAR flow, integrated while it propagates."""
    stream, feed = _stream_observer(cfg, psi0.grid, positions, record_stride,
                                    VelocityModel.SCALAR, units)
    final = propagate(psi0, PotentialSpec.free(), cfg.dt, cfg.n_steps, units,
                      frame_stride=cfg.frame_stride, observer=feed).final
    return final, stream.flow.trajectories


@dataclass
class _BranchSeries:
    """Per-frame series of the two beam-splitter branch packets and their
    densities at the first separated frame."""
    bhattacharyya: np.ndarray  # spatial_overlap(plus, minus)
    inner: np.ndarray          # |<plus|minus>|
    center_plus: np.ndarray
    center_minus: np.ndarray
    width: np.ndarray          # of the plus packet
    sep_idx: int = -1
    rho_plus: np.ndarray | None = None
    rho_minus: np.ndarray | None = None


def _bs_branch_series(cfg: BeamSplitterConfig, plus: ComplexField,
                      minus: ComplexField, units: UnitsConfig) -> _BranchSeries:
    """Propagate both branch packets in one batched pair and record their
    overlaps, centres and width per frame.  Separation is the first frame
    where the centres are separation_sigmas widths apart and the
    Bhattacharyya coefficient is below spatial_overlap_threshold.

    Each branch is checked by the support guard on its own: the guard on
    the summed density would compare a leaking branch against the other
    branch's peak as well."""
    n_frames = cfg.n_steps // cfg.frame_stride + 1
    series = _BranchSeries(*(np.empty(n_frames) for _ in range(5)))
    band = _boundary_band_mask(plus.grid)
    x = plus.grid.axis(0)

    def observer(step, t, pair):
        check_support_guard(pair.up, step, band)
        check_support_guard(pair.down, step, band)
        f = step // cfg.frame_stride
        rho_p, rho_m = pair.up.density(), pair.down.density()
        series.bhattacharyya[f] = spatial_overlap(pair.up, pair.down)
        series.inner[f] = abs(overlap(pair.up, pair.down))
        series.center_plus[f], series.width[f] = _center_width(rho_p, x)
        series.center_minus[f], _ = _center_width(rho_m, x)
        if (series.sep_idx < 0
                and abs(series.center_plus[f] - series.center_minus[f])
                >= cfg.separation_sigmas * series.width[f]
                and series.bhattacharyya[f] < cfg.spatial_overlap_threshold):
            series.sep_idx, series.rho_plus, series.rho_minus = f, rho_p, rho_m

    propagate(SpinorField(plus, minus), PotentialSpec.free(), cfg.dt,
              cfg.n_steps, units, frame_stride=cfg.frame_stride,
              support_guard=False, observer=observer)
    if series.sep_idx < 0:
        raise SeparationError(
            "packets never satisfied the separation and overlap thresholds; "
            "increase flight time or momentum")
    return series


def _frame_times(cfg) -> np.ndarray:
    """Times of the frames of a propagation of cfg, one every
    cfg.frame_stride steps, as `propagate` passes them to its observer."""
    return np.arange(cfg.n_steps // cfg.frame_stride + 1) \
        * cfg.frame_stride * cfg.dt


def _stream_observer(cfg, grid: SpatialGrid, positions: np.ndarray,
                     record_stride: int, model: str, units: UnitsConfig
                     ) -> tuple[FrameStream, Callable]:
    """A FrameStream that integrates the ensemble from positions over the
    frames of a propagation of cfg, and the `propagate` observer that
    feeds it each frame's current_and_density.  The observer returns the
    frame index."""
    stream = FrameStream(grid, _frame_times(cfg), positions, cfg.dt_traj,
                         record_stride)

    def feed(step, t, state) -> int:
        f = step // cfg.frame_stride
        rho, g = current_and_density(state, model, units)
        stream.add(f, rho, g)
        return f

    return stream, feed


def _center_width(rho: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of the density rho sampled on x."""
    w = rho / rho.sum()
    mu = float(np.sum(w * x))
    return mu, math.sqrt(float(np.sum(w * (x - mu) ** 2)))


def _branch_overlap(state: SpinorField) -> float:
    """|<up|down>| over the product of the component norms."""
    return abs(overlap(state.up, state.down)) \
        / max(norm(state.up) * norm(state.down), 1e-300)


def _density_median(grid: SpatialGrid, rho: np.ndarray) -> float:
    """Median of the centered-cell staircase, matching the sampler."""
    masses = rho * grid.dx[0]
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    cdf /= cdf[-1]
    half = 0.5 * grid.dx[0]
    edges = np.concatenate([grid.axis(0) - half, [grid.x_max[0] - half]])
    return float(np.interp(0.5, cdf, edges))


def _dominant_density_labels(grid: SpatialGrid, rho_a: np.ndarray,
                             rho_b: np.ndarray, points: np.ndarray,
                             labels: tuple[str, str],
                             ratio_threshold: float) -> list[str]:
    """labels[0] or labels[1] by which branch density dominates at each
    point (m, dims) by at least ratio_threshold, else "unresolved"."""
    log_a = np.log(np.maximum(_interp(grid, rho_a, points), 1e-300))
    log_b = np.log(np.maximum(_interp(grid, rho_b, points), 1e-300))
    return labels_from_log_ratio(log_a - log_b, labels, ratio_threshold)


# ---------------------------------------------------------------------------
# Stern-Gerlach: spinor packet under opposite linear potentials; outcome is
# the spin of the dominant component at the trajectory endpoint.  The report
# carries the gradient-inverted twin run on identical initial positions.
# ---------------------------------------------------------------------------

def run_stern_gerlach(cfg: SternGerlachConfig, units: UnitsConfig = DEFAULT_UNITS
                      ) -> EnsembleReport:
    cfg.validate()
    if cfg.gordon:
        return _run_stern_gerlach_2d(cfg, units)
    return _run_stern_gerlach_1d(cfg, units)


def _sg_initial_1d(cfg, units) -> SpinorField:
    grid = SpatialGrid.line(cfg.grid_n, -cfg.grid_half_width, cfg.grid_half_width)
    g = make_gaussian(grid, GaussianPacketSpec.make(0.0, cfg.sigma, 0.0), units)
    beta = cfg.beta * np.exp(1j * cfg.spinor_phase)
    up = ComplexField(grid, cfg.alpha * g.values)
    down = ComplexField(grid, beta * g.values)
    return SpinorField(up, down)


def _sg_propagate_1d(cfg, spinor0: SpinorField, gradient: float,
                     positions: np.ndarray, record_stride: int,
                     units) -> tuple:
    """Final state, trajectories from positions under the convective flow
    (integrated while it propagates) and branch overlap series of the 1D
    run under the given field gradient."""
    stream, feed = _stream_observer(cfg, spinor0.grid, positions,
                                    record_stride, VelocityModel.SPINOR, units)
    branch_overlap = np.empty(len(stream.stacks.times))

    def observer(step, t, state):
        branch_overlap[feed(step, t, state)] = _branch_overlap(state)

    pot = PotentialSpec.linear_spin_dependent(gradient, cfg.offset)
    final = propagate(spinor0, pot, cfg.dt, cfg.n_steps, units,
                      frame_stride=cfg.frame_stride, observer=observer).final
    return final, stream.flow.trajectories, branch_overlap


def _sg_z_cdf(final: SpinorField):
    """CDF of the final density's marginal on z, the last grid axis."""
    grid = final.grid
    rho = final.density()
    if grid.dims == 2:
        rho = rho.sum(axis=0)
    return grid_cdf(grid.axis(grid.dims - 1), rho, grid.dx[-1])


def _sg_outcome_labels(final: SpinorField, points: np.ndarray,
                       ratio_threshold: float) -> list[str]:
    """Spin label from the dominant spinor component at each endpoint."""
    return _dominant_density_labels(final.grid, final.up.density(),
                                    final.down.density(),
                                    np.atleast_2d(points), ("+", "-"),
                                    ratio_threshold)


def _sg_check_separation(cfg, final: SpinorField) -> None:
    if min(abs(cfg.alpha), abs(cfg.beta)) == 0.0:
        return  # single branch, nothing to separate
    axis = final.grid.dims - 1
    stats = []
    for comp in (final.up, final.down):
        rho = comp.density()
        if final.grid.dims == 2:
            rho = rho.sum(axis=0)
        stats.append(_center_width(rho, final.grid.axis(axis)))
    gap = abs(stats[0][0] - stats[1][0])
    width = max(stats[0][1], stats[1][1])
    if gap < cfg.separation_sigmas * width:
        raise SeparationError(
            f"spin branches separated by {gap:.3f} < "
            f"{cfg.separation_sigmas} x width {width:.3f}; "
            "gradient too weak for the flight time")


def _run_stern_gerlach_1d(cfg: SternGerlachConfig, units: UnitsConfig
                          ) -> EnsembleReport:
    spinor0 = _sg_initial_1d(cfg, units)
    sample = sample_equilibrium(spinor0, cfg.n, cfg.seed)
    z0 = sample.positions[:, 0]

    def one_run(gradient: float):
        final, trajs, branch_overlap = _sg_propagate_1d(
            cfg, spinor0, gradient, sample.positions, 1, units)
        _sg_check_separation(cfg, final)
        ends = np.array([tr.points[-1] for tr in trajs])
        outcomes = _sg_outcome_labels(final, ends, cfg.ratio_threshold)
        return final, trajs, ends, outcomes, branch_overlap

    final, trajs, ends, outcomes, branch_overlap = one_run(cfg.gradient)
    _, twin_trajs, twin_ends, twin_outcomes, _ = one_run(-cfg.gradient)

    spin_for_upper = "+" if cfg.gradient > 0 else "-"
    predictions = {"system": [
        (spin_for_upper if z > 0 else _flip(spin_for_upper)) if z != 0
        else UNRESOLVED for z in z0]}

    both = [(o, t, e, te) for o, t, e, te
            in zip(outcomes, twin_outcomes, ends[:, 0], twin_ends[:, 0])
            if o != UNRESOLVED and t != UNRESOLVED]
    swapped = all(o == _flip(t) for o, t, _, _ in both) if both else True
    same_side = all((e > 0) == (te > 0) for _, _, e, te in both) if both else True

    ks = _maybe_ks(ends[:, 0], _sg_z_cdf(final))
    crossings = analysis.audit_trajectories(trajs)
    node_counts = np.array([tr.node_regularization_events for tr in trajs])

    report = EnsembleReport(
        scenario="stern_gerlach", seed=cfg.seed, n_runs=cfg.n,
        outcomes=outcomes, predictions=predictions,
        initial_system=z0,
        overlap_series={"t": _frame_times(cfg), "branch": branch_overlap},
        node_counts=node_counts,
        audits={"crossing_violations": crossings,
                "equivariance_ks": ks,
                "failed_trajectories": sum(1 for tr in trajs if tr.failed),
                "gradient_inversion": {
                    "n_compared": len(both),
                    "all_spins_swapped": swapped,
                    "all_deflection_sides_unchanged": same_side}},
    )
    report.artifacts["trajectories"] = trajs
    report.extras["twin_outcomes"] = twin_outcomes
    report.artifacts["twin_trajectories"] = twin_trajs
    return report


def _flip(label: str) -> str:
    return "-" if label == "+" else "+"


def _sg_setup_2d(cfg: SternGerlachConfig, units: UnitsConfig) -> tuple:
    """Initial spinor, final state, branch overlap series and the per-frame
    1D tables that give the velocity with and without the Gordon term on
    the (y, z) grid.

    The state is a product for every config: the initial spinor is
    g(y) g(z) (alpha, beta) and the spin-dependent potential acts on z
    alone, so psi_s(y, z, t) = phi(y, t) chi_s(z, t).  The free scalar
    phi(y) and the spinor chi(z) are propagated on their own 1D axes, and
    their observers fill per-frame 1D tables: P = |phi|^2, J_phi from y;
    R, J_chi and S = 2 Re(chi_up* chi_down) from z.  P' and S' are the
    spectral gradients of the sampled P and S, as the 2D spin-curl current
    differentiates the sampled s_x = P S.  `_kernels.product_velocity`
    forms the 2D fields from these tables at each point:

        rho = P R,  G_y = J_phi R [+ (hbar/2m) P S'],
                    G_z = P J_chi [- (hbar/2m) P' S]   (Gordon term)

    The 2D support guard ratio of a product density is the larger of the
    two factor ratios, and a product is finite exactly when both factors
    are, so the guard and the finiteness check of each 1D propagation stop
    the run exactly when the 2D checks would (the y factor is checked
    first).  The general 2D formulas (`current_and_density`,
    `gordon_current`) are the test reference for this product form.
    """
    grid = SpatialGrid.plane(cfg.grid_n_y, (-cfg.grid_half_width_y, cfg.grid_half_width_y),
                             cfg.grid_n_z, (-cfg.grid_half_width_z, cfg.grid_half_width_z))
    y_grid = SpatialGrid.line(cfg.grid_n_y, -cfg.grid_half_width_y, cfg.grid_half_width_y)
    z_grid = SpatialGrid.line(cfg.grid_n_z, -cfg.grid_half_width_z, cfg.grid_half_width_z)
    g2 = make_gaussian(grid, GaussianPacketSpec.make(
        (0.0, 0.0), (cfg.sigma_y, cfg.sigma), (0.0, 0.0)), units)
    beta = cfg.beta * np.exp(1j * cfg.spinor_phase)
    spinor0 = SpinorField(ComplexField(grid, cfg.alpha * g2.values),
                          ComplexField(grid, beta * g2.values))
    phi0 = make_gaussian(y_grid, GaussianPacketSpec.make(0.0, cfg.sigma_y, 0.0), units)
    g_z = make_gaussian(z_grid, GaussianPacketSpec.make(0.0, cfg.sigma, 0.0), units)
    chi0 = SpinorField(ComplexField(z_grid, cfg.alpha * g_z.values),
                       ComplexField(z_grid, beta * g_z.values))

    n_frames = cfg.n_steps // cfg.frame_stride + 1
    times = np.empty(n_frames)
    y_tab = np.empty((n_frames, 3, cfg.grid_n_y))  # P, J_phi, -(hbar/2m) P'
    z_tab = np.empty((n_frames, 4, cfg.grid_n_z))  # R, J_chi, S, (hbar/2m) S'
    branch_overlap = np.empty(n_frames)

    def y_observer(step, t, state):
        f = step // cfg.frame_stride
        times[f] = t
        y_tab[f, 0], (y_tab[f, 1],) = current_and_density(
            state, VelocityModel.SCALAR, units)

    def z_observer(step, t, state):
        f = step // cfg.frame_stride
        z_tab[f, 0], (z_tab[f, 1],) = current_and_density(
            state, VelocityModel.SPINOR, units)
        z_tab[f, 2] = 2.0 * (np.conj(state.up.values) * state.down.values).real
        branch_overlap[f] = _branch_overlap(state)

    phi = propagate(phi0, PotentialSpec.free(), cfg.dt, cfg.n_steps, units,
                    frame_stride=cfg.frame_stride, observer=y_observer).final
    chi = propagate(chi0, PotentialSpec.linear_spin_dependent(cfg.gradient, cfg.offset),
                    cfg.dt, cfg.n_steps, units,
                    frame_stride=cfg.frame_stride, observer=z_observer).final
    final = SpinorField(ComplexField(grid, np.outer(phi.values, chi.up.values)),
                        ComplexField(grid, np.outer(phi.values, chi.down.values)))

    pref = units.hbar / (2.0 * units.mass)
    y_tab[:, 2] = -pref * _spectral_gradient(
        y_tab[:, 0].astype(np.complex128), y_grid)[0].real
    z_tab[:, 3] = pref * _spectral_gradient(
        z_tab[:, 2].astype(np.complex128), z_grid)[0].real
    peaks = y_tab[:, 0].max(axis=1) * z_tab[:, 0].max(axis=1)
    return (spinor0, final, branch_overlap,
            ProductTables(grid, times, y_tab, z_tab, peaks))


def _run_stern_gerlach_2d(cfg: SternGerlachConfig, units: UnitsConfig
                          ) -> EnsembleReport:
    """(y, z) grid; trajectories follow the flow with the Gordon term, and
    the same initial positions under the flow without it are the audit."""
    spinor0, final, branch_overlap, tables = _sg_setup_2d(cfg, units)
    _sg_check_separation(cfg, final)

    sample = sample_equilibrium(spinor0, cfg.n, cfg.seed)
    z0 = sample.positions[:, 1]
    trajs_on, trajs_off = integrate_product_flows(
        tables, sample.positions, cfg.dt_traj, gordon=(1.0, 0.0))
    ends_on = np.array([tr.points[-1] for tr in trajs_on])
    ends_off = np.array([tr.points[-1] for tr in trajs_off])
    outcomes = _sg_outcome_labels(final, ends_on, cfg.ratio_threshold)
    outcomes_off = _sg_outcome_labels(final, ends_off, cfg.ratio_threshold)

    spin_for_upper = "+" if cfg.gradient > 0 else "-"
    predictions = {"system": [
        (spin_for_upper if z > 0 else _flip(spin_for_upper)) if z != 0
        else UNRESOLVED for z in z0]}

    both = [(o, f, e, fe) for o, f, e, fe
            in zip(outcomes, outcomes_off, ends_on[:, 1], ends_off[:, 1])
            if o != UNRESOLVED and f != UNRESOLVED]
    ks = _maybe_ks(ends_on[:, 1], _sg_z_cdf(final))
    node_counts = np.array([tr.node_regularization_events for tr in trajs_on])

    report = EnsembleReport(
        scenario="stern_gerlach", seed=cfg.seed, n_runs=cfg.n,
        outcomes=outcomes, predictions=predictions,
        initial_system=z0,
        overlap_series={"t": tables.times, "branch": branch_overlap},
        node_counts=node_counts,
        audits={"equivariance_ks": ks,
                "failed_trajectories": sum(1 for tr in trajs_on if tr.failed),
                "gordon": {
                    "n_compared": len(both),
                    "z_side_agreement": all((e > 0) == (fe > 0)
                                            for _, _, e, fe in both),
                    "outcome_agreement": all(o == f for o, f, _, _ in both)}},
    )
    report.artifacts["trajectories"] = trajs_on
    report.artifacts["trajectories_gordon_off"] = trajs_off
    report.extras["outcomes_gordon_off"] = outcomes_off
    return report


# ---------------------------------------------------------------------------
# Optical Stern-Gerlach: pointer model with co-located system branches that
# separate only after the apparatus ramp; swept over N.
# ---------------------------------------------------------------------------

def build_optical_sg_model(cfg: OpticalSGConfig, N: int,
                           units: UnitsConfig = DEFAULT_UNITS) -> BlockModel:
    half0 = 0.5 * cfg.initial_separation
    half = 0.5 * cfg.system_separation

    def system_schedule(sign: float) -> PiecewiseLinear:
        if cfg.system_separation == 0:
            return PiecewiseLinear.constant(sign * half0)
        return PiecewiseLinear.ramp(cfg.system_separation_start,
                                    cfg.system_separation_end,
                                    sign * (half0 + half), start=sign * half0)

    branches = (
        Branch("+", cfg.amplitude_plus, system_schedule(+1.0),
               cfg.system_sigma, +1.0),
        Branch("-", cfg.amplitude_minus, system_schedule(-1.0),
               cfg.system_sigma, -1.0),
    )
    ramp = PiecewiseLinear.ramp(cfg.ramp_start, cfg.ramp_end, cfg.displacement)
    return PointerModelConfig(N=N, apparatus_sigma=cfg.apparatus_sigma,
                              ramp=ramp, branches=branches, T=cfg.T, units=units)


def _run_pointer_ensemble(model: BlockModel, n: int, seed: int, dt: float,
                          record_stride: int, ratio_threshold: float,
                          scenario: str) -> EnsembleReport:
    init = sample_model_equilibrium(model, n, seed)
    res = integrate_pointer_ensemble(model, init, dt, record_stride)
    ends = res.final_points()
    T = model.T
    outcomes = [classify_point(p, T, model, ratio_threshold) for p in ends]
    # sensitivity of the unresolved fraction to the classification threshold
    sensitivity = {}
    for factor in (0.1, 1.0, 10.0):
        labels = [classify_point(p, T, model, ratio_threshold * factor)
                  for p in ends]
        sensitivity[f"x{factor:g}"] = labels.count(UNRESOLVED) / n
    slices = model.block_slices()
    predictions = {"system": [predictor_system(init[i, 0], model)
                              for i in range(n)]}
    sums = {}
    for blk in model.blocks[1:]:
        sl = slices[blk.name]
        sums[blk.name] = init[:, sl].sum(axis=1)
        predictions[blk.name] = [predictor_block_sum(init[i, sl], model, blk.name)
                                 for i in range(n)]

    ts = res.times
    series = {"t": ts, "system": pointer.system_overlap(ts, model)}
    for blk in model.blocks[1:]:
        series[blk.name] = pointer.block_overlap(ts, model, blk.name)

    report = EnsembleReport(
        scenario=scenario, seed=seed, n_runs=n,
        outcomes=outcomes, predictions=predictions,
        initial_system=init[:, 0], initial_block_sums=sums,
        initial_full=init,
        overlap_series=series,
        node_counts=res.node_counts,
        audits={"unresolved_vs_threshold": sensitivity},
    )
    # an unresolved fraction above 10% marks the run as degraded quality;
    # the report is still returned in full
    report.audits["quality_degraded"] = report.unresolved_fraction > 0.10
    report.artifacts["result"] = res
    return report


def run_optical_sg(cfg: OpticalSGConfig, units: UnitsConfig = DEFAULT_UNITS
                   ) -> EnsembleReport:
    cfg.validate()
    subs = []
    for N in cfg.N_sweep:
        model = build_optical_sg_model(cfg, int(N), units)
        rep = _run_pointer_ensemble(model, cfg.n, cfg.seed, cfg.dt_traj,
                                    cfg.record_stride, cfg.ratio_threshold,
                                    "optical_sg")
        rep.extras["N"] = int(N)
        rep.audits["log_overlap_exponent_exact"] = True  # by construction
        subs.append(rep)

    head = subs[-1]
    accs = [(r.extras["N"], r.accuracies()) for r in subs]
    sweep_summary = {
        "N": [int(N) for N, _ in accs],
        "apparatus_accuracy": [a["apparatus"].fraction for _, a in accs],
        "apparatus_radius": [a["apparatus"].radius for _, a in accs],
        "system_accuracy": [a["system"].fraction for _, a in accs],
        "system_radius": [a["system"].radius for _, a in accs],
        "unresolved_fraction": [r.unresolved_fraction for r in subs],
    }
    report = EnsembleReport(
        scenario="optical_sg", seed=cfg.seed, n_runs=cfg.n,
        outcomes=head.outcomes, predictions=head.predictions,
        initial_system=head.initial_system,
        initial_block_sums=head.initial_block_sums,
        overlap_series=head.overlap_series,
        node_counts=head.node_counts,
        audits={"sweep": sweep_summary},
        sub_reports=subs,
    )
    report.extras["head_N"] = head.extras["N"]
    return report


# ---------------------------------------------------------------------------
# Ancilla chain: three-block model (system, N' ancilla, N apparatus), ancilla
# ramp in the first window and apparatus ramp in the second.
# ---------------------------------------------------------------------------

def build_ancilla_model(cfg: AncillaChainConfig, N_prime: int | None = None,
                        separation: float | None = None,
                        units: UnitsConfig = DEFAULT_UNITS) -> BlockModel:
    np_count = cfg.N_prime if N_prime is None else int(N_prime)
    sep = cfg.system_separation if separation is None else float(separation)
    if not (cfg.ancilla_ramp_end <= cfg.t1 and cfg.apparatus_ramp_start >= cfg.t1):
        raise ConfigError("stage ramps must respect the coupling windows")
    half = 0.5 * sep
    system = CoordinateBlock(
        "system", 1, cfg.system_sigma,
        (PiecewiseLinear.constant(+half), PiecewiseLinear.constant(-half)))
    anc_ramp = PiecewiseLinear.ramp(cfg.ancilla_ramp_start, cfg.ancilla_ramp_end,
                                    cfg.ancilla_displacement)
    app_ramp = PiecewiseLinear.ramp(cfg.apparatus_ramp_start,
                                    cfg.apparatus_ramp_end,
                                    cfg.apparatus_displacement)
    ancilla = CoordinateBlock("ancilla", np_count, cfg.ancilla_sigma,
                              (anc_ramp, anc_ramp.scaled(-1.0)))
    apparatus = CoordinateBlock("apparatus", cfg.N, cfg.apparatus_sigma,
                                (app_ramp, app_ramp.scaled(-1.0)))
    return BlockModel((system, ancilla, apparatus),
                      (complex(cfg.amplitude_plus), complex(cfg.amplitude_minus)),
                      ("+", "-"), cfg.t2, units)


def run_ancilla_chain(cfg: AncillaChainConfig, units: UnitsConfig = DEFAULT_UNITS
                      ) -> EnsembleReport:
    cfg.validate()
    if cfg.N_prime_sweep and cfg.separation_sweep:
        return _run_ancilla_sweep(cfg, units)
    model = build_ancilla_model(cfg, units=units)
    report = _run_pointer_ensemble(model, cfg.n, cfg.seed, cfg.dt_traj,
                                   cfg.record_stride, cfg.ratio_threshold,
                                   "ancilla_chain")
    report.extras["N_prime"] = cfg.N_prime
    report.extras["system_separation"] = cfg.system_separation
    verdict = analysis.determinant_attribution(report)
    report.audits["attribution"] = verdict
    return report


def _run_ancilla_sweep(cfg: AncillaChainConfig, units: UnitsConfig
                       ) -> EnsembleReport:
    subs = []
    table = []
    for sep in cfg.separation_sweep:
        for npr in cfg.N_prime_sweep:
            model = build_ancilla_model(cfg, N_prime=npr, separation=sep,
                                        units=units)
            rep = _run_pointer_ensemble(model, cfg.n, cfg.seed, cfg.dt_traj,
                                        cfg.record_stride, cfg.ratio_threshold,
                                        "ancilla_chain")
            rep.extras["N_prime"] = int(npr)
            rep.extras["system_separation"] = float(sep)
            verdict = analysis.determinant_attribution(rep)
            rep.audits["attribution"] = verdict
            accs = rep.accuracies()
            table.append({
                "N_prime": int(npr),
                "system_separation": float(sep),
                "verdict": verdict.label,
                "acc_system": accs["system"].fraction,
                "acc_ancilla": accs["ancilla"].fraction,
                "acc_apparatus": accs["apparatus"].fraction,
                "unresolved_fraction": rep.unresolved_fraction,
            })
            subs.append(rep)
    head = subs[0]
    report = EnsembleReport(
        scenario="ancilla_chain", seed=cfg.seed, n_runs=cfg.n,
        outcomes=head.outcomes, predictions=head.predictions,
        initial_system=head.initial_system,
        initial_block_sums=head.initial_block_sums,
        overlap_series=head.overlap_series,
        node_counts=head.node_counts,
        audits={"regime_table": table},
        sub_reports=subs,
    )
    return report


# ---------------------------------------------------------------------------
# Equivariance-only (born-check) runs
# ---------------------------------------------------------------------------

def run_born_check(cfg: ScenarioConfig, n: int,
                   units: UnitsConfig = DEFAULT_UNITS) -> dict:
    """Endpoint-vs-density KS diagnostic for any scenario config."""
    cfg.validate()
    # only the endpoints are compared, so only they are recorded
    if isinstance(cfg, BeamSplitterConfig):
        grid, _, _, psi0 = _bs_setup(cfg, units)
        sample = sample_equilibrium(psi0, n, cfg.seed)
        steps, _ = cfg.trajectory_steps()
        final, trajs = _bs_propagate(cfg, psi0, sample.positions, steps,
                                     units)
        ends = np.array([tr.points[-1, 0] for tr in trajs])
        ks = born_rule_ks(ends, grid_cdf(grid.axis(0), final.density(),
                                         grid.dx[0]))
        return {"scenario": "beam_splitter", "n": n, "ks": ks}
    if isinstance(cfg, SternGerlachConfig):
        if cfg.gordon:
            spinor0, final, _, tables = _sg_setup_2d(cfg, units)
            sample = sample_equilibrium(spinor0, n, cfg.seed)
            (trajs,) = integrate_product_flows(
                tables, sample.positions, cfg.dt_traj, gordon=(1.0,))
        else:
            spinor0 = _sg_initial_1d(cfg, units)
            sample = sample_equilibrium(spinor0, n, cfg.seed)
            steps, _ = cfg.trajectory_steps()
            final, trajs, _ = _sg_propagate_1d(cfg, spinor0, cfg.gradient,
                                               sample.positions, steps, units)
        ends = np.array([tr.points[-1, -1] for tr in trajs])
        return {"scenario": "stern_gerlach", "n": n,
                "ks": born_rule_ks(ends, _sg_z_cdf(final))}
    if isinstance(cfg, OpticalSGConfig):
        model = build_optical_sg_model(cfg, int(cfg.N_sweep[-1]), units)
        return _pointer_born_check(model, cfg, n, "optical_sg")
    if isinstance(cfg, AncillaChainConfig):
        model = build_ancilla_model(cfg, units=units)
        return _pointer_born_check(model, cfg, n, "ancilla_chain")
    raise ConfigError(f"unknown scenario config {type(cfg)!r}")


def _pointer_born_check(model: BlockModel, cfg, n: int, name: str) -> dict:
    init = sample_model_equilibrium(model, n, cfg.seed)
    res = integrate_pointer_ensemble(model, init, cfg.dt_traj, cfg.record_stride)
    ends = res.final_points()[:, 0]
    xs, dens = pointer.x_marginal_density(model, model.T)
    ks = born_rule_ks(ends, grid_cdf(xs, dens, float(xs[1] - xs[0])))
    return {"scenario": name, "n": n, "ks": ks}
