"""End-to-end experiment drivers.  Each driver consumes its typed config,
runs propagation / trajectory integration / classification, and returns an
EnsembleReport.  Everything is deterministic given (config, seed).

Outcome labels: the beam splitter uses "D1" (right detector) and "D2";
spin scenarios use "+" and "-" for spin projection +hbar/2 / -hbar/2 along
the quantization axis; pointer scenarios use their branch labels "+"/"-".
"""

from dataclasses import dataclass, replace

import numpy as np

from . import analysis, pointer
from .analysis import UNRESOLVED, born_rule_ks, grid_cdf, side_label
from .config import (AncillaChainConfig, BeamSplitterConfig, OpticalSGConfig,
                     ScenarioConfig, SternGerlachConfig)
from .errors import ConfigError, SeparationError, SupportGuardViolation
from .fields import (ComplexField, SpinorField, center_width,
                     density_overlap, make_gaussian, norm, overlap,
                     GaussianPacketSpec)
from .grids import SpatialGrid
# build_stacks and integrate_over_stacks are not called here; they stay
# importable from this module because perfbench/tracer.py wraps them
from .guidance import (ProductTables, build_stacks, current_and_density,
                       _interp, _spectral_gradient)
from .pointer import (BlockModel, CoordinateBlock, classify_point,
                      integrate_pointer_ensemble, labels_from_log_ratio,
                      predictor_block_sum, predictor_system,
                      sample_model_equilibrium)
from .propagation import (PotentialSpec, _boundary_band_mask,
                          check_support_guard, propagate)
from .report import EnsembleReport
from .sampling import _cell_cdf, _draws, sample_equilibrium
from .schedules import PiecewiseLinear
from .trajectories import (FrameStream, integrate_over_stacks,
                           integrate_product_flows)


def _maybe_ks(endpoints, cdf):
    """Equivariance KS when the ensemble is large enough, else None."""
    if len(endpoints) < analysis.MIN_KS_SAMPLES:
        return None
    return born_rule_ks(endpoints, cdf)


def _final_cdf(final: ComplexField | SpinorField):
    """CDF of the density of the 1D field final on its grid."""
    grid = final.grid
    return grid_cdf(grid.axis(), final.density(), grid.dx)


# ---------------------------------------------------------------------------
# Beam splitter: superposition of counter-propagating packets, free flight
# until the packets are disjoint, then a pointer-model detector stage.
# ---------------------------------------------------------------------------

def run_beam_splitter(cfg: BeamSplitterConfig) -> EnsembleReport:
    cfg.validate()
    a_r, a_l = cfg.amplitude_right, cfg.amplitude_left
    grid, plus, minus, psi0 = _bs_setup(cfg)
    # the branch pair first: its separation, and the record and detector
    # checks that depend on it, fail before the superposition propagates
    branches = _bs_branch_series(cfg, plus, minus)
    times = _frame_times(cfg)
    sep_idx = branches.sep_idx
    t_sep = float(times[sep_idx])

    _, stride = cfg.trajectory_steps()
    rec_dt = cfg.dt_traj * stride
    sep_rec = int(round((t_sep - times[0]) / rec_dt))
    if abs(sep_rec * rec_dt + times[0] - t_sep) > 1e-9:
        raise ConfigError("record grid must contain the separation time")

    det_model = _bs_detector_model(cfg, branches)

    positions = sample_equilibrium(psi0, cfg.n, cfg.seed)
    x0 = positions[:, 0]
    median = _density_median(grid, psi0.density())
    final, trajs = _stream_propagate(cfg, psi0, PotentialSpec.free(),
                                     positions, stride)
    x_at_sep = trajs.points[:, sep_rec, 0]

    # outcome: the detector whose branch contains the trajectory at t_sep
    outcomes = _dominant_density_labels(
        grid, branches.rho_plus * a_r ** 2,
        branches.rho_minus * a_l ** 2, x_at_sep,
        ("D1", "D2"), cfg.ratio_threshold)

    y0 = _bs_detector_offsets(cfg)
    det_init = np.column_stack([x_at_sep, y0])
    # only the endpoints and node counts are read: record the ends alone.
    # The stage is smooth and every kink of its schedules (t_sep, T and the
    # end of the ramp, see validate) lies on the frame grid, so it steps at
    # the frame step, not at the grid flow's dt_traj.
    det_res = integrate_pointer_ensemble(det_model, det_init,
                                         cfg.dt * cfg.frame_stride,
                                         record_stride=0)
    det_labels = [classify_point(p, det_model.T, det_model, cfg.ratio_threshold)
                  for p in det_res.final_points()]
    agree = [o == d for o, d in zip(outcomes, det_labels)
             if o != UNRESOLVED and d != UNRESOLVED]

    y0_sums = y0.sum(axis=1)
    predictions = {
        "system": side_label(x0 - median, True, ("D1", "D2")),
        "apparatus": predictor_block_sum(y0_sums, det_model, "apparatus"),
    }

    # audits: 1D no-crossing over the grid stage, no branch jumps after t_sep
    crossings = analysis.audit_trajectories(trajs)
    after_sep = trajs.points[:, sep_rec:, 0]
    jumps = int(np.count_nonzero((after_sep > 0).any(axis=1)
                                 & (after_sep < 0).any(axis=1)))
    ks = _maybe_ks(trajs.final_points()[:, 0], _final_cdf(final))

    node_counts = trajs.node_counts + det_res.node_counts
    failed = int(np.count_nonzero(trajs.failed))
    report = EnsembleReport(
        scenario="beam_splitter", seed=cfg.seed, n_runs=cfg.n,
        outcomes=outcomes, predictions=predictions,
        initial_system=x0,
        initial_block_sums={"apparatus": y0_sums},
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


def _bs_born_check(cfg: BeamSplitterConfig, n: int) -> tuple:
    """Endpoints of n trajectories of the run's flow, recorded at the ends
    alone, and the CDF of the final density."""
    _, _, _, psi0 = _bs_setup(cfg)
    positions = sample_equilibrium(psi0, n, cfg.seed)
    steps, _ = cfg.trajectory_steps()
    final, trajs = _stream_propagate(cfg, psi0, PotentialSpec.free(),
                                     positions, steps)
    return trajs.final_points()[:, 0], _final_cdf(final)


def _bs_setup(cfg: BeamSplitterConfig) -> tuple:
    """Grid, right- and left-moving packets and their normalized
    superposition psi0 = a_r plus + a_l minus: the setup shared by the run
    and born-check."""
    grid = SpatialGrid.line(cfg.grid_n, -cfg.grid_half_width, cfg.grid_half_width)
    k = cfg.splitter_momentum
    plus = make_gaussian(grid, GaussianPacketSpec.make(0.0, cfg.sigma, +k))
    minus = make_gaussian(grid, GaussianPacketSpec.make(0.0, cfg.sigma, -k))
    vals = cfg.amplitude_right * plus.values + cfg.amplitude_left * minus.values
    psi0 = ComplexField(grid, vals / norm(ComplexField(grid, vals)))
    return grid, plus, minus, psi0


@dataclass
class _BranchSeries:
    """Per-frame series of the two beam-splitter branch packets and their
    densities at the first separated frame."""
    bhattacharyya: np.ndarray  # fields.density_overlap of the densities
    inner: np.ndarray          # |<plus|minus>|
    center_plus: np.ndarray
    center_minus: np.ndarray
    width: np.ndarray          # of the plus packet
    sep_idx: int = -1
    rho_plus: np.ndarray | None = None
    rho_minus: np.ndarray | None = None


def _bs_branch_series(cfg: BeamSplitterConfig, plus: ComplexField,
                      minus: ComplexField) -> _BranchSeries:
    """Propagate both branch packets in one batched pair and record their
    overlaps, centres and width per frame.  Separation is the first frame
    where the centres are separation_sigmas widths apart and the
    Bhattacharyya coefficient is below spatial_overlap_threshold.

    Each branch is checked by the support guard on its own: the guard on
    the summed density would compare a leaking branch against the other
    branch's peak as well."""
    n_frames = len(_frame_times(cfg))
    series = _BranchSeries(*(np.empty(n_frames) for _ in range(5)))
    band = _boundary_band_mask(plus.grid)
    x, dx = plus.grid.axis(), plus.grid.dx

    def observer(step, t, pair):
        rho_p, rho_m = pair.up.density(), pair.down.density()
        check_support_guard(rho_p, step, band)
        check_support_guard(rho_m, step, band)
        f = step // cfg.frame_stride
        series.bhattacharyya[f] = density_overlap(rho_p, rho_m, dx)
        series.inner[f] = abs(overlap(pair.up, pair.down))
        series.center_plus[f], series.width[f] = center_width(rho_p, x)
        series.center_minus[f], _ = center_width(rho_m, x)
        if (series.sep_idx < 0
                and abs(series.center_plus[f] - series.center_minus[f])
                >= cfg.separation_sigmas * series.width[f]
                and series.bhattacharyya[f] < cfg.spatial_overlap_threshold):
            series.sep_idx, series.rho_plus, series.rho_minus = f, rho_p, rho_m

    propagate(SpinorField(plus, minus), PotentialSpec.free(), cfg.dt,
              cfg.n_steps, frame_stride=cfg.frame_stride,
              support_guard=False, observer=observer)
    if series.sep_idx < 0:
        raise SeparationError(
            "packets never satisfied the separation and overlap thresholds; "
            "increase flight time or momentum")
    return series


def _bs_detector_model(cfg: BeamSplitterConfig,
                       branches: _BranchSeries) -> BlockModel:
    """The detector stage: a two-branch pointer model on [t_sep, T], its
    time 0 at t_sep, with system factors tracking the separated packets
    (rigid width) and the detector coordinates ramped apart."""
    k = cfg.splitter_momentum
    times = _frame_times(cfg)
    sep_idx = branches.sep_idx
    det_tau = float(times[-1]) - float(times[sep_idx])
    c_sep = float(branches.center_plus[sep_idx])
    sig_sep = float(branches.width[sep_idx])
    if det_tau <= cfg.detector_ramp_duration:
        raise ConfigError("detector ramp does not fit between separation and T")
    return BlockModel(
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
        amplitudes=(complex(cfg.amplitude_right), complex(cfg.amplitude_left)),
        labels=("D1", "D2"), T=det_tau)


def _bs_detector_offsets(cfg: BeamSplitterConfig) -> np.ndarray:
    """(n, detector_count) detector coordinates at t_sep, sampled fresh
    around zero displacement from the streams (seed, i, 1)."""
    _, z = _draws(cfg.seed, cfg.n, 0, cfg.detector_count, stream=(1,))
    return cfg.detector_sigma * z


def _frame_times(cfg) -> np.ndarray:
    """Times of the frames of a propagation of cfg, one every
    cfg.frame_stride steps, as `propagate` passes them to its observer."""
    return np.arange(cfg.n_steps // cfg.frame_stride + 1) \
        * cfg.frame_stride * cfg.dt


def _stream_propagate(cfg, state, potential: PotentialSpec,
                      positions: np.ndarray, record_stride: int,
                      observe=None) -> tuple:
    """Final state of the propagation of cfg from state under potential,
    and the trajectories from positions under its flow, integrated while
    it propagates (a FrameStream fed each frame's current_and_density).
    observe(f, state), if given, sees the state of every frame f."""
    stream = FrameStream(state.grid, _frame_times(cfg), positions,
                         cfg.dt_traj, record_stride)

    def feed(step, t, frame):
        f = step // cfg.frame_stride
        stream.add(f, *current_and_density(frame))
        if observe is not None:
            observe(f, frame)

    final = propagate(state, potential, cfg.dt, cfg.n_steps,
                      frame_stride=cfg.frame_stride, observer=feed).final
    return final, stream.flow.trajectories


def _branch_overlap(state: SpinorField) -> float:
    """|<up|down>| over the product of the component norms."""
    return abs(overlap(state.up, state.down)) \
        / max(norm(state.up) * norm(state.down), 1e-300)


def _density_median(grid: SpatialGrid, rho: np.ndarray) -> float:
    """Median of the centered-cell staircase, matching the sampler."""
    half = 0.5 * grid.dx
    edges = np.concatenate([grid.axis() - half, [grid.x_max - half]])
    return float(np.interp(0.5, _cell_cdf(rho * grid.dx), edges))


def _dominant_density_labels(grid: SpatialGrid, rho_a: np.ndarray,
                             rho_b: np.ndarray, x: np.ndarray,
                             labels: tuple[str, str],
                             ratio_threshold: float) -> list[str]:
    """labels[0] or labels[1] by which branch density dominates at each
    point of x (m,) by at least ratio_threshold, else "unresolved"."""
    log_a = np.log(np.maximum(_interp(grid, rho_a, x), 1e-300))
    log_b = np.log(np.maximum(_interp(grid, rho_b, x), 1e-300))
    return labels_from_log_ratio(log_a - log_b, labels, ratio_threshold)


# ---------------------------------------------------------------------------
# Stern-Gerlach: spinor packet under opposite linear potentials; outcome is
# the spin of the dominant component at the trajectory endpoint.  The report
# carries the gradient-inverted twin run on identical initial positions.
# ---------------------------------------------------------------------------

def run_stern_gerlach(cfg: SternGerlachConfig) -> EnsembleReport:
    cfg.validate()
    return (_run_stern_gerlach_2d if cfg.gordon else _run_stern_gerlach_1d)(cfg)


def _sg_spinor(cfg, z_grid: SpatialGrid) -> SpinorField:
    """The initial spinor g(z) (alpha, beta e^{i spinor_phase}) on z_grid,
    g the Gaussian of width cfg.sigma."""
    g = make_gaussian(z_grid, GaussianPacketSpec.make(0.0, cfg.sigma, 0.0))
    beta = cfg.beta * np.exp(1j * cfg.spinor_phase)
    return SpinorField(ComplexField(z_grid, cfg.alpha * g.values),
                       ComplexField(z_grid, beta * g.values))


def _sg_outcome_labels(final: SpinorField, z: np.ndarray,
                       ratio_threshold: float) -> list[str]:
    """Spin label from the dominant component of the 1D spinor final at
    each endpoint z (m,)."""
    return _dominant_density_labels(final.grid, final.up.density(),
                                    final.down.density(), z,
                                    ("+", "-"), ratio_threshold)


def _sg_check_separation(cfg, final: SpinorField) -> None:
    if min(abs(cfg.alpha), abs(cfg.beta)) == 0.0:
        return  # single branch, nothing to separate
    z = final.grid.axis()
    stats = [center_width(comp.density(), z) for comp in (final.up, final.down)]
    gap = abs(stats[0][0] - stats[1][0])
    width = max(stats[0][1], stats[1][1])
    if gap < cfg.separation_sigmas * width:
        raise SeparationError(
            f"spin branches separated by {gap:.3f} < "
            f"{cfg.separation_sigmas} x width {width:.3f}; "
            "gradient too weak for the flight time")


def _run_stern_gerlach_1d(cfg: SternGerlachConfig) -> EnsembleReport:
    spinor0 = _sg_spinor(cfg, SpatialGrid.line(
        cfg.grid_n, -cfg.grid_half_width, cfg.grid_half_width))
    positions = sample_equilibrium(spinor0, cfg.n, cfg.seed)
    z0 = positions[:, 0]
    times = _frame_times(cfg)

    def one_run(gradient: float):
        branch_overlap = np.empty(len(times))

        def observe(f, state):
            branch_overlap[f] = _branch_overlap(state)

        final, trajs = _stream_propagate(
            cfg, spinor0, PotentialSpec.linear_spin_dependent(
                gradient, cfg.offset), positions, 1, observe)
        _sg_check_separation(cfg, final)
        ends = trajs.final_points()
        outcomes = _sg_outcome_labels(final, ends[:, 0], cfg.ratio_threshold)
        return final, trajs, ends, outcomes, branch_overlap

    final, trajs, ends, outcomes, branch_overlap = one_run(cfg.gradient)
    _, _, twin_ends, twin_outcomes, _ = one_run(-cfg.gradient)

    # the spin the gradient deflects upward is predicted above z = 0
    predictions = {"system": side_label(z0, cfg.gradient > 0, ("+", "-"))}

    both = [(o, t, e, te) for o, t, e, te
            in zip(outcomes, twin_outcomes, ends[:, 0], twin_ends[:, 0])
            if o != UNRESOLVED and t != UNRESOLVED]
    # both runs resolved, so a swapped spin is a differing label
    swapped = all(o != t for o, t, _, _ in both)
    same_side = all((e > 0) == (te > 0) for _, _, e, te in both)

    ks = _maybe_ks(ends[:, 0], _final_cdf(final))
    crossings = analysis.audit_trajectories(trajs)

    report = EnsembleReport(
        scenario="stern_gerlach", seed=cfg.seed, n_runs=cfg.n,
        outcomes=outcomes, predictions=predictions,
        initial_system=z0,
        overlap_series={"t": times, "branch": branch_overlap},
        node_counts=trajs.node_counts,
        audits={"crossing_violations": crossings,
                "equivariance_ks": ks,
                "failed_trajectories": int(np.count_nonzero(trajs.failed)),
                "gradient_inversion": {
                    "n_compared": len(both),
                    "all_spins_swapped": swapped,
                    "all_deflection_sides_unchanged": same_side}},
    )
    report.artifacts["trajectories"] = trajs
    report.extras["twin_outcomes"] = twin_outcomes
    return report


def _sg_born_check(cfg: SternGerlachConfig, n: int) -> tuple:
    """z endpoints of n trajectories of the run's flow (Gordon-on when
    gordon is set), recorded at the ends alone, and the CDF of the final
    z marginal."""
    if cfg.gordon:
        phi0, chi0, final, _, tables = _sg_setup_2d(cfg)
        positions = sample_equilibrium((phi0, chi0), n, cfg.seed)
        (trajs,) = integrate_product_flows(
            tables, positions, cfg.dt_traj, gordon=(1.0,))
    else:
        spinor0 = _sg_spinor(cfg, SpatialGrid.line(
            cfg.grid_n, -cfg.grid_half_width, cfg.grid_half_width))
        positions = sample_equilibrium(spinor0, n, cfg.seed)
        steps, _ = cfg.trajectory_steps()
        final, trajs = _stream_propagate(
            cfg, spinor0, PotentialSpec.linear_spin_dependent(
                cfg.gradient, cfg.offset), positions, steps)
    return trajs.final_points()[:, -1], _final_cdf(final)


def _sg_setup_2d(cfg: SternGerlachConfig) -> tuple:
    """Initial factors phi0(y) and chi0(z), the final spinor factor chi(z),
    the branch overlap series and the per-frame 1D tables that give the
    velocity with and without the Gordon term on the (y, z) grid.  No 2D
    array is built.

    The state is a product for every config: the initial spinor is
    g(y) g(z) (alpha, beta) and the spin-dependent potential acts on z
    alone, so psi_s(y, z, t) = phi(y, t) chi_s(z, t).  The free scalar
    phi(y) and the spinor chi(z) are propagated on their own 1D axes, and
    their observers fill per-frame 1D tables: P = |phi|^2, J_phi from y;
    R, J_chi and S = 2 Re(chi_up* chi_down) from z.  P' and S' are the
    spectral gradients of the sampled P and S, so the spin-curl current
    (hbar/2m)(d_z s_x, -d_y s_x) of s_x = P S is (hbar/2m)(P S', -P' S).
    `_kernels.product_velocity` forms the 2D fields from these tables at
    each point:

        rho = P R,  G_y = J_phi R [+ (hbar/2m) P S'],
                    G_z = P J_chi [- (hbar/2m) P' S]   (Gordon term)

    Everything else the run reads is a function of one factor: the
    equilibrium sample draws y from P and z from R; the up/down density
    ratio at a point, which labels the outcome, is that of chi alone; and
    the z marginal, which the separation check and the KS read, is R up
    to the norm of phi.  The 2D support guard ratio of a product density
    is the larger of the two factor ratios, and a product is finite
    exactly when both factors are, so the guard and the finiteness check
    of each 1D propagation stop the run exactly when the 2D checks would:
    both factors are propagated, and the guard violation at the earlier
    step is raised (the y factor's on a tie).  The tests check the tables
    against the closed form of this product of Gaussians.
    """
    y_grid = SpatialGrid.line(cfg.grid_n_y, -cfg.grid_half_width_y, cfg.grid_half_width_y)
    z_grid = SpatialGrid.line(cfg.grid_n_z, -cfg.grid_half_width_z, cfg.grid_half_width_z)
    phi0 = make_gaussian(y_grid, GaussianPacketSpec.make(0.0, cfg.sigma_y, 0.0))
    chi0 = _sg_spinor(cfg, z_grid)

    times = _frame_times(cfg)
    n_frames = len(times)
    y_tab = np.empty((n_frames, 3, cfg.grid_n_y))  # P, J_phi, -(hbar/2m) P'
    z_tab = np.empty((n_frames, 4, cfg.grid_n_z))  # R, J_chi, S, (hbar/2m) S'
    branch_overlap = np.empty(n_frames)

    def y_observer(step, t, state):
        f = step // cfg.frame_stride
        y_tab[f, 0], y_tab[f, 1] = current_and_density(state)

    def z_observer(step, t, state):
        f = step // cfg.frame_stride
        z_tab[f, 0], z_tab[f, 1] = current_and_density(state)
        z_tab[f, 2] = 2.0 * (np.conj(state.up.values) * state.down.values).real
        branch_overlap[f] = _branch_overlap(state)

    def run(state, potential, observer):
        """(final state, None) or (None, the factor's guard violation)."""
        try:
            return propagate(state, potential, cfg.dt, cfg.n_steps,
                             frame_stride=cfg.frame_stride,
                             observer=observer).final, None
        except SupportGuardViolation as exc:
            return None, exc

    _, y_guard = run(phi0, PotentialSpec.free(), y_observer)
    chi, z_guard = run(chi0, PotentialSpec.linear_spin_dependent(
        cfg.gradient, cfg.offset), z_observer)
    guards = [exc for exc in (y_guard, z_guard) if exc is not None]
    if guards:  # the earlier step, y on a tie
        raise min(guards, key=lambda exc: exc.step)

    # hbar/2m = 1/2
    y_tab[:, 2] = -0.5 * _spectral_gradient(
        y_tab[:, 0].astype(np.complex128), y_grid).real
    z_tab[:, 3] = 0.5 * _spectral_gradient(
        z_tab[:, 2].astype(np.complex128), z_grid).real
    peaks = y_tab[:, 0].max(axis=1) * z_tab[:, 0].max(axis=1)
    return (phi0, chi0, chi, branch_overlap,
            ProductTables(y_grid, z_grid, times, y_tab, z_tab, peaks))


def _run_stern_gerlach_2d(cfg: SternGerlachConfig) -> EnsembleReport:
    """(y, z) plane; trajectories follow the flow with the Gordon term, and
    the same initial positions under the flow without it are the audit."""
    phi0, chi0, chi, branch_overlap, tables = _sg_setup_2d(cfg)
    _sg_check_separation(cfg, chi)

    positions = sample_equilibrium((phi0, chi0), cfg.n, cfg.seed)
    z0 = positions[:, 1]
    trajs_on, trajs_off = integrate_product_flows(
        tables, positions, cfg.dt_traj, gordon=(1.0, 0.0))
    # the z column: the up/down ratio of a product does not depend on y
    ends_on = trajs_on.final_points()[:, 1]
    ends_off = trajs_off.final_points()[:, 1]
    outcomes = _sg_outcome_labels(chi, ends_on, cfg.ratio_threshold)
    outcomes_off = _sg_outcome_labels(chi, ends_off, cfg.ratio_threshold)

    # the spin the gradient deflects upward is predicted above z = 0
    predictions = {"system": side_label(z0, cfg.gradient > 0, ("+", "-"))}

    both = [(o, f, e, fe) for o, f, e, fe
            in zip(outcomes, outcomes_off, ends_on, ends_off)
            if o != UNRESOLVED and f != UNRESOLVED]
    ks = _maybe_ks(ends_on, _final_cdf(chi))

    report = EnsembleReport(
        scenario="stern_gerlach", seed=cfg.seed, n_runs=cfg.n,
        outcomes=outcomes, predictions=predictions,
        initial_system=z0,
        overlap_series={"t": tables.times, "branch": branch_overlap},
        node_counts=trajs_on.node_counts,
        audits={"equivariance_ks": ks,
                "failed_trajectories": int(np.count_nonzero(trajs_on.failed)),
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

def build_optical_sg_model(cfg: OpticalSGConfig, N: int) -> BlockModel:
    half0 = 0.5 * cfg.initial_separation
    half = 0.5 * cfg.system_separation

    def system_schedule(sign: float) -> PiecewiseLinear:
        if cfg.system_separation == 0:
            return PiecewiseLinear.constant(sign * half0)
        return PiecewiseLinear.ramp(cfg.system_separation_start,
                                    cfg.system_separation_end,
                                    sign * (half0 + half), start=sign * half0)

    system = CoordinateBlock("system", 1, cfg.system_sigma,
                             (system_schedule(+1.0), system_schedule(-1.0)))
    ramp = PiecewiseLinear.ramp(cfg.ramp_start, cfg.ramp_end, cfg.displacement)
    apparatus = CoordinateBlock("apparatus", N, cfg.apparatus_sigma,
                                (ramp, ramp.scaled(-1.0)))
    return BlockModel((system, apparatus),
                      (complex(cfg.amplitude_plus), complex(cfg.amplitude_minus)),
                      ("+", "-"), cfg.T)


PointerConfig = OpticalSGConfig | AncillaChainConfig


def _pointer_sample_and_integrate(model: BlockModel, cfg: PointerConfig,
                                  n: int, record_stride: int) -> tuple:
    """n configurations drawn from |Psi(0)|^2 with cfg.seed and their
    integration at cfg.dt_traj: the path shared by a pointer run and its
    born-check."""
    init = sample_model_equilibrium(model, n, cfg.seed)
    return init, integrate_pointer_ensemble(model, init, cfg.dt_traj,
                                            record_stride)


def _run_pointer_ensemble(model: BlockModel, cfg: PointerConfig
                          ) -> EnsembleReport:
    n, ratio_threshold = cfg.n, cfg.ratio_threshold
    init, res = _pointer_sample_and_integrate(model, cfg, n, cfg.record_stride)
    ends = res.final_points()
    T = model.T
    outcomes = [classify_point(p, T, model, ratio_threshold) for p in ends]
    # sensitivity of the unresolved fraction to the classification threshold
    sensitivity = {f"x{factor:g}": [
        classify_point(p, T, model, ratio_threshold * factor) for p in ends
    ].count(UNRESOLVED) / n for factor in (0.1, 1.0, 10.0)}
    sums = {name: init[:, sl].sum(axis=1)
            for name, sl in list(model.block_slices().items())[1:]}
    predictions = {"system": predictor_system(init[:, 0], model),
                   **{name: predictor_block_sum(s, model, name)
                      for name, s in sums.items()}}

    ts = res.times
    series = {"t": ts, "system": pointer.system_overlap(ts, model)}
    for blk in model.blocks[1:]:
        series[blk.name] = pointer.block_overlap(ts, model, blk.name)

    report = EnsembleReport(
        scenario=cfg.scenario, seed=cfg.seed, n_runs=n,
        outcomes=outcomes, predictions=predictions,
        initial_system=init[:, 0], initial_block_sums=sums,
        overlap_series=series,
        node_counts=res.node_counts,
        audits={"unresolved_vs_threshold": sensitivity},
    )
    # an unresolved fraction above 10% marks the run as degraded quality;
    # the report is still returned in full
    report.audits["quality_degraded"] = report.unresolved_fraction > 0.10
    report.artifacts["trajectories"] = res
    return report


def _pointer_born_check(model: BlockModel, cfg: PointerConfig, n: int
                        ) -> tuple:
    """Final system coordinates of n trajectories of the run's flow,
    recorded at the ends alone, and the CDF of the x-marginal at T."""
    _, res = _pointer_sample_and_integrate(model, cfg, n, 0)
    xs, dens = pointer.x_marginal_density(model, model.T)
    return res.final_points()[:, 0], grid_cdf(xs, dens, float(xs[1] - xs[0]))


def _sweep_entry(report: EnsembleReport) -> EnsembleReport:
    """report as a sweep entry: without its trajectories, which no output
    reads, so that one entry's at most are held at a time."""
    del report.artifacts["trajectories"]
    return report


def _optical_sg_run(cfg: OpticalSGConfig, N: int) -> EnsembleReport:
    report = _run_pointer_ensemble(build_optical_sg_model(cfg, N), cfg)
    report.extras["N"] = N
    report.audits["log_overlap_exponent_exact"] = True  # by construction
    return report


def run_optical_sg(cfg: OpticalSGConfig) -> EnsembleReport:
    """One entry per N of N_sweep; the report is the last entry's, with
    the sweep's accuracies as its audit."""
    cfg.validate()
    subs = [_sweep_entry(_optical_sg_run(cfg, N)) for N in cfg.N_sweep]
    head = subs[-1]
    accs = [r.accuracies() for r in subs]
    sweep_summary = {
        "N": list(cfg.N_sweep),
        "apparatus_accuracy": [a["apparatus"].fraction for a in accs],
        "apparatus_radius": [a["apparatus"].radius for a in accs],
        "system_accuracy": [a["system"].fraction for a in accs],
        "system_radius": [a["system"].radius for a in accs],
        "unresolved_fraction": [r.unresolved_fraction for r in subs],
    }
    return replace(head, audits={"sweep": sweep_summary},
                   extras={"head_N": head.extras["N"]}, artifacts={},
                   sub_reports=subs)


# ---------------------------------------------------------------------------
# Ancilla chain: three-block model (system, N' ancilla, N apparatus), ancilla
# ramp in the first window and apparatus ramp in the second.
# ---------------------------------------------------------------------------

def build_ancilla_model(cfg: AncillaChainConfig, N_prime: int | None = None,
                        separation: float | None = None) -> BlockModel:
    np_count = cfg.N_prime if N_prime is None else N_prime
    sep = cfg.system_separation if separation is None else float(separation)
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
                      ("+", "-"), cfg.t2)


def _ancilla_run(cfg: AncillaChainConfig, N_prime: int,
                 separation: float) -> EnsembleReport:
    """The run of the model with N_prime ancillas and system branches
    separation apart, with its attribution verdict."""
    report = _run_pointer_ensemble(
        build_ancilla_model(cfg, N_prime, separation), cfg)
    report.extras["N_prime"] = N_prime
    report.extras["system_separation"] = separation
    report.audits["attribution"] = analysis.determinant_attribution(report)
    return report


def run_ancilla_chain(cfg: AncillaChainConfig) -> EnsembleReport:
    """The single run of the config's scalars, or with the sweep lists set,
    one entry per (separation, N_prime) pair; the sweep's report is its
    first entry's, with the regime table as its audit."""
    cfg.validate()
    if not cfg.N_prime_sweep:
        return _ancilla_run(cfg, cfg.N_prime, cfg.system_separation)
    subs = [_sweep_entry(_ancilla_run(cfg, npr, float(sep)))
            for sep in cfg.separation_sweep for npr in cfg.N_prime_sweep]
    table = []
    for rep in subs:
        accs = rep.accuracies()
        table.append({
            "N_prime": rep.extras["N_prime"],
            "system_separation": rep.extras["system_separation"],
            "verdict": rep.audits["attribution"].label,
            "acc_system": accs["system"].fraction,
            "acc_ancilla": accs["ancilla"].fraction,
            "acc_apparatus": accs["apparatus"].fraction,
            "unresolved_fraction": rep.unresolved_fraction,
        })
    return replace(subs[0], audits={"regime_table": table}, extras={},
                   artifacts={}, sub_reports=subs)


# ---------------------------------------------------------------------------
# Entry points: one (run, born-check) pair per config type
# ---------------------------------------------------------------------------

_DRIVERS = {
    BeamSplitterConfig: (run_beam_splitter, _bs_born_check),
    SternGerlachConfig: (run_stern_gerlach, _sg_born_check),
    # born-check on optical-sg checks the last N of the sweep only
    OpticalSGConfig: (run_optical_sg, lambda cfg, n: _pointer_born_check(
        build_optical_sg_model(cfg, cfg.N_sweep[-1]), cfg, n)),
    AncillaChainConfig: (run_ancilla_chain, lambda cfg, n: _pointer_born_check(
        build_ancilla_model(cfg), cfg, n)),
}


def run_scenario(cfg: ScenarioConfig) -> EnsembleReport:
    run, _ = _DRIVERS[type(cfg)]
    return run(cfg)


def run_born_check(cfg: ScenarioConfig, n: int) -> dict:
    """Equivariance KS of the endpoints of n trajectories of cfg's run
    against the final |psi|^2 marginal, for any scenario config."""
    _, born_check = _DRIVERS[type(cfg)]
    cfg.validate()
    ends, cdf = born_check(cfg, n)
    return {"scenario": cfg.scenario, "n": n, "ks": born_rule_ks(ends, cdf)}
