"""Analytic branched-Gaussian measurement model in (1+N)-dimensional
configuration space: one system coordinate x and N apparatus coordinates
y_j, with exactly two branches.

Each branch is a product of rigid normalized Gaussians with prescribed
center schedules.  Every factor carries the local plane-wave phase
exp(i m cdot(t) (q - c(t)) / hbar), so the single-branch guidance velocity
of each coordinate is exactly its center velocity.  All branch arithmetic
runs in log space, which keeps N = 64 products well away from underflow.

The same machinery supports extra coordinate blocks (used by the ancilla
chain driver), so the model is internally a list of blocks; the two-block
(system + apparatus) configuration is the pointer model proper.

Within a block the branch factors differ only in their centers and
velocities, so the guidance velocity is the same for every coordinate of a
block and the branch weights depend on a configuration only through its
block means.  The ensemble integrator therefore solves the (n, n_blocks)
ODE of the block means (`_kernels.block_rk4`); every coordinate keeps its
t = 0 offset from its block mean, and positions are rebuilt as
q(t) = q0 + (m(t) - m(0))[block_id] only when asked for.  Classification
reads the log-weight gap straight from the block means.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import ConfigError
from .schedules import PiecewiseLinear
from .sampling import inverse_cdf_sample
from .trajectories import Trajectory
from .units import UnitsConfig, DEFAULT_UNITS

UNRESOLVED = "unresolved"
DEFAULT_RATIO_THRESHOLD = 1e6
POINTER_NODE_THRESH = 1e-24  # on |r_+ + r_-|^2 with max branch modulus 1


@dataclass(frozen=True)
class Branch:
    label: str
    amplitude: complex
    system_center: PiecewiseLinear
    system_sigma: float
    apparatus_sign: float  # epsilon_b, +1 or -1

    def __post_init__(self):
        if abs(abs(self.apparatus_sign) - 1.0) > 1e-12:
            raise ConfigError("apparatus_sign must be +1 or -1")
        if not self.system_sigma > 0:
            raise ConfigError("system_sigma must be positive")


@dataclass(frozen=True)
class CoordinateBlock:
    """count identical coordinates sharing sigma and per-branch schedules."""
    name: str
    count: int
    sigma: float
    centers: tuple[PiecewiseLinear, PiecewiseLinear]  # (branch +, branch -)

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError("block count must be >= 0")
        if not self.sigma > 0:
            raise ConfigError("block sigma must be positive")


@dataclass(frozen=True)
class BlockModel:
    """Two-branch Gaussian-product model over named coordinate blocks."""
    blocks: tuple[CoordinateBlock, ...]
    amplitudes: tuple[complex, complex]
    labels: tuple[str, str]
    T: float
    units: UnitsConfig = DEFAULT_UNITS

    def __post_init__(self):
        a2 = sum(abs(c) ** 2 for c in self.amplitudes)
        if abs(a2 - 1.0) > 1e-9:
            raise ConfigError("branch amplitudes must satisfy |c+|^2+|c-|^2 = 1")
        if not self.T > 0:
            raise ConfigError("total time must be positive")

    @property
    def n_coords(self) -> int:
        return sum(b.count for b in self.blocks)

    def block_slices(self) -> dict[str, slice]:
        out = {}
        start = 0
        for b in self.blocks:
            out[b.name] = slice(start, start + b.count)
            start += b.count
        return out

    def coordinate_blocks(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.blocks)),
                         [b.count for b in self.blocks]).astype(np.int64)

    def schedule_tables(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Center and velocity per (time, branch, block)."""
        nb = len(self.blocks)
        centers = np.empty((len(ts), 2, nb))
        vels = np.empty((len(ts), 2, nb))
        for k, blk in enumerate(self.blocks):
            for b in range(2):
                centers[:, b, k] = blk.centers[b].value(ts)
                vels[:, b, k] = blk.centers[b].velocity(ts)
        return centers, vels

    def _per_coord(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sig = np.repeat([b.sigma for b in self.blocks],
                        [b.count for b in self.blocks])
        return sig, 1.0 / (4.0 * sig ** 2), 1.0 / (2.0 * sig ** 2)

    def block_tables(self, ts: np.ndarray) -> _kernels.BlockTables:
        """Coefficients of the block-mean ODE at times ts."""
        centers, vels = self.schedule_tables(ts)
        log_amp, amp_phase = self.amplitude_parts()
        return _kernels.block_tables(
            centers, vels, np.array([float(b.count) for b in self.blocks]),
            np.array([b.sigma ** 2 for b in self.blocks]), log_amp, amp_phase,
            self.units.mass / self.units.hbar, self.units.hbar / self.units.mass)

    def block_means(self, points: np.ndarray) -> np.ndarray:
        """Mean of each block's coordinates, (n, C) -> (n, n_blocks); an
        empty block has mean 0."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.n_coords:
            raise ConfigError(f"configurations must have {self.n_coords} coordinates")
        out = np.zeros((pts.shape[0], len(self.blocks)))
        for k, sl in enumerate(self.block_slices().values()):
            if sl.stop > sl.start:
                out[:, k] = pts[:, sl].mean(axis=1)
        return out

    # -- log weights and velocities ----------------------------------------

    def log_branch_weights(self, points: np.ndarray, t: float) -> np.ndarray:
        """log w_b = log(|c_b|^2 |Phi_b|^2) at configuration points (n, C);
        includes the Gaussian normalization constants."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        centers, _ = self.schedule_tables(np.array([t]))
        block_id = self.coordinate_blocks()
        sig, inv4s2, _ = self._per_coord()
        log_norm = float(np.sum(-0.5 * np.log(2.0 * np.pi * sig ** 2)))
        out = np.empty((pts.shape[0], 2))
        for b in range(2):
            amp = abs(self.amplitudes[b])
            log_amp2 = 2.0 * math.log(amp) if amp > 0 else -math.inf
            d = pts - centers[0, b, block_id]
            out[:, b] = log_amp2 + log_norm - 2.0 * np.sum(d * d * inv4s2, axis=1)
        return out

    @cached_property
    def _tables_by_time(self) -> dict:
        return {}

    def log_weight_gap(self, means: np.ndarray, t: float) -> np.ndarray:
        """log(w_+ / w_-) at configurations given by their block means
        (n, n_blocks); twice the kernel's log-modulus gap.  The tables of
        each time are built once per model, so classifying an ensemble one
        point at a time does not rebuild them."""
        tab = self._tables_by_time.get(t)
        if tab is None:
            tab = self._tables_by_time[t] = self.block_tables(np.array([t]))
        return 2.0 * _kernels.branch_gaps(np.atleast_2d(means), tab, 0)[0]

    def velocities(self, points: np.ndarray, t: float) -> np.ndarray:
        """Closed-form guidance velocity for every coordinate at time t
        (0 at branch-sum nodes): the kernel's block velocity at the block
        means, given to each coordinate of the block."""
        v, _node = _kernels.block_velocity(
            self.block_means(points), self.block_tables(np.array([t])), 0,
            POINTER_NODE_THRESH, 0.0)
        return v[:, self.coordinate_blocks()]

    def amplitude_parts(self) -> tuple[np.ndarray, np.ndarray]:
        log_amp = np.array([math.log(abs(c)) if abs(c) > 0 else -math.inf
                            for c in self.amplitudes])
        amp_phase = np.array([float(np.angle(c)) for c in self.amplitudes])
        return log_amp, amp_phase


# ---------------------------------------------------------------------------
# The pointer model proper (system + N-coordinate apparatus).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointerModelConfig:
    N: int
    apparatus_sigma: float
    ramp: PiecewiseLinear  # a(t), apparatus displacement; a(0) = 0
    branches: tuple[Branch, Branch]
    T: float
    units: UnitsConfig = DEFAULT_UNITS

    def __post_init__(self):
        if self.N < 0:
            raise ConfigError("apparatus particle count must be >= 0")
        if not self.apparatus_sigma > 0:
            raise ConfigError("apparatus_sigma must be positive")
        if abs(float(self.ramp.value(0.0))) > 1e-12:
            raise ConfigError("the apparatus ramp must start at a(0) = 0")
        a2 = sum(abs(b.amplitude) ** 2 for b in self.branches)
        if abs(a2 - 1.0) > 1e-9:
            raise ConfigError("branch amplitudes must satisfy |c+|^2+|c-|^2 = 1")

    def block_model(self) -> BlockModel:
        bp, bm = self.branches
        system = CoordinateBlock("system", 1, bp.system_sigma,
                                 (bp.system_center, bm.system_center))
        if bp.system_sigma != bm.system_sigma:
            raise ConfigError("branches must share one system sigma")
        apparatus = CoordinateBlock(
            "apparatus", self.N, self.apparatus_sigma,
            (self.ramp.scaled(bp.apparatus_sign), self.ramp.scaled(bm.apparatus_sign)))
        return BlockModel((system, apparatus), (bp.amplitude, bm.amplitude),
                          (bp.label, bm.label), self.T, self.units)


@dataclass(frozen=True)
class ConfigPoint:
    x: float
    y: np.ndarray

    def flat(self) -> np.ndarray:
        return np.concatenate([[self.x], np.asarray(self.y, dtype=float)])


def _as_flat(config, model: BlockModel) -> np.ndarray:
    if isinstance(config, ConfigPoint):
        flat = config.flat()
    else:
        flat = np.asarray(config, dtype=float).ravel()
    if flat.shape[0] != model.n_coords:
        raise ConfigError(f"configuration must have {model.n_coords} coordinates")
    return flat


def _resolve_model(model) -> BlockModel:
    return model.block_model() if isinstance(model, PointerModelConfig) else model


def branch_local_weight(config, t: float, model) -> np.ndarray:
    """Per-branch local weights w_b = |c_b|^2 |Phi_b(config, t)|^2.

    Computed in log space; the returned weights may underflow to 0.0 but are
    always finite.  Use branch_local_log_weight for classification.
    """
    return np.exp(branch_local_log_weight(config, t, model))


def branch_local_log_weight(config, t: float, model) -> np.ndarray:
    bm = _resolve_model(model)
    flat = _as_flat(config, bm)
    return bm.log_branch_weights(flat[None, :], t)[0]


def pointer_velocity(config, t: float, model) -> np.ndarray:
    """Guidance velocity of every coordinate (x first, then y_j)."""
    bm = _resolve_model(model)
    flat = _as_flat(config, bm)
    return bm.velocities(flat[None, :], t)[0]


def single_coordinate_overlap(t: float, model) -> float:
    """|<g_+|g_->| for one apparatus coordinate at time t."""
    bm = _resolve_model(model)
    blk = _find_block(bm, "apparatus")
    return _gaussian_pair_overlap(blk, t, bm.units)


def log_single_coordinate_overlap(t: float, model) -> float:
    bm = _resolve_model(model)
    blk = _find_block(bm, "apparatus")
    return _log_gaussian_pair_overlap(blk, t, bm.units)


def apparatus_overlap(t: float, model) -> float:
    """omega(t)^N, evaluated as exp(N log omega) so the exponent law is
    exact by construction.  Underflows to 0.0 for large N; use
    log_apparatus_overlap when the exponent itself is needed."""
    return _exp_overlap(log_apparatus_overlap(t, model))


def log_apparatus_overlap(t: float, model) -> float:
    """log(omega(t)^N) = N log omega(t), exactly."""
    bm = _resolve_model(model)
    blk = _find_block(bm, "apparatus")
    return blk.count * _log_gaussian_pair_overlap(blk, t, bm.units)


def system_overlap(t, model):
    """|<phi_+|phi_->| of the system factors at time t (a float or an
    array of times)."""
    bm = _resolve_model(model)
    blk = _find_block(bm, "system")
    return _gaussian_pair_overlap(blk, t, bm.units)


def block_overlap(t, model, name: str):
    """omega_block(t)^count for an arbitrary named block (t a float or an
    array of times)."""
    return _exp_overlap(log_block_overlap(t, model, name))


def _exp_overlap(log_val):
    """exp(log_val), flushed to 0.0 below exp's normal range."""
    out = np.where(log_val > -745.0, np.exp(log_val), 0.0)
    return out if out.ndim else float(out)


def log_block_overlap(t, model, name: str):
    bm = _resolve_model(model)
    blk = _find_block(bm, name)
    return blk.count * _log_gaussian_pair_overlap(blk, t, bm.units)


def _find_block(bm: BlockModel, name: str) -> CoordinateBlock:
    for blk in bm.blocks:
        if blk.name == name:
            return blk
    raise ConfigError(f"model has no block named {name!r}")


def _log_gaussian_pair_overlap(blk: CoordinateBlock, t,
                               units: UnitsConfig):
    """log |<G_+|G_->| for two equal-width Gaussians with plane-wave phases:
    -(dc)^2/(8 sigma^2) - (dk)^2 sigma^2 / 2.  t is a float or an array of
    times."""
    dc = blk.centers[0].value(t) - blk.centers[1].value(t)
    dv = blk.centers[0].velocity(t) - blk.centers[1].velocity(t)
    dk = units.mass * dv / units.hbar
    s2 = blk.sigma ** 2
    out = -(dc * dc) / (8.0 * s2) - 0.5 * dk * dk * s2
    return out if np.ndim(out) else float(out)


def _gaussian_pair_overlap(blk, t, units):
    out = np.exp(_log_gaussian_pair_overlap(blk, t, units))
    return out if np.ndim(out) else float(out)


def complex_pair_overlap(blk: CoordinateBlock, t: float,
                         units: UnitsConfig) -> tuple[float, float]:
    """<g_-|g_+> for one coordinate of a block, as (log magnitude, phase)."""
    c1 = float(blk.centers[1].value(t))
    c2 = float(blk.centers[0].value(t))
    k1 = units.mass * float(blk.centers[1].velocity(t)) / units.hbar
    k2 = units.mass * float(blk.centers[0].velocity(t)) / units.hbar
    d = c1 - c2
    dk = k2 - k1
    cbar = 0.5 * (c1 + c2)
    s2 = blk.sigma ** 2
    log_mag = -(d * d) / (8.0 * s2) - 0.5 * dk * dk * s2
    phase = dk * cbar + k1 * c1 - k2 * c2
    return log_mag, phase


def x_marginal_density(model, t: float, n_points: int = 4096,
                       pad_sigmas: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
    """Exact x-marginal of |Psi(t)|^2 on a fine grid, cross term included.

    marginal(x) = sum_b |c_b|^2 |phi_b|^2
                  + 2 Re[c_+ conj(c_-) phi_+ conj(phi_-) kappa]
    with kappa the product of <g_-|g_+> over all non-system coordinates,
    accumulated in log form so large blocks underflow gracefully to zero.
    """
    bm = _resolve_model(model)
    sys_blk = bm.blocks[0]
    log_mag = 0.0
    phase = 0.0
    for blk in bm.blocks[1:]:
        lm, ph = complex_pair_overlap(blk, t, bm.units)
        log_mag += blk.count * lm
        phase += blk.count * ph
    kappa = math.exp(log_mag) * complex(math.cos(phase), math.sin(phase)) \
        if log_mag > -745.0 else 0.0j

    sig = sys_blk.sigma
    cs = [float(sys_blk.centers[b].value(t)) for b in range(2)]
    vs = [float(sys_blk.centers[b].velocity(t)) for b in range(2)]
    lo = min(cs) - pad_sigmas * sig
    hi = max(cs) + pad_sigmas * sig
    xs = np.linspace(lo, hi, n_points, endpoint=False)
    kf = bm.units.mass / bm.units.hbar
    phis = []
    for c, v in zip(cs, vs):
        d = xs - c
        phis.append((2 * np.pi * sig ** 2) ** -0.25
                    * np.exp(-d * d / (4 * sig ** 2) + 1j * kf * v * d))
    cp, cm = bm.amplitudes
    dens = (abs(cp) ** 2 * np.abs(phis[0]) ** 2
            + abs(cm) ** 2 * np.abs(phis[1]) ** 2
            + 2.0 * (cp * np.conj(cm) * phis[0] * np.conj(phis[1]) * kappa).real)
    dens = np.maximum(dens, 0.0)
    dens /= dens.sum() * (xs[1] - xs[0])
    return xs, dens


# ---------------------------------------------------------------------------
# Outcome classification and the two position predictors.
# ---------------------------------------------------------------------------

def classify_outcome(trajectory: Trajectory, model, t: float | None = None,
                     ratio_threshold: float = DEFAULT_RATIO_THRESHOLD) -> str:
    """Branch label with the larger local weight at time t (default: the
    final time), or "unresolved" when the ratio is below threshold."""
    bm = _resolve_model(model)
    if t is None:
        t = float(trajectory.times[-1])
    idx = int(np.argmin(np.abs(trajectory.times - t)))
    point = trajectory.points[idx]
    return classify_point(point, t, bm, ratio_threshold)


def classify_point(point: np.ndarray, t: float, model,
                   ratio_threshold: float = DEFAULT_RATIO_THRESHOLD) -> str:
    bm = _resolve_model(model)
    gap = bm.log_weight_gap(bm.block_means(point), t)
    return labels_from_log_ratio(gap, bm.labels, ratio_threshold)[0]


def labels_from_log_ratio(log_ratio: np.ndarray, labels: tuple[str, str],
                          ratio_threshold: float) -> list[str]:
    """labels[0] where log_ratio >= log(ratio_threshold), labels[1] where
    it is <= -log(ratio_threshold), "unresolved" in between."""
    log_ratio = np.asarray(log_ratio)
    return np.where(np.abs(log_ratio) < math.log(ratio_threshold), UNRESOLVED,
                    np.where(log_ratio > 0, labels[0], labels[1])).tolist()


def predictor_system(x0: float, model) -> str:
    """Branch predicted from the sign of x0 about the initial system
    midpoint, oriented by which schedule ends higher (ties pick branch +)."""
    bm = _resolve_model(model)
    blk = _find_block(bm, "system")
    mid = 0.5 * float(blk.centers[0].value(0.0) + blk.centers[1].value(0.0))
    if x0 == mid:
        return UNRESOLVED
    end_gap = float(blk.centers[0].value(bm.T) - blk.centers[1].value(bm.T))
    plus_is_high = end_gap >= 0.0
    high = x0 > mid
    return bm.labels[0] if (high == plus_is_high) else bm.labels[1]


def predictor_apparatus(y0: np.ndarray, model) -> str:
    """Branch predicted from sign(sum y_j0), oriented by the apparatus
    displacement direction of each branch."""
    bm = _resolve_model(model)
    blk = _find_block(bm, "apparatus")
    return _sum_predictor(np.asarray(y0, dtype=float), blk, bm)


def predictor_block_sum(q0: np.ndarray, model, name: str) -> str:
    bm = _resolve_model(model)
    return _sum_predictor(np.asarray(q0, dtype=float), _find_block(bm, name), bm)


def _sum_predictor(q0: np.ndarray, blk: CoordinateBlock, bm: BlockModel) -> str:
    total = float(np.sum(q0))
    if total == 0.0:
        return UNRESOLVED
    end_gap = float(blk.centers[0].value(bm.T) - blk.centers[1].value(bm.T))
    plus_is_high = end_gap >= 0.0
    return bm.labels[0] if ((total > 0) == plus_is_high) else bm.labels[1]


# ---------------------------------------------------------------------------
# Equilibrium sampling and ensemble integration for the analytic model.
# ---------------------------------------------------------------------------

SAMPLING_GRID_POINTS = 4096
SAMPLING_PAD_SIGMAS = 10.0


def sample_model_equilibrium(model, n: int, seed: int,
                             t: float = 0.0) -> np.ndarray:
    """Draw (n, C) initial configurations from |Psi(., t=0)|^2.

    Requires every multi-coordinate block to have branch-independent factors
    at t = 0 (centers equal and velocities zero), which holds for ramps with
    a(0) = 0; those coordinates are exact Gaussians.  The system coordinate
    is sampled from the exact 1D superposition density on a fine grid.
    """
    bm = _resolve_model(model)
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    if t != 0.0:
        raise ConfigError("equilibrium sampling is defined at t = 0")
    sys_blk = bm.blocks[0]
    if sys_blk.count != 1:
        raise ConfigError("the first block must be the single system coordinate")
    for blk in bm.blocks[1:]:
        c0 = float(blk.centers[0].value(0.0)), float(blk.centers[1].value(0.0))
        v0 = float(blk.centers[0].velocity(0.0)), float(blk.centers[1].velocity(0.0))
        if abs(c0[0] - c0[1]) > 1e-12 or abs(v0[0]) > 1e-12 or abs(v0[1]) > 1e-12:
            raise ConfigError(
                f"block {blk.name!r} factors must coincide at t=0 for sampling")

    # exact x density |c+ phi+ + c- phi-|^2 tabulated on a fine grid
    c_p = float(sys_blk.centers[0].value(0.0))
    c_m = float(sys_blk.centers[1].value(0.0))
    v_p = float(sys_blk.centers[0].velocity(0.0))
    v_m = float(sys_blk.centers[1].velocity(0.0))
    sig = sys_blk.sigma
    lo = min(c_p, c_m) - SAMPLING_PAD_SIGMAS * sig
    hi = max(c_p, c_m) + SAMPLING_PAD_SIGMAS * sig
    xs = np.linspace(lo, hi, SAMPLING_GRID_POINTS, endpoint=False)
    dx = xs[1] - xs[0]
    kf = bm.units.mass / bm.units.hbar
    psi = np.zeros_like(xs, dtype=np.complex128)
    for amp, c, v in ((bm.amplitudes[0], c_p, v_p), (bm.amplitudes[1], c_m, v_m)):
        d = xs - c
        psi += amp * (2 * np.pi * sig ** 2) ** -0.25 \
            * np.exp(-d * d / (4 * sig ** 2) + 1j * kf * v * d)
    masses = np.abs(psi) ** 2 * dx

    out = np.empty((n, bm.n_coords))
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    cdf /= cdf[-1]
    for i in range(n):
        rng = np.random.default_rng((int(seed), int(i)))
        out[i, 0] = inverse_cdf_sample(cdf, lo, dx, rng.random())
        col = 1
        for blk in bm.blocks[1:]:
            center = float(blk.centers[0].value(0.0))
            out[i, col:col + blk.count] = center + blk.sigma * rng.standard_normal(blk.count)
            col += blk.count
    return out


@dataclass
class PointerEnsembleResult:
    """Recorded block means of an ensemble.  Positions are rebuilt from
    them as q0 + (m(t) - m(0))[block_id], only when asked for."""
    times: np.ndarray
    initial: np.ndarray    # (n, C) configurations at t = 0
    block_id: np.ndarray   # (C,) block index of each coordinate
    means: np.ndarray      # (n, n_rec, n_blocks)
    reg_flags: np.ndarray  # (n, n_rec)
    node_counts: np.ndarray  # (n,)

    def final_points(self) -> np.ndarray:
        """(n, C) positions at the last recorded time."""
        shift = self.means[:, -1] - self.means[:, 0]
        return self.initial + shift[:, self.block_id]

    @cached_property
    def positions(self) -> np.ndarray:
        """(n, n_rec, C) positions of every trajectory at every record."""
        shift = self.means - self.means[:, :1]
        return self.initial[:, None, :] + shift[:, :, self.block_id]

    def trajectories(self) -> list[Trajectory]:
        """One Trajectory per configuration, positions rebuilt one
        trajectory at a time."""
        shift = self.means - self.means[:, :1]
        return [Trajectory(self.times,
                           self.initial[i] + shift[i][:, self.block_id],
                           node_regularization_events=int(self.node_counts[i]),
                           regularized_flags=self.reg_flags[i])
                for i in range(self.initial.shape[0])]


def integrate_pointer_ensemble(model, initial: np.ndarray, dt: float,
                               record_stride: int = 1) -> PointerEnsembleResult:
    """RK4-integrate every configuration over [0, T] under the closed-form
    velocity field, as the ODE of its block means."""
    bm = _resolve_model(model)
    q0 = np.array(initial, dtype=float, ndmin=2)
    if q0.shape[1] != bm.n_coords:
        raise ConfigError(f"initial configurations must have {bm.n_coords} coordinates")
    if dt <= 0:
        raise ConfigError("dt must be positive")
    n_steps = int(round(bm.T / dt))
    if abs(n_steps * dt - bm.T) > 1e-9 * max(1.0, bm.T):
        raise ConfigError("dt must divide the total time")
    if n_steps % record_stride != 0:
        raise ConfigError("record_stride must divide the step count")

    half_times = np.arange(2 * n_steps + 1) * (0.5 * dt)
    means, flags, node_counts = _kernels.block_rk4(
        bm.block_means(q0), bm.block_tables(half_times), POINTER_NODE_THRESH,
        dt, n_steps, record_stride)
    times = dt * record_stride * np.arange(means.shape[1])
    return PointerEnsembleResult(times, q0, bm.coordinate_blocks(), means,
                                 flags, node_counts)
