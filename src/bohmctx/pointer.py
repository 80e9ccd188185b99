"""Analytic branched-Gaussian measurement model: a system coordinate x
and blocks of apparatus-like coordinates, with exactly two branches.

Each branch is a product of rigid normalized Gaussians with prescribed
center schedules.  Every factor carries the local plane-wave phase
exp(i m cdot(t) (q - c(t)) / hbar), so the single-branch guidance velocity
of each coordinate is exactly its center velocity.  All branch arithmetic
runs in log space, which keeps N = 64 products well away from underflow.

The one model type is BlockModel, a list of named coordinate blocks, and
every function here takes one.  The pointer model proper has a "system"
block of one coordinate and an "apparatus" block of N; the ancilla chain
scenario adds a third block.
The Gaussian pair overlap of one coordinate (complex_pair_overlap) feeds
the overlap series and the x-marginal, and the x-marginal
(x_marginal_density) is also the density the sampler inverts.  Both
position predictors read the side of a sum against where branch + ends
(analysis.side_label).

Within a block the branch factors differ only in their centers and
velocities, so the guidance velocity is the same for every coordinate of a
block and the branch weights depend on a configuration only through its
block means.  The ensemble integrator therefore solves the (n, n_blocks)
ODE of the block means, through the one RK4 loop `_kernels.grid_rk4`
(stage velocity `_kernels.block_stage_velocity`); every coordinate keeps its
t = 0 offset from its block mean, and positions are rebuilt as
q(t) = q0 + (m(t) - m(0))[block_id] only when asked for.  Classification
reads the log-weight gap straight from the block means
(`BlockModel.log_weight_gap`), and `BlockModel.velocities` gives each
coordinate its block's velocity; neither has a per-coordinate form.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .analysis import UNRESOLVED, side_label
from .config import trajectory_steps
from .errors import ConfigError
from .schedules import PiecewiseLinear
from .sampling import _cell_cdf, _draws, inverse_cdf_sample
from .trajectories import RecordedEnsemble, Trajectory

DEFAULT_RATIO_THRESHOLD = 1e6
POINTER_NODE_THRESH = 1e-24  # on |r_+ + r_-|^2 with max branch modulus 1


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
        ends = np.cumsum([b.count for b in self.blocks]).tolist()
        return {b.name: slice(e - b.count, e) for b, e in zip(self.blocks, ends)}

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

    def block_tables(self, ts: np.ndarray) -> _kernels.BlockTables:
        """Coefficients of the block-mean ODE at times ts."""
        centers, vels = self.schedule_tables(ts)
        log_amp = np.array([math.log(abs(c)) if abs(c) > 0 else -math.inf
                            for c in self.amplitudes])
        return _kernels.block_tables(
            centers, vels, np.array([float(b.count) for b in self.blocks]),
            np.array([b.sigma ** 2 for b in self.blocks]), log_amp,
            np.angle(np.array(self.amplitudes)))

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


def log_single_coordinate_overlap(t: float, model: BlockModel) -> float:
    """log |<g_+|g_->| = log omega(t) for one apparatus coordinate."""
    blk = _find_block(model, "apparatus")
    return complex_pair_overlap(blk, t)[0]


def log_apparatus_overlap(t: float, model: BlockModel) -> float:
    """log(omega(t)^N) = N log omega(t), exactly."""
    return log_block_overlap(t, model, "apparatus")


def system_overlap(t, model: BlockModel):
    """|<phi_+|phi_->| of the system factors at time t (a float or an
    array of times)."""
    log_mag, _ = complex_pair_overlap(_find_block(model, "system"), t)
    out = np.exp(log_mag)
    return out if out.ndim else float(out)


def block_overlap(t, model: BlockModel, name: str):
    """omega_block(t)^count for an arbitrary named block (t a float or an
    array of times), flushed to 0.0 below exp's normal range."""
    log_val = log_block_overlap(t, model, name)
    out = np.where(log_val > -745.0, np.exp(log_val), 0.0)
    return out if out.ndim else float(out)


def log_block_overlap(t, model: BlockModel, name: str):
    blk = _find_block(model, name)
    return blk.count * complex_pair_overlap(blk, t)[0]


def _find_block(model: BlockModel, name: str) -> CoordinateBlock:
    for blk in model.blocks:
        if blk.name == name:
            return blk
    raise ConfigError(f"model has no block named {name!r}")


def complex_pair_overlap(blk: CoordinateBlock, t):
    """<g_-|g_+> for one coordinate of a block, two equal-width Gaussians
    with plane-wave phases, as (log magnitude, phase):
    log magnitude -(dc)^2/(8 sigma^2) - (dk)^2 sigma^2 / 2 and phase
    -kbar dc, with dc = c_+ - c_-, dk = k_+ - k_- and kbar their mean
    momentum (k = m v / hbar = v).  t is a float or an array of times."""
    c_p, c_m = blk.centers[0].value(t), blk.centers[1].value(t)
    v_p, v_m = blk.centers[0].velocity(t), blk.centers[1].velocity(t)
    dc = c_p - c_m
    dk = v_p - v_m
    kbar = 0.5 * (v_p + v_m)
    s2 = blk.sigma ** 2
    log_mag = -(dc * dc) / (8.0 * s2) - 0.5 * dk * dk * s2
    phase = -kbar * dc
    if np.ndim(log_mag):
        return log_mag, phase
    return float(log_mag), float(phase)


def x_marginal_density(model: BlockModel, t: float, n_points: int = 4096
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Exact x-marginal of |Psi(t)|^2 on a fine grid reaching 10 sigma past
    the outer system center, cross term included.

    marginal(x) = sum_b |c_b|^2 |phi_b|^2
                  + 2 Re[c_+ conj(c_-) phi_+ conj(phi_-) kappa]
    with kappa the product of <g_-|g_+> over all non-system coordinates,
    accumulated in log form so large blocks underflow gracefully to zero.
    """
    sys_blk = model.blocks[0]
    log_mag = 0.0
    phase = 0.0
    for blk in model.blocks[1:]:
        lm, ph = complex_pair_overlap(blk, t)
        log_mag += blk.count * lm
        phase += blk.count * ph
    kappa = math.exp(log_mag) * complex(math.cos(phase), math.sin(phase)) \
        if log_mag > -745.0 else 0.0j

    sig = sys_blk.sigma
    cs = [float(sys_blk.centers[b].value(t)) for b in range(2)]
    vs = [float(sys_blk.centers[b].velocity(t)) for b in range(2)]
    lo = min(cs) - 10.0 * sig
    hi = max(cs) + 10.0 * sig
    xs = np.linspace(lo, hi, n_points, endpoint=False)
    phis = []
    for c, v in zip(cs, vs):
        d = xs - c
        phis.append((2 * np.pi * sig ** 2) ** -0.25
                    * np.exp(-d * d / (4 * sig ** 2) + 1j * v * d))
    cp, cm = model.amplitudes
    dens = (abs(cp) ** 2 * np.abs(phis[0]) ** 2
            + abs(cm) ** 2 * np.abs(phis[1]) ** 2
            + 2.0 * (cp * np.conj(cm) * phis[0] * np.conj(phis[1]) * kappa).real)
    dens = np.maximum(dens, 0.0)
    dens /= dens.sum() * (xs[1] - xs[0])
    return xs, dens


# ---------------------------------------------------------------------------
# Outcome classification and the two position predictors.
# ---------------------------------------------------------------------------

def classify_point(point: np.ndarray, t: float, model: BlockModel,
                   ratio_threshold: float = DEFAULT_RATIO_THRESHOLD) -> str:
    """Branch label of one configuration (C,) at time t from its log-weight
    gap, "unresolved" when the weight ratio is below ratio_threshold."""
    gap = model.log_weight_gap(model.block_means(point), t)
    return labels_from_log_ratio(gap, model.labels, ratio_threshold)[0]


def labels_from_log_ratio(log_ratio: np.ndarray, labels: tuple[str, str],
                          ratio_threshold: float) -> list[str]:
    """labels[0] where log_ratio >= log(ratio_threshold), labels[1] where
    it is <= -log(ratio_threshold), "unresolved" in between; a NaN compares
    false both ways and takes labels[1]."""
    cut = math.log(ratio_threshold)
    return [UNRESOLVED if abs(gap) < cut else labels[0] if gap > 0
            else labels[1]
            for gap in np.asarray(log_ratio, dtype=float).tolist()]


def predictor_system(x0: np.ndarray, model: BlockModel) -> list[str]:
    """Branch predicted for each initial system coordinate of x0 (n,) from
    its side of the initial system midpoint (`_plus_is_high`)."""
    blk = _find_block(model, "system")
    mid = 0.5 * float(blk.centers[0].value(0.0) + blk.centers[1].value(0.0))
    return side_label(np.subtract(x0, mid), _plus_is_high(blk, model),
                      model.labels)


def predictor_block_sum(sums: np.ndarray, model: BlockModel, name: str
                        ) -> list[str]:
    """Branch predicted for each initial sum (n,) over the coordinates of
    the named block from its side of zero (`_plus_is_high`)."""
    return side_label(sums, _plus_is_high(_find_block(model, name), model),
                      model.labels)


def _plus_is_high(blk: CoordinateBlock, model: BlockModel) -> bool:
    """Whether branch + ends above branch - in the block (ties pick
    branch +)."""
    return float(blk.centers[0].value(model.T)
                 - blk.centers[1].value(model.T)) >= 0.0


# ---------------------------------------------------------------------------
# Equilibrium sampling and ensemble integration for the analytic model.
# ---------------------------------------------------------------------------

def sample_model_equilibrium(model: BlockModel, n: int, seed: int
                             ) -> np.ndarray:
    """Draw (n, C) initial configurations from |Psi(., t=0)|^2.

    Requires every multi-coordinate block to have branch-independent factors
    at t = 0 (centers equal and velocities zero), which holds for ramps with
    a(0) = 0; those coordinates are exact Gaussians.  The system coordinate
    is sampled from the exact x-marginal on its fine grid
    (x_marginal_density at t = 0).
    """
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    if model.blocks[0].count != 1:
        raise ConfigError("the first block must be the single system coordinate")
    (c0,), (v0,) = model.schedule_tables(np.zeros(1))  # (branch, block)
    moving = (np.abs(c0[0] - c0[1]) > 1e-12) | (np.abs(v0) > 1e-12).any(axis=0)
    for blk, bad in zip(model.blocks[1:], moving[1:]):
        if bad:
            raise ConfigError(
                f"block {blk.name!r} factors must coincide at t=0 for sampling")

    xs, dens = x_marginal_density(model, 0.0)
    dx = xs[1] - xs[0]
    u, z = _draws(seed, n, 1, model.n_coords - 1)
    later = model.coordinate_blocks()[1:]
    sigma = np.array([blk.sigma for blk in model.blocks])
    out = np.empty((n, model.n_coords))
    out[:, 0] = inverse_cdf_sample(_cell_cdf(dens * dx), xs[0], dx, u[:, 0])
    out[:, 1:] = c0[0, later] + sigma[later] * z
    return out


@dataclass
class PointerEnsembleResult(RecordedEnsemble):
    """Recorded block means of an ensemble, read as the read-only sequence
    of its trajectories.  Trajectory i is rebuilt each time it is read, as
    initial[i] + (means[i] - means[i, :1])[:, block_id], so reading the
    ensemble one trajectory at a time holds one position table."""
    times: np.ndarray
    initial: np.ndarray    # (n, C) configurations at t = 0
    block_id: np.ndarray   # (C,) block index of each coordinate
    means: np.ndarray      # (n, n_rec, n_blocks)
    reg_flags: np.ndarray  # (n, n_rec)
    node_counts: np.ndarray  # (n,)

    def _trajectory(self, i: int) -> Trajectory:
        return Trajectory(self.times,
                          self.initial[i] + (self.means[i] - self.means[i, :1])
                          [:, self.block_id],
                          node_regularization_events=int(self.node_counts[i]),
                          regularized_flags=self.reg_flags[i])

    def final_points(self) -> np.ndarray:
        """(n, C) positions at the last recorded time."""
        shift = self.means[:, -1] - self.means[:, 0]
        return self.initial + shift[:, self.block_id]


def integrate_pointer_ensemble(model: BlockModel, initial: np.ndarray,
                               dt: float, record_stride: int = 1
                               ) -> PointerEnsembleResult:
    """RK4-integrate every configuration over [0, T] under the closed-form
    velocity field, as the ODE of its block means.  The loop sees one frame
    interval [0, T], both frames present, on an unbounded domain, so its
    steps follow `config.trajectory_steps` with one frame spanning [0, T]
    (record_stride 0 records the endpoints alone) and no trajectory
    fails."""
    q0 = np.array(initial, dtype=float, ndmin=2)
    if q0.shape[1] != model.n_coords:
        raise ConfigError(
            f"initial configurations must have {model.n_coords} coordinates")
    n_steps, stride = trajectory_steps(dt, model.T, model.T, record_stride)
    half_times = np.arange(2 * n_steps + 1) * (0.5 * dt)
    unbounded = np.full((len(model.blocks), 1), np.inf)
    means, flags, node_counts, _, _ = _kernels.run_rk4(_kernels.grid_rk4(
        model.block_means(q0), _kernels.block_stage_velocity,
        (model.block_tables(half_times), 0.5 * dt, POINTER_NODE_THRESH),
        -unbounded, unbounded, 0.0, 0.0, dt, n_steps, stride, model.T, 2), 1)
    times = dt * stride * np.arange(means.shape[1])
    return PointerEnsembleResult(times, q0, model.coordinate_blocks(), means,
                                 flags, node_counts)
