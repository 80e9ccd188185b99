"""Hot trajectory-integration kernels, vectorized over the ensemble in numpy.

All kernels integrate classical RK4.  The grid kernel `grid_rk4` owns the
RK4 loop, the clamping of trajectories that leave the grid, node counting
and recording, and takes its stage velocity as a parameter.  It is a
generator that can be resumed frame by frame, so the ensemble can be
integrated while a propagation produces the frames: each step waits until
the frames that bracket its last stage time are present.  Its stage
velocities:

- `grid_velocity` interpolates density and current stacks in 1D or 2D
  that hold frame f in slot f % S: all F frames (S = F), or a ring of the
  last S frames of a running propagation.  Each RK4 stage builds the flat
  indices of the cell corners in the two bracketing frames once and
  gathers each stored field with one `take`.
- `product_velocity` serves a product state phi(y) chi(z) on a 2D grid
  from per-frame 1D tables of each factor, so no 2D stack is ever built;
  a per-point Gordon weight lets one call integrate the flows with and
  without the spin-curl term side by side.

The pointer kernel follows the closed-form velocity of the branched-Gaussian
model, where all coordinates of a block move together, so it integrates one
coordinate per block (the block mean) whatever the block sizes.  Node
handling: when the local density (or the branched-Gaussian denominator)
falls below threshold, the trajectory reuses its last finite velocity and
the event is counted.  Trajectories never share mutable state, so results
are independent of thread count and scheduling.
"""

import math
from typing import NamedTuple

import numpy as np

ACTIVE_BACKEND = "numpy"  # recorded in run manifests

NODE_ABS_FLOOR = 1e-300  # hard underflow floor for denominators


# ---------------------------------------------------------------------------
# Grid kernel: velocity v = G/rho with G and rho linearly interpolated in
# time between stored frames and linearly (1D) / bilinearly (2D) in space.
# Both stage velocities take (q, t, vprev, *tables, t0, frame_dt, lo, step,
# node_rel), with q (dims, n) and lo, step (dims, 1) the grid's x_min and
# dx (periodic axes).
# ---------------------------------------------------------------------------

def _bracket(t, t0, frame_dt, n_frames):
    """Lower bracketing frame f0 of time t and the weight w of f0 + 1."""
    ft = (t - t0) / frame_dt
    f0 = min(max(math.floor(ft + 1e-12), 0), n_frames - 2)
    return f0, ft - f0


def _guided(rho_i, g_i, peaks, f0, w, node_rel, vprev):
    """v = G / rho, and node flags: where rho falls below node_rel times
    the time-interpolated frame peak, the point takes vprev."""
    peak = (1 - w) * peaks[f0] + w * peaks[f0 + 1]
    node = rho_i < max(node_rel * peak, NODE_ABS_FLOOR)
    v = np.array(g_i) / np.where(node, 1.0, rho_i)
    return np.where(node, vprev, v), node


def grid_velocity(q, t, vprev, fields, peaks, t0, frame_dt, lo, step,
                  node_rel):
    """Velocity (dims, n) at points q (dims, n) and time t, and node flags.

    fields = (rho, G_0, ..., G_dims-1), each (S, *grid.shape) and
    C-contiguous with frame f in slot f % S, and peaks (F,) holds the peak
    of rho in every frame.  A stage builds the flat indices of the 2**dims
    cell corners in frames f0 and f0 + 1, and their interpolation weights,
    once; each field is then one `take` and one weighted sum over those
    corners.
    """
    dims, n = q.shape
    slots, *shape = fields[0].shape
    f0, w = _bracket(t, t0, frame_dt, len(peaks))
    s = (q - lo) / step
    i0 = np.floor(s)
    frac = s - i0
    i0 = i0.astype(np.int64)
    # flat offsets within a frame (C order) of the 2**dims cell corners and
    # their weights, one axis of length 2 (lower, upper) per grid axis
    for ax, n_ax in enumerate(shape):
        lower = i0[ax] % n_ax
        corners = np.array([lower, (lower + 1) % n_ax])
        weights = np.array([1 - frac[ax], frac[ax]])
        if ax == 0:
            idx, wts = corners, weights
        else:
            idx = idx[..., None, :] * n_ax + corners
            wts = wts[..., None, :] * weights
    # the same corners in frames f0 and f0 + 1, weighted linearly in time
    size = fields[0][0].size
    idx = np.concatenate([idx + f0 % slots * size,
                          idx + (f0 + 1) % slots * size])
    wts = np.concatenate([(1 - w) * wts, w * wts])
    idx, wts = idx.reshape(-1, n), wts.reshape(-1, n)
    rho_i, *g_i = [(f.take(idx) * wts).sum(axis=0) for f in fields]
    return _guided(rho_i, g_i, peaks, f0, w, node_rel, vprev)


def product_velocity(q, t, vprev, y_tab, z_tab, peaks, gordon, t0,
                     frame_dt, lo, step, node_rel):
    """Velocity (2, n) at points q (2, n) = (y, z) and time t of a product
    state phi(y) chi(z) on a 2D grid, and node flags.

    y_tab (F, 3, ny) holds P = |phi|^2, J_phi and -(hbar/2m) P' per frame;
    z_tab (F, 4, nz) holds R, J_chi, S = 2 Re(chi_up* chi_down) and
    (hbar/2m) S'; peaks (F,) is max P * max R.  Each table is linearly
    interpolated in space at frames f0 and f0 + 1; per frame

        rho = P R,  G_y = J_phi R + g P (hbar/2m) S',
                    G_z = P J_chi - g (hbar/2m) P' S

    with the per-point Gordon weight g = gordon (n,) (1 with the spin-curl
    term, 0 without), and those are interpolated linearly in time.  The
    bilinear interpolation of a product stack is the product of the two
    linear interpolations, so this equals `grid_velocity` over the 2D
    stacks up to rounding.
    """
    f0, w = _bracket(t, t0, frame_dt, len(peaks))
    s = (q - lo) / step
    i0 = np.floor(s)
    frac = s - i0
    one_minus = 1 - frac
    n_ax = np.array([[y_tab.shape[-1]], [z_tab.shape[-1]]])
    lower = i0.astype(np.int64) % n_ax
    upper = (lower + 1) % n_ax
    # periodic linear interpolation of each table at frames f0 and f0 + 1:
    # y (2, 3, n) = P, J_phi, -(hbar/2m) P'; z (2, 4, n) = R, J_chi, S,
    # (hbar/2m) S'
    y, z = [tab[f0:f0 + 2].take(lower[ax], axis=-1) * one_minus[ax]
            + tab[f0:f0 + 2].take(upper[ax], axis=-1) * frac[ax]
            for ax, tab in enumerate((y_tab, z_tab))]
    pz = y[:, 0:1] * z             # P R, P J_chi, P S, P (hbar/2m) S'
    yz = y[:, 1:3] * z[:, 0:3:2]   # J_phi R, -(hbar/2m) P' S
    pz[:, 2] = yz[:, 0] + gordon * pz[:, 3]   # G_y
    pz[:, 1] += gordon * yz[:, 1]             # G_z
    rho_i, g_z, g_y = (1 - w) * pz[0, :3] + w * pz[1, :3]
    return _guided(rho_i, (g_y, g_z), peaks, f0, w, node_rel, vprev)


def grid_rk4(q0, velocity, args, lo, step, shape, t0, dt, n_steps,
             rec_stride, frame_dt, n_frames):
    """RK4 of points q0 (n, dims) under the stage velocity
    `velocity(q, t, vprev, *args)` on the periodic grid of `shape` cells
    of size step (dims, 1) from lo (dims, 1), over n_frames frames
    frame_dt apart from t0.

    A generator: primed with next(), it is sent the index of the last
    frame present and runs every step whose stages read no later frame.
    The k4 stage at a step's end reads the frames that bracket t + dt, so
    the steps trail the newest frame by up to two frames.  It then yields
    the first frame that the next step reads, the oldest one that must
    still be stored, and once the last step is done it returns the
    recorded points (n, n_rec, dims), per-record node flags,
    per-trajectory node counts, failure flags and exit times.  A
    trajectory that leaves the grid is clamped inside it, marked failed
    and no longer moved.
    """
    n, dims = q0.shape
    hi = lo + np.reshape(shape, (dims, 1)) * step
    n_rec = n_steps // rec_stride + 1

    rec = np.empty((n, n_rec, dims), dtype=np.float64)
    reg_flags = np.zeros((n, n_rec), dtype=np.bool_)
    node_counts = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=np.bool_)
    exit_times = np.full(n, np.nan)

    # coordinates on the leading axis, so each one is a contiguous row
    q = np.ascontiguousarray(q0.T, dtype=np.float64)
    vprev = np.zeros((dims, n))
    rec[:, 0, :] = q.T
    step_events = np.zeros(n, dtype=np.int64)

    ready = yield
    for i in range(n_steps):
        t = t0 + i * dt
        while _bracket(t + dt, t0, frame_dt, n_frames)[0] + 1 > ready:
            ready = yield _bracket(t, t0, frame_dt, n_frames)[0]
        alive = ~failed
        k1, n1 = velocity(q, t, vprev, *args)
        k2, n2 = velocity(q + 0.5 * dt * k1, t + 0.5 * dt, vprev, *args)
        k3, n3 = velocity(q + 0.5 * dt * k2, t + 0.5 * dt, vprev, *args)
        k4, n4 = velocity(q + dt * k3, t + dt, vprev, *args)
        nodes = np.where(alive, n1.astype(np.int64) + n2 + n3 + n4, 0)
        step_events += nodes
        node_counts += nodes
        vprev = np.where(n4 | ~alive, vprev, k4)
        q_new = q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        q = np.where(alive, q_new, q)
        out = alive & np.any((q < lo) | (q >= hi), axis=0)
        if np.any(out):
            failed |= out
            exit_times[out] = t + dt
            q = np.where(out, np.clip(q, lo, hi - step * 1e-9), q)
        if (i + 1) % rec_stride == 0:
            r = (i + 1) // rec_stride
            rec[:, r, :] = q.T
            reg_flags[:, r] = step_events > 0
            step_events[:] = 0
    return rec, reg_flags, node_counts, failed, exit_times


# ---------------------------------------------------------------------------
# Block-collective pointer kernel.  Two rigid Gaussian-product branches over
# coordinate blocks (block k: n_k coordinates of width sigma_k, branch centers
# c_bk(t) moving at v_bk(t)).  In the guidance velocity the q_c terms cancel,
# so every coordinate of block k moves with one velocity
#
#   v_k = (hbar/m) Im(w) (c_+k - c_-k) / (2 sigma_k^2)
#         + Re(w) v_+k + (1 - Re w) v_-k,         w = r_+ / (r_+ + r_-),
#
# and the branch weight w depends on q only through the block means m_k:
#
#   lambda_+ - lambda_- = log|c_+/c_-|
#                         - sum_k n_k [(m_k - c_+k)^2 - (m_k - c_-k)^2] / (4 sigma_k^2)
#   theta_+ - theta_-   = arg(c_+/c_-)
#                         + (m/hbar) sum_k n_k [v_+k (m_k - c_+k) - v_-k (m_k - c_-k)]
#
# with r_b = exp(lambda_b + i theta_b).  Those sums equal the per-coordinate
# ones exactly (the within-block spread is common to both branches), so the
# ensemble integrates the (n, n_blocks) block means; each coordinate keeps
# its t = 0 offset from its block mean.  Both gaps are affine in m; with the
# midpoints h_k = (c_+k + c_-k)/2 they read gaps = base + sum_k coef_k (m_k - h_k)
# (the first because (m-c_+)^2 - (m-c_-)^2 = 2 (c_- - c_+)(m - h)), and
# `block_tables` tabulates h, coef, base and the velocity terms once per
# time so that an RK4 stage costs a few operations on (n, n_blocks) arrays.
# The kernel tables carry a leading half-step time index: stage times t,
# t+dt/2, t+dt map to 2*step, 2*step+1, 2*step+2.
# ---------------------------------------------------------------------------

class BlockTables(NamedTuple):
    """Per-time coefficients of the block ODE; leading axis time."""
    mid: np.ndarray   # (nt, nb) branch-center midpoints h_k
    coef: np.ndarray  # (nt, nb, 2) d(lambda gap, theta gap) / d m_k
    base: np.ndarray  # (nt, 2) the two gaps at m = h
    pull: np.ndarray  # (nt, nb) (hbar/m) (c_+k - c_-k) / (2 sigma_k^2)
    dv: np.ndarray    # (nt, nb) v_+k - v_-k
    vm: np.ndarray    # (nt, nb) v_-k


def block_tables(centers, vels, counts, sigma2, log_amp, amp_phase, m_over_h,
                 h_over_m) -> BlockTables:
    """Tables from centers[t, b, k] and vels[t, b, k] (branch b = +, -),
    block sizes counts[k] and widths sigma2[k] = sigma_k^2, and the branch
    amplitudes as log|c_b| and arg c_b."""
    cp, cm = centers[:, 0], centers[:, 1]
    vp, vm = vels[:, 0], vels[:, 1]
    dc = cp - cm
    coef = np.stack([counts * dc / (2.0 * sigma2),
                     m_over_h * counts * (vp - vm)], axis=-1)
    phase = (amp_phase[0] - amp_phase[1]) \
        - 0.5 * m_over_h * np.sum(counts * (vp + vm) * dc, axis=-1)
    base = np.stack([np.full(len(cp), log_amp[0] - log_amp[1]), phase],
                    axis=-1)
    return BlockTables(0.5 * (cp + cm), coef, base,
                       h_over_m * dc / (2.0 * sigma2), vp - vm, vm)


def branch_gaps(means, tab: BlockTables, ti):
    """(lambda_+ - lambda_-, theta_+ - theta_-), each (n,), at block means
    (n, nb), time index ti."""
    gaps = tab.base[ti] + np.einsum("nk,kj->nj", means - tab.mid[ti],
                                    tab.coef[ti])
    return gaps[:, 0], gaps[:, 1]


def block_velocity(means, tab: BlockTables, ti, node_thresh, vprev):
    """Guidance velocity (n, nb) of every block at block means (n, nb).

    Returns (v, node): where |r_+ + r_-|^2 < node_thresh (branch moduli
    scaled so the larger is 1) the point is flagged and takes vprev.  With
    a = exp(-|lambda gap|) that sum is (1 - a)^2 + 4 a cos^2(theta gap / 2),
    which keeps its relative accuracy next to a node.
    """
    lam, theta = branch_gaps(means, tab, ti)
    neg = -np.abs(lam)
    a = np.exp(neg)
    one_minus_a = -np.expm1(neg)
    half = 0.5 * theta
    ch = np.cos(half)
    a_ch = a * ch
    a_cos = 2.0 * a_ch * ch                   # a (1 + cos theta)
    den = one_minus_a * one_minus_a + 2.0 * a_cos
    node = den < node_thresh
    inv = 1.0 / np.where(node, 1.0, den)
    im_w = 2.0 * a_ch * np.sin(half) * inv   # a sin theta / den
    re_w = np.where(lam >= 0, one_minus_a + a_cos,
                    a_cos - a * one_minus_a) * inv
    v = (im_w[:, None] * tab.pull[ti] + re_w[:, None] * tab.dv[ti]
         + tab.vm[ti])
    return np.where(node[:, None], vprev, v), node


def block_rk4(m0, tab: BlockTables, node_thresh, dt, n_steps, rec_stride):
    """RK4 of the block means m0 (n, nb) over tables at half-step times;
    returns the recorded means (n, n_rec, nb), per-record node flags and
    per-trajectory node counts."""
    n, nb = m0.shape
    n_rec = n_steps // rec_stride + 1
    rec = np.empty((n, n_rec, nb), dtype=np.float64)
    reg_flags = np.zeros((n, n_rec), dtype=np.bool_)
    node_counts = np.zeros(n, dtype=np.int64)

    m = m0.astype(np.float64)
    vprev = np.zeros((n, nb))
    rec[:, 0, :] = m
    step_events = np.zeros(n, dtype=np.int64)
    half_dt = 0.5 * dt

    for step in range(n_steps):
        i2 = 2 * step
        k1, n1 = block_velocity(m, tab, i2, node_thresh, vprev)
        k2, n2 = block_velocity(m + half_dt * k1, tab, i2 + 1, node_thresh,
                                vprev)
        k3, n3 = block_velocity(m + half_dt * k2, tab, i2 + 1, node_thresh,
                                vprev)
        k4, n4 = block_velocity(m + dt * k3, tab, i2 + 2, node_thresh, vprev)
        nodes = n1.astype(np.int64) + n2 + n3 + n4
        step_events += nodes
        node_counts += nodes
        vprev = np.where(n4[:, None], vprev, k4)
        m = m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % rec_stride == 0:
            r = (step + 1) // rec_stride
            rec[:, r, :] = m
            reg_flags[:, r] = step_events > 0
            step_events[:] = 0
    return rec, reg_flags, node_counts
