"""Hot trajectory-integration kernels, vectorized over the ensemble in numpy.

One RK4 loop, `grid_rk4`, integrates every ensemble.  It owns the RK4
step, the clamping of trajectories that leave the domain, node counting
and recording, and takes its stage velocity as a parameter.  It is a
generator that can be resumed frame by frame, so the ensemble can be
integrated while a propagation produces the frames: each step waits until
the frames that bracket its last stage time are present.  Its stage
velocities:

- `grid_velocity` interpolates 1D density and current stacks that hold
  frame f in slot f % S: all F frames (S = F), or a ring of the last S
  frames of a running propagation.  Each RK4 stage builds the flat
  indices of the cell ends in the two bracketing frames, and their
  weights, once, and gathers each stored field with one `take`.
- `product_velocity` serves a product state phi(y) chi(z) on the (y, z)
  plane from per-frame tables of each factor on its own line grid, the
  only 2D flow in the package, so no 2D array is ever built; a per-point
  Gordon weight lets one call integrate the flows with and without the
  spin-curl term side by side.
- `block_stage_velocity` follows the closed-form velocity of the
  branched-Gaussian pointer model, where all coordinates of a block move
  together, so the loop integrates one coordinate per block (the block
  mean) whatever the block sizes.  The model is one frame interval
  [0, T] with both frames present, on an unbounded domain.

Node handling: when the local density (or the branched-Gaussian
denominator) falls below threshold, the trajectory reuses its last finite
velocity and the event is counted.  A step where no stage flags a node and
no trajectory has failed skips the node masks and counts, which would
leave every value as it is; the results are bitwise those of the masked
step.  Trajectories never share mutable state, so results are independent
of thread count and scheduling.
"""

import math
from typing import NamedTuple

import numpy as np

ACTIVE_BACKEND = "numpy"  # recorded in run manifests

NODE_ABS_FLOOR = 1e-300  # hard underflow floor for denominators


# ---------------------------------------------------------------------------
# Grid stage velocities: v = G/rho with G and rho linearly interpolated in
# time between stored frames and linearly in space (per factor on the
# (y, z) plane).  Both stage velocities take (q, t, vprev, *tables, t0,
# frame_dt, lo, step, node_rel), with q (n_coords, n) and lo, step
# (n_coords, 1) the x_min and dx of each coordinate's line grid (periodic
# axes).
# ---------------------------------------------------------------------------

def _bracket(t, t0, frame_dt, n_frames):
    """Lower bracketing frame f0 of time t and the weight w of f0 + 1."""
    ft = (t - t0) / frame_dt
    f0 = min(max(math.floor(ft + 1e-12), 0), n_frames - 2)
    return f0, ft - f0


def _guided(rho_i, g_i, peaks, f0, w, node_rel, vprev):
    """v = G / rho, and node flags: where rho falls below node_rel times
    the time-interpolated frame peak, the point takes vprev.  g_i is a
    (n_coords, n) array or a sequence of n_coords (n,) arrays."""
    peak = (1 - w) * peaks[f0] + w * peaks[f0 + 1]
    node = rho_i < max(node_rel * peak, NODE_ABS_FLOOR)
    if not np.count_nonzero(node):
        return np.asarray(g_i) / rho_i, node
    v = np.asarray(g_i) / np.where(node, 1.0, rho_i)
    return np.where(node, vprev, v), node


# offsets of a cell's lower and upper end
_CELL_ENDS = np.array([[0], [1]], dtype=np.int64)


def grid_velocity(q, t, vprev, fields, peaks, t0, frame_dt, lo, step,
                  node_rel):
    """Velocity (1, n) at points q (1, n) on a 1D grid and time t, and node
    flags.

    fields = (rho, G), each (S, n_x) and C-contiguous with frame f in slot
    f % S, and peaks (F,) holds the peak of rho in every frame.  A stage
    builds the flat indices of the two cell ends in frames f0 and f0 + 1,
    and their interpolation weights, once, each as one (4, n) stack; each
    field is then one `take` and one weighted sum over those four values.
    """
    slots, n_x = fields[0].shape
    f0, w = _bracket(t, t0, frame_dt, len(peaks))
    s = (q - lo.item()) / step.item()
    i0 = np.floor(s)
    frac = s - i0
    # lower and upper cell end (2, n), and their weights 1 - frac, frac
    ends = (i0.astype(np.int64) + _CELL_ENDS) % n_x
    cell_w = np.concatenate((1 - frac, frac))
    # the same cell ends in frames f0 and f0 + 1, weighted linearly in time
    idx = np.add.outer((f0 % slots * n_x, (f0 + 1) % slots * n_x),
                       ends).reshape(4, -1)
    wts = np.multiply.outer((1 - w, w), cell_w).reshape(4, -1)
    rho_i, g_i = [(f.take(idx) * wts).sum(axis=0) for f in fields]
    return _guided(rho_i, g_i[None], peaks, f0, w, node_rel, vprev)


def product_velocity(q, t, vprev, y_tab, z_tab, peaks, gordon, t0,
                     frame_dt, lo, step, node_rel):
    """Velocity (2, n) at points q (2, n) = (y, z) and time t of a product
    state phi(y) chi(z) on the (y, z) plane, and node flags.

    y_tab (F, 3, ny) holds P = |phi|^2, J_phi and -(hbar/2m) P' per frame;
    z_tab (F, 4, nz) holds R, J_chi, S = 2 Re(chi_up* chi_down) and
    (hbar/2m) S'; peaks (F,) is max P * max R.  Each table is linearly
    interpolated in space at frames f0 and f0 + 1; per frame

        rho = P R,  G_y = J_phi R + g P (hbar/2m) S',
                    G_z = P J_chi - g (hbar/2m) P' S

    with the per-point Gordon weight g = gordon (n,) (1 with the spin-curl
    term, 0 without), and those are interpolated linearly in time.  The
    bilinear interpolation of a product stack is the product of the two
    linear interpolations, so this equals the bilinear interpolation of
    the 2D density and current stacks up to rounding.
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


def grid_rk4(q0, velocity, args, lo, hi, step, t0, dt, n_steps,
             rec_stride, frame_dt, n_frames):
    """RK4 of points q0 (n, n_coords) under the stage velocity
    `velocity(q, t, vprev, *args)` on the domain [lo, hi) of each
    coordinate (lo, hi (n_coords, 1), infinite for an unbounded axis),
    over n_frames frames frame_dt apart from t0.

    A generator: primed with next(), it is sent the index of the last
    frame present and runs every step whose stages read no later frame.
    The k4 stage at a step's end reads the frames that bracket t + dt, so
    the steps trail the newest frame by up to two frames.  It then yields
    the first frame that the next step reads, the oldest one that must
    still be stored, and once the last step is done it returns the
    recorded points (n, n_rec, n_coords), per-record node flags,
    per-trajectory node counts, failure flags and exit times.  A
    trajectory that leaves the domain is clamped into [lo, hi - 1e-9 step]
    (step the grid spacing), marked failed and no longer moved.
    """
    n, n_coords = q0.shape
    n_rec = n_steps // rec_stride + 1

    rec = np.empty((n, n_rec, n_coords), dtype=np.float64)
    reg_flags = np.zeros((n, n_rec), dtype=np.bool_)
    node_counts = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=np.bool_)
    exit_times = np.full(n, np.nan)

    # coordinates on the leading axis, so each one is a contiguous row
    q = np.ascontiguousarray(q0.T, dtype=np.float64)
    vprev = np.zeros((n_coords, n))
    rec[:, 0, :] = q.T
    step_events = np.zeros(n, dtype=np.int64)

    # per-axis bounds as floats, for the exit pre-test, which skips an
    # axis unbounded both ways: no point leaves it
    bounded = [(ax, a, b) for ax, (a, b)
               in enumerate(zip(lo[:, 0].tolist(), hi[:, 0].tolist()))
               if math.isfinite(a) or math.isfinite(b)]
    any_failed = False
    half_dt = 0.5 * dt

    ready = yield
    for i in range(n_steps):
        t = t0 + i * dt
        while _bracket(t + dt, t0, frame_dt, n_frames)[0] + 1 > ready:
            ready = yield _bracket(t, t0, frame_dt, n_frames)[0]
        k1, n1 = velocity(q, t, vprev, *args)
        k2, n2 = velocity(q + half_dt * k1, t + half_dt, vprev, *args)
        k3, n3 = velocity(q + half_dt * k2, t + half_dt, vprev, *args)
        k4, n4 = velocity(q + dt * k3, t + dt, vprev, *args)
        q_new = q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (any_failed or np.count_nonzero(n1) or np.count_nonzero(n2)
                or np.count_nonzero(n3) or np.count_nonzero(n4)):
            alive = ~failed
            nodes = np.where(alive, n1.astype(np.int64) + n2 + n3 + n4, 0)
            step_events += nodes
            node_counts += nodes
            vprev = np.where(n4 | ~alive, vprev, k4)
            q = np.where(alive, q_new, q)
        else:
            # no node and no failed trajectory: the masks change nothing
            vprev, q = k4, q_new
        # failed points are clamped inside the domain, so a step with every
        # point inside the bounds of each axis has no new exit
        if any(q[ax].min() < a or q[ax].max() >= b for ax, a, b in bounded):
            out = ~failed & np.any((q < lo) | (q >= hi), axis=0)
            if np.any(out):
                any_failed = True
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
# Block-collective pointer velocity.  Two rigid Gaussian-product branches over
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
# ---------------------------------------------------------------------------

class BlockTables(NamedTuple):
    """Per-time coefficients of the block ODE; leading axis time."""
    mid: np.ndarray   # (nt, nb) branch-center midpoints h_k
    coef: np.ndarray  # (nt, nb, 2) d(lambda gap, theta gap) / d m_k
    base: np.ndarray  # (nt, 2) the two gaps at m = h
    pull: np.ndarray  # (nt, nb) (hbar/m) (c_+k - c_-k) / (2 sigma_k^2)
    dv: np.ndarray    # (nt, nb) v_+k - v_-k
    vm: np.ndarray    # (nt, nb) v_-k


def block_tables(centers, vels, counts, sigma2, log_amp,
                 amp_phase) -> BlockTables:
    """Tables from centers[t, b, k] and vels[t, b, k] (branch b = +, -),
    block sizes counts[k] and widths sigma2[k] = sigma_k^2, and the branch
    amplitudes as log|c_b| and arg c_b; hbar = m = 1."""
    cp, cm = centers[:, 0], centers[:, 1]
    vp, vm = vels[:, 0], vels[:, 1]
    dc = cp - cm
    coef = np.stack([counts * dc / (2.0 * sigma2),
                     counts * (vp - vm)], axis=-1)
    phase = (amp_phase[0] - amp_phase[1]) \
        - 0.5 * np.sum(counts * (vp + vm) * dc, axis=-1)
    base = np.stack([np.full(len(cp), log_amp[0] - log_amp[1]), phase],
                    axis=-1)
    return BlockTables(0.5 * (cp + cm), coef, base,
                       dc / (2.0 * sigma2), vp - vm, vm)


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
    has_node = np.count_nonzero(node)
    inv = 1.0 / (np.where(node, 1.0, den) if has_node else den)
    im_w = 2.0 * a_ch * np.sin(half) * inv   # a sin theta / den
    re_w = np.where(lam >= 0, one_minus_a + a_cos,
                    a_cos - a * one_minus_a) * inv
    v = (im_w[:, None] * tab.pull[ti] + re_w[:, None] * tab.dv[ti]
         + tab.vm[ti])
    if has_node:
        v = np.where(node[:, None], vprev, v)
    return v, node


def block_stage_velocity(q, t, vprev, tab: BlockTables, half_dt,
                         node_thresh):
    """block_velocity as a stage velocity of `grid_rk4`: block means q and
    vprev (n_blocks, n), over tables at the half-step times
    0, half_dt, 2 half_dt, ..., so stage time t reads row
    round(t / half_dt)."""
    v, node = block_velocity(q.T, tab, round(t / half_dt), node_thresh,
                             vprev.T)
    return v.T, node


def run_rk4(rk4, last_frame):
    """The result of a `grid_rk4` generator handed every frame up to
    last_frame, its last."""
    next(rk4)
    try:
        rk4.send(last_frame)
    except StopIteration as done:
        return done.value
    raise RuntimeError("the frames present do not cover every step")
