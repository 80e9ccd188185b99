"""Plain reference loops of the two RK4 kernels, for bitwise comparison.

`_kernels.grid_rk4` and `_kernels.block_rk4` take shortcuts when a step
has no node and no failed trajectory: they skip the masking and the node
counts, and pre-test the exit check per axis.  This module does every
step the long way, with each mask applied on every step, and the stage
velocities written as separate per-end arrays.  It keeps the kernels' float
arithmetic and its order, so the kernels must match it bitwise on any
ensemble, nodes and exits included.
"""

import numpy as np

from bohmctx._kernels import NODE_ABS_FLOOR, _bracket, branch_gaps


def grid_velocity(q, t, vprev, fields, peaks, t0, frame_dt, lo, step,
                  node_rel):
    """The 1D stage velocity of `_kernels.grid_velocity`."""
    slots, n_x = fields[0].shape
    f0, w = _bracket(t, t0, frame_dt, len(peaks))
    s = (q[0] - lo[0]) / step[0]
    i0 = np.floor(s)
    frac = s - i0
    lower = i0.astype(np.int64) % n_x
    upper = (lower + 1) % n_x
    base0, base1 = f0 % slots * n_x, (f0 + 1) % slots * n_x
    idx = np.array([lower + base0, upper + base0, lower + base1,
                    upper + base1])
    wts = np.array([(1 - w) * (1 - frac), (1 - w) * frac, w * (1 - frac),
                    w * frac])
    rho_i, g_i = [(f.take(idx) * wts).sum(axis=0) for f in fields]
    peak = (1 - w) * peaks[f0] + w * peaks[f0 + 1]
    node = rho_i < max(node_rel * peak, NODE_ABS_FLOOR)
    v = np.array((g_i,)) / np.where(node, 1.0, rho_i)
    return np.where(node, vprev, v), node


def grid_rk4(q0, velocity, args, lo, step, shape, dt, n_steps, rec_stride):
    """`_kernels.grid_rk4` over frames that are all present, from t = 0:
    (recorded points, per-record node flags, node counts, failure flags,
    exit times)."""
    n, dims = q0.shape
    hi = lo + np.reshape(shape, (dims, 1)) * step
    n_rec = n_steps // rec_stride + 1
    rec = np.empty((n, n_rec, dims))
    reg_flags = np.zeros((n, n_rec), dtype=np.bool_)
    node_counts = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=np.bool_)
    exit_times = np.full(n, np.nan)
    q = np.ascontiguousarray(q0.T, dtype=np.float64)
    vprev = np.zeros((dims, n))
    rec[:, 0, :] = q.T
    step_events = np.zeros(n, dtype=np.int64)
    for i in range(n_steps):
        t = i * dt
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
        failed |= out
        exit_times[out] = t + dt
        q = np.where(out, np.clip(q, lo, hi - step * 1e-9), q)
        if (i + 1) % rec_stride == 0:
            r = (i + 1) // rec_stride
            rec[:, r, :] = q.T
            reg_flags[:, r] = step_events > 0
            step_events[:] = 0
    return rec, reg_flags, node_counts, failed, exit_times


def block_velocity(means, tab, ti, node_thresh, vprev):
    """`_kernels.block_velocity`, with the node mask applied always."""
    lam, theta = branch_gaps(means, tab, ti)
    neg = -np.abs(lam)
    a = np.exp(neg)
    one_minus_a = -np.expm1(neg)
    half = 0.5 * theta
    ch = np.cos(half)
    a_ch = a * ch
    a_cos = 2.0 * a_ch * ch
    den = one_minus_a * one_minus_a + 2.0 * a_cos
    node = den < node_thresh
    inv = 1.0 / np.where(node, 1.0, den)
    im_w = 2.0 * a_ch * np.sin(half) * inv
    re_w = np.where(lam >= 0, one_minus_a + a_cos,
                    a_cos - a * one_minus_a) * inv
    v = (im_w[:, None] * tab.pull[ti] + re_w[:, None] * tab.dv[ti]
         + tab.vm[ti])
    return np.where(node[:, None], vprev, v), node


def block_rk4(m0, tab, node_thresh, dt, n_steps, rec_stride):
    """`_kernels.block_rk4`: (recorded means, per-record node flags, node
    counts)."""
    n, nb = m0.shape
    n_rec = n_steps // rec_stride + 1
    rec = np.empty((n, n_rec, nb))
    reg_flags = np.zeros((n, n_rec), dtype=np.bool_)
    node_counts = np.zeros(n, dtype=np.int64)
    m = m0.astype(np.float64)
    vprev = np.zeros((n, nb))
    rec[:, 0, :] = m
    step_events = np.zeros(n, dtype=np.int64)
    for step in range(n_steps):
        i2 = 2 * step
        k1, n1 = block_velocity(m, tab, i2, node_thresh, vprev)
        k2, n2 = block_velocity(m + 0.5 * dt * k1, tab, i2 + 1, node_thresh,
                                vprev)
        k3, n3 = block_velocity(m + 0.5 * dt * k2, tab, i2 + 1, node_thresh,
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
