"""Hot trajectory-integration kernels, vectorized over the ensemble in numpy.

All kernels integrate classical RK4 on an interpolated Bohmian velocity
field.  Node handling: when the local density (or the branched-Gaussian
denominator) falls below threshold, the trajectory reuses its last finite
velocity and the event is counted.  Trajectories never share mutable state,
so results are independent of thread count and scheduling.
"""

import numpy as np

ACTIVE_BACKEND = "numpy"  # recorded in run manifests

NODE_ABS_FLOOR = 1e-300  # hard underflow floor for denominators


# ---------------------------------------------------------------------------
# Grid-frame kernels: velocity v = G/rho with G and rho linearly interpolated
# in time between stored frames and linearly (1D) / bilinearly (2D) in space.
# ---------------------------------------------------------------------------

def grid_rk4_1d(x0, rho, g, peaks, t0, frame_dt, x_min, dx, node_rel, dt,
                n_steps, rec_stride):
    n = x0.shape[0]
    n_frames, nx = rho.shape
    x_max = x_min + nx * dx
    n_rec = n_steps // rec_stride + 1

    rec = np.empty((n, n_rec), dtype=np.float64)
    reg_flags = np.zeros((n, n_rec), dtype=np.bool_)
    node_counts = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=np.bool_)
    exit_times = np.full(n, np.nan)

    x = x0.astype(np.float64)
    vprev = np.zeros(n)
    rec[:, 0] = x
    step_events = np.zeros(n, dtype=np.int64)

    def velocity(xq, t):
        ft = (t - t0) / frame_dt
        f0 = min(max(int(np.floor(ft + 1e-12)), 0), n_frames - 2)
        w = ft - f0
        s = (xq - x_min) / dx
        i0 = np.floor(s).astype(np.int64)
        frac = s - i0
        i0 = i0 % nx
        i1 = (i0 + 1) % nx
        rho_i = ((1 - w) * (rho[f0, i0] * (1 - frac) + rho[f0, i1] * frac)
                 + w * (rho[f0 + 1, i0] * (1 - frac) + rho[f0 + 1, i1] * frac))
        g_i = ((1 - w) * (g[f0, i0] * (1 - frac) + g[f0, i1] * frac)
               + w * (g[f0 + 1, i0] * (1 - frac) + g[f0 + 1, i1] * frac))
        peak = (1 - w) * peaks[f0] + w * peaks[f0 + 1]
        node = rho_i < max(node_rel * peak, NODE_ABS_FLOOR)
        v = np.where(node, vprev, g_i / np.where(node, 1.0, rho_i))
        return v, node

    for step in range(n_steps):
        t = t0 + step * dt
        alive = ~failed
        k1, n1 = velocity(x, t)
        k2, n2 = velocity(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3, n3 = velocity(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4, n4 = velocity(x + dt * k3, t + dt)
        nodes = (n1.astype(np.int64) + n2 + n3 + n4)
        step_events += np.where(alive, nodes, 0)
        node_counts += np.where(alive, nodes, 0)
        vprev = np.where(n4 | ~alive, vprev, k4)
        x_new = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x = np.where(alive, x_new, x)
        out = alive & ((x < x_min) | (x >= x_max))
        if np.any(out):
            failed |= out
            exit_times[out] = t + dt
            x = np.where(out, np.clip(x, x_min, x_max - dx * 1e-9), x)
        if (step + 1) % rec_stride == 0:
            r = (step + 1) // rec_stride
            rec[:, r] = x
            reg_flags[:, r] = step_events > 0
            step_events[:] = 0
    return rec, reg_flags, node_counts, failed, exit_times


def grid_rk4_2d(x0, rho, gy, gz, peaks, t0, frame_dt, y_min, dy, z_min, dz,
                node_rel, dt, n_steps, rec_stride):
    n = x0.shape[0]
    n_frames, ny, nz = rho.shape
    y_max = y_min + ny * dy
    z_max = z_min + nz * dz
    n_rec = n_steps // rec_stride + 1

    rec = np.empty((n, n_rec, 2), dtype=np.float64)
    reg_flags = np.zeros((n, n_rec), dtype=np.bool_)
    node_counts = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=np.bool_)
    exit_times = np.full(n, np.nan)

    q = x0.astype(np.float64)
    vprev = np.zeros((n, 2))
    rec[:, 0, :] = q
    step_events = np.zeros(n, dtype=np.int64)

    def bilinear(arr, j0, j1, i0, i1, fy, fz):
        return (arr[j0, i0] * (1 - fy) * (1 - fz) + arr[j1, i0] * fy * (1 - fz)
                + arr[j0, i1] * (1 - fy) * fz + arr[j1, i1] * fy * fz)

    def velocity(qq, t):
        ft = (t - t0) / frame_dt
        f0 = min(max(int(np.floor(ft + 1e-12)), 0), n_frames - 2)
        w = ft - f0
        sy = (qq[:, 0] - y_min) / dy
        sz = (qq[:, 1] - z_min) / dz
        j0 = np.floor(sy).astype(np.int64)
        i0 = np.floor(sz).astype(np.int64)
        fy = sy - j0
        fz = sz - i0
        j0 = j0 % ny
        i0 = i0 % nz
        j1 = (j0 + 1) % ny
        i1 = (i0 + 1) % nz
        out = np.empty((n, 2))
        rho_i = ((1 - w) * bilinear(rho[f0], j0, j1, i0, i1, fy, fz)
                 + w * bilinear(rho[f0 + 1], j0, j1, i0, i1, fy, fz))
        gy_i = ((1 - w) * bilinear(gy[f0], j0, j1, i0, i1, fy, fz)
                + w * bilinear(gy[f0 + 1], j0, j1, i0, i1, fy, fz))
        gz_i = ((1 - w) * bilinear(gz[f0], j0, j1, i0, i1, fy, fz)
                + w * bilinear(gz[f0 + 1], j0, j1, i0, i1, fy, fz))
        peak = (1 - w) * peaks[f0] + w * peaks[f0 + 1]
        node = rho_i < np.maximum(node_rel * peak, NODE_ABS_FLOOR)
        den = np.where(node, 1.0, rho_i)
        out[:, 0] = np.where(node, vprev[:, 0], gy_i / den)
        out[:, 1] = np.where(node, vprev[:, 1], gz_i / den)
        return out, node

    for step in range(n_steps):
        t = t0 + step * dt
        alive = ~failed
        k1, n1 = velocity(q, t)
        k2, n2 = velocity(q + 0.5 * dt * k1, t + 0.5 * dt)
        k3, n3 = velocity(q + 0.5 * dt * k2, t + 0.5 * dt)
        k4, n4 = velocity(q + dt * k3, t + dt)
        nodes = (n1.astype(np.int64) + n2 + n3 + n4)
        step_events += np.where(alive, nodes, 0)
        node_counts += np.where(alive, nodes, 0)
        keep = (n4 | ~alive)[:, None]
        vprev = np.where(keep, vprev, k4)
        q_new = q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        q = np.where(alive[:, None], q_new, q)
        out_now = alive & ((q[:, 0] < y_min) | (q[:, 0] >= y_max)
                           | (q[:, 1] < z_min) | (q[:, 1] >= z_max))
        if np.any(out_now):
            failed |= out_now
            exit_times[out_now] = t + dt
            q[:, 0] = np.clip(q[:, 0], y_min, y_max - dy * 1e-9)
            q[:, 1] = np.clip(q[:, 1], z_min, z_max - dz * 1e-9)
        if (step + 1) % rec_stride == 0:
            r = (step + 1) // rec_stride
            rec[:, r, :] = q
            reg_flags[:, r] = step_events > 0
            step_events[:] = 0
    return rec, reg_flags, node_counts, failed, exit_times


# ---------------------------------------------------------------------------
# Branched-Gaussian (pointer/ancilla) kernel.  Two rigid Gaussian-product
# branches; velocities follow from the closed-form log-derivative of each
# branch, combined with complex branch weights evaluated in log space.
#
# Inputs:
#   centers[b, blk], vels[b, blk]  - schedule value and velocity at one time
#                                    (the kernel tables carry a leading
#                                    half-step time index: stage times t,
#                                    t+dt/2, t+dt map to 2*step, 2*step+1,
#                                    2*step+2)
#   inv4s2[c], inv2s2[c]           - 1/(4 sigma^2), 1/(2 sigma^2) per
#                                    coordinate
#   log_amp[b], amp_phase[b]       - log|c_b|, arg c_b
#   block_id[c]                    - block index of coordinate c
# ---------------------------------------------------------------------------

def branched_gaussian_velocity(pts, block_id, inv4s2, inv2s2, m_over_h,
                               h_over_m, log_amp, amp_phase, centers, vels,
                               node_thresh, vprev):
    """Guidance velocity of every coordinate of points (n, C) at one time.

    Returns (v, node): where |r_+ + r_-|^2 < node_thresh (branch moduli
    scaled so the larger is 1) the point is flagged and takes vprev.
    """
    cp = centers[0, block_id]
    cm = centers[1, block_id]
    vp = vels[0, block_id]
    vm = vels[1, block_id]
    dp = pts - cp
    dm = pts - cm
    lam_p = log_amp[0] - np.sum(dp * dp * inv4s2, axis=1)
    lam_m = log_amp[1] - np.sum(dm * dm * inv4s2, axis=1)
    th_p = amp_phase[0] + m_over_h * np.sum(vp * dp, axis=1)
    th_m = amp_phase[1] + m_over_h * np.sum(vm * dm, axis=1)
    lam_max = np.maximum(lam_p, lam_m)
    rp = np.exp(lam_p - lam_max) * np.exp(1j * th_p)
    rm = np.exp(lam_m - lam_max) * np.exp(1j * th_m)
    s = rp + rm
    node = (s.real * s.real + s.imag * s.imag) < node_thresh
    w = rp / np.where(node, 1.0, s)
    lp = -dp * inv2s2 + 1j * (m_over_h * vp)
    lm = -dm * inv2s2 + 1j * (m_over_h * vm)
    v = h_over_m * (w[:, None] * lp + (1.0 - w)[:, None] * lm).imag
    return np.where(node[:, None], vprev, v), node


def pointer_rk4(q0, block_id, inv4s2, inv2s2, m_over_h, h_over_m, log_amp,
                amp_phase, centers, vels, node_thresh, dt, n_steps, rec_stride):
    n, n_coord = q0.shape
    n_rec = n_steps // rec_stride + 1
    rec = np.empty((n, n_rec, n_coord), dtype=np.float64)
    reg_flags = np.zeros((n, n_rec), dtype=np.bool_)
    node_counts = np.zeros(n, dtype=np.int64)

    q = q0.astype(np.float64)
    vprev = np.zeros((n, n_coord))
    rec[:, 0, :] = q
    step_events = np.zeros(n, dtype=np.int64)

    def stage(qq, ti):
        return branched_gaussian_velocity(
            qq, block_id, inv4s2, inv2s2, m_over_h, h_over_m, log_amp,
            amp_phase, centers[ti], vels[ti], node_thresh, vprev)

    for step in range(n_steps):
        i2 = 2 * step
        k1, n1 = stage(q, i2)
        k2, n2 = stage(q + 0.5 * dt * k1, i2 + 1)
        k3, n3 = stage(q + 0.5 * dt * k2, i2 + 1)
        k4, n4 = stage(q + dt * k3, i2 + 2)
        nodes = n1.astype(np.int64) + n2 + n3 + n4
        step_events += nodes
        node_counts += nodes
        vprev = np.where(n4[:, None], vprev, k4)
        q = q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % rec_stride == 0:
            r = (step + 1) // rec_stride
            rec[:, r, :] = q
            reg_flags[:, r] = step_events > 0
            step_events[:] = 0
    return rec, reg_flags, node_counts
