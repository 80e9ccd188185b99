"""Closed-form Gaussian states of the grid scenarios, for the tests to
check the grid code against, with hbar = m = 1.

Every grid state in the package is a Gaussian packet in closed form:

- the beam splitter is the free flight of two packets with momenta +-k;
- each Stern-Gerlach spinor component is a packet under the constant force
  f = +-gradient / 2 (the potential -/+ (B0 + b z) / 2), which is
  `psi_f(x, t) = exp(i f t x - i f^2 t^3 / 6) psi_free(x - f t^2 / 2, t)`
  (Holland, The Quantum Theory of Motion, 1993, ch. 4 and 9);
- the Gordon state is the product phi(y) chi(z) of a free packet and that
  spinor.

Each packet comes with its analytic x-derivative, so currents and the
spin-curl (Gordon) term are exact too.  The grid is periodic and these
are states on the whole line; the scenarios keep their packets far from
the ends, where the two differ by less than rounding.

The module also holds the numpy-only 2D helpers that stand in for a 2D
grid: bilinear interpolation and a 2D stage velocity for
`_kernels.grid_rk4`, both on plain (lo, step) arrays.
"""

import numpy as np

from bohmctx import _kernels


def free_packet(x, t, center=0.0, sigma=1.0, momentum=0.0):
    """(psi, dpsi/dx) at points x and time t of the packet that starts as
    (2 pi sigma^2)^(-1/4) exp(-(x - c)^2 / (4 sigma^2) + i k (x - c)) and
    flies freely."""
    w = 2.0 * sigma ** 2 + 1j * t   # 2 sigma^2 (1 + i t / (2 sigma^2))
    d = x - center - momentum * t
    psi = ((2.0 * np.pi * sigma ** 2) ** -0.25
           / np.sqrt(w / (2.0 * sigma ** 2))
           * np.exp(-d * d / (2.0 * w) + 1j * momentum * (x - center)
                    - 0.5j * momentum ** 2 * t))
    return psi, psi * (1j * momentum - d / w)


def forced_packet(x, t, force, center=0.0, sigma=1.0, momentum=0.0):
    """(psi, dpsi/dx) of the same packet under the constant force `force`,
    i.e. in the potential -force x."""
    psi, dpsi = free_packet(x - 0.5 * force * t * t, t, center, sigma,
                            momentum)
    phase = np.exp(1j * (force * t * x - force ** 2 * t ** 3 / 6.0))
    return phase * psi, phase * (1j * force * t * psi + dpsi)


def beam_splitter_state(x, t, cfg):
    """psi(x, t) of the beam splitter's normalized superposition
    a_r plus + a_l minus of packets with momenta +-k."""
    a_r, a_l, k = cfg.amplitude_right, cfg.amplitude_left, cfg.splitter_momentum
    plus, _ = free_packet(x, t, 0.0, cfg.sigma, +k)
    minus, _ = free_packet(x, t, 0.0, cfg.sigma, -k)
    # <plus|minus> = exp(-2 k^2 sigma^2), the characteristic function of
    # |plus|^2 at 2k
    norm2 = (a_r ** 2 + a_l ** 2
             + 2.0 * a_r * a_l * np.exp(-2.0 * k ** 2 * cfg.sigma ** 2))
    return (a_r * plus + a_l * minus) / np.sqrt(norm2)


def sg_spinor(z, t, cfg):
    """(up, down, d up/dz, d down/dz) at z and t of the Stern-Gerlach
    spinor g(z) (alpha, beta e^{i phase}) under V = -/+ (B0 + b z) / 2:
    forces +-b/2 and the phases exp(+-i B0 t / 2) of the offset."""
    amps = (cfg.alpha, cfg.beta * np.exp(1j * cfg.spinor_phase))
    out = []
    for sign, amp in zip((1.0, -1.0), amps):
        psi, dpsi = forced_packet(z, t, sign * 0.5 * cfg.gradient, 0.0,
                                  cfg.sigma)
        c = amp * np.exp(0.5j * sign * cfg.offset * t)
        out.append((c * psi, c * dpsi))
    (u, du), (d, dd) = out
    return u, d, du, dd


def product_tables(y, z, t, cfg):
    """The exact per-frame tables of the Gordon state phi(y) chi(z) at t,
    laid out as `guidance.ProductTables` holds them:

        y (3, ny): P = |phi|^2, J_phi, -(1/2) P'
        z (4, nz): R, J_chi, S = 2 Re(chi_up* chi_down), (1/2) S'
    """
    phi, dphi = free_packet(y, t, 0.0, cfg.sigma_y)
    u, d, du, dd = sg_spinor(z, t, cfg)
    y_cols = np.array([np.abs(phi) ** 2, (np.conj(phi) * dphi).imag,
                       -(np.conj(phi) * dphi).real])
    z_cols = np.array([np.abs(u) ** 2 + np.abs(d) ** 2,
                       (np.conj(u) * du + np.conj(d) * dd).imag,
                       2.0 * (np.conj(u) * d).real,
                       (np.conj(du) * d + np.conj(u) * dd).real])
    return y_cols, z_cols


def product_fields(y_cols, z_cols, gordon):
    """(rho, G_y, G_z), each (ny, nz), of a product state from its factor
    tables (as `product_tables` lays them out) by outer products:

        rho = P R,  G_y = J_phi R + g P S' / 2,  G_z = P J_chi - g P' S / 2

    with the Gordon weight g (1 with the spin-curl term, 0 without)."""
    P, J_phi, mdP = y_cols
    R, J_chi, S, dS = z_cols
    return (np.outer(P, R),
            np.outer(J_phi, R) + gordon * np.outer(P, dS),
            np.outer(P, J_chi) + gordon * np.outer(mdP, S))


def bilinear(arr, pts, lo, dx):
    """Periodic bilinear interpolation of arr (ny, nz) at points (m, 2) on
    the plane with lower corner lo (2,) and spacing dx (2,)."""
    ny, nz = arr.shape
    sy = (pts[:, 0] - lo[0]) / dx[0]
    sz = (pts[:, 1] - lo[1]) / dx[1]
    j0 = np.floor(sy).astype(np.int64)
    i0 = np.floor(sz).astype(np.int64)
    fy, fz = sy - j0, sz - i0
    j0 %= ny
    i0 %= nz
    j1, i1 = (j0 + 1) % ny, (i0 + 1) % nz
    return (arr[j0, i0] * (1 - fy) * (1 - fz) + arr[j1, i0] * fy * (1 - fz)
            + arr[j0, i1] * (1 - fy) * fz + arr[j1, i1] * fy * fz)


def stage_velocity(q, t, vprev, fields, peaks, t0, frame_dt, lo, step,
                   node_rel):
    """The grid kernel's stage velocity over 2D stacks (F, ny, nz) of
    (rho, G_y, G_z): each bilinearly interpolated at frames f0 and f0 + 1,
    linearly in time, then v = G / rho with the kernel's node rule."""
    f0, w = _kernels._bracket(t, t0, frame_dt, len(peaks))
    pts, lo, dx = q.T, lo[:, 0], step[:, 0]
    rho_i, *g_i = [(1 - w) * bilinear(f[f0], pts, lo, dx)
                   + w * bilinear(f[f0 + 1], pts, lo, dx) for f in fields]
    return _kernels._guided(rho_i, g_i, peaks, f0, w, node_rel, vprev)
