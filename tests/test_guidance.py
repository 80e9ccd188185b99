import numpy as np
import pytest
from scipy import fft as scipy_fft

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     SpatialGrid, SpinorField, make_gaussian)
from bohmctx.guidance import (_spectral_gradient, build_stacks,
                              current_and_density)
from bohmctx.trajectories import integrate_over_stacks
import gaussian_oracle

def at_nodes(grid, x, rho, g):
    """v = G / rho at grid nodes x (m,), where no interpolation is
    needed."""
    i = np.rint((x - grid.x_min) / grid.dx).astype(int)
    assert np.array_equal(grid.axis()[i], x)
    return g[i] / rho[i]


def normalized_spinor(grid, up_vals, down_vals):
    n2 = np.sum(np.abs(up_vals) ** 2 + np.abs(down_vals) ** 2) * grid.dx
    s = 1.0 / np.sqrt(n2)
    return SpinorField(ComplexField(grid, up_vals * s),
                       ComplexField(grid, down_vals * s))


def test_plane_wave_velocity(line_grid):
    L = 40.0
    k = 2 * np.pi * 19 / L  # ~3.0, exactly on the lattice
    x = line_grid.axis()
    pw = ComplexField(line_grid, np.exp(1j * k * x) / np.sqrt(L))
    v = at_nodes(line_grid, np.array([-7.5, 0.0, 4.375]),
                 *current_and_density(pw))
    assert np.abs(v - k).max() <= 1e-8


def test_stationary_gaussian_zero_velocity(unit_gaussian):
    v = at_nodes(unit_gaussian.grid, np.array([-1.25, 0.625]),
                 *current_and_density(unit_gaussian))
    assert np.abs(v).max() <= 1e-10


def test_boosted_gaussian_uniform_velocity(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 2.0))
    v = at_nodes(line_grid, np.array([-2.5, 0.0, 1.25]),
                 *current_and_density(psi))
    assert np.abs(v - 2.0).max() <= 1e-6


def test_spinor_single_component_reduction(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 1.2))
    sp = SpinorField(psi, ComplexField(line_grid, np.zeros(line_grid.shape,
                                                           dtype=complex)))
    pts = np.array([-1.25, 0.3125, 1.875])
    v_sp, v_psi = (at_nodes(line_grid, pts, *current_and_density(f))
                   for f in (sp, psi))
    assert np.array_equal(v_sp, v_psi)


def test_spinor_equal_components_reduction(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, -0.8))
    half = ComplexField(line_grid, psi.values / np.sqrt(2))
    sp = SpinorField(half, half)
    pts = np.array([-0.625, 1.09375])
    v_sp, v_psi = (at_nodes(line_grid, pts, *current_and_density(f))
                   for f in (sp, psi))
    assert np.allclose(v_sp, v_psi, atol=1e-12)


def test_spinor_counterpropagating_zero_at_equal_amplitudes(line_grid):
    # components with k = +-1; where |psi_+| = |psi_-| the convective
    # velocity vanishes.  Oracle: centered finite differences of the
    # defining formula on the analytic state.
    sigma = 1.0

    def up_f(x):
        return np.exp(-x ** 2 / (4 * sigma ** 2) + 1j * x)

    def down_f(x):
        return np.exp(-x ** 2 / (4 * sigma ** 2) - 1j * x)

    grid = SpatialGrid.line(1024, -20.0, 20.0)
    x = grid.axis()
    sp = normalized_spinor(grid, up_f(x), down_f(x))
    pts = np.array([0.0, 0.859375, -1.40625])  # equal amplitudes
    v = at_nodes(grid, pts, *current_and_density(sp))
    assert np.abs(v).max() <= 1e-6

    h = 1e-6
    for xq, vq in zip(pts, v):
        num = np.imag(np.conj(up_f(xq)) * (up_f(xq + h) - up_f(xq - h))
                      + np.conj(down_f(xq)) * (down_f(xq + h) - down_f(xq - h))) / (2 * h)
        den = abs(up_f(xq)) ** 2 + abs(down_f(xq)) ** 2
        assert abs(vq - num / den) <= 1e-6


def _scipy_spectral_gradient(values, grid):
    """d/dx of values (..., n) with the transform pair taken from
    scipy.fft.fftn/ifftn over the last axis."""
    ft = scipy_fft.fftn(values, axes=(-1,))
    return scipy_fft.ifftn(np.multiply(1j * grid.wavenumbers(), ft),
                           axes=(-1,))


def test_spectral_gradient_matches_scipy_fftn():
    # a batch of real (F, n) tables, as the Gordon run differentiates its
    # density factors: numpy.fft is bitwise scipy.fft there
    grid = SpatialGrid.line(384, -24.0, 24.0)
    x = grid.axis()
    widths = np.linspace(1.0, 3.0, 51)[:, None]
    tables = np.exp(-((x - 0.3 * widths) / widths) ** 2) * np.cos(0.4 * x)
    values = tables.astype(np.complex128)
    assert np.array_equal(_spectral_gradient(values, grid),
                          _scipy_spectral_gradient(values, grid))


# The Gordon run's spin-curl current (hbar/2m)(d_z s_x, -d_y s_x) of a
# product phi(y) chi(z), where s_x = P S with P = |phi|^2 and
# S = 2 Re(chi_up* chi_down), is (hbar/2m)(P S', -P' S), with P' and S' the
# spectral gradients of the sampled factor tables.

LINE = SpatialGrid.line(256, -16.0, 16.0)


def gordon_from_factors(phi, up, down):
    """(rho, G_y, G_z) on the (y, z) plane of phi(y) (up, down)(z), each
    factor sampled on `LINE`, with the Gordon current formed from the
    factor tables as the Gordon run forms it; hbar/2m = 1/2."""
    P = np.abs(phi) ** 2
    S = 2.0 * (np.conj(up) * down).real
    dP = _spectral_gradient(P.astype(np.complex128), LINE).real
    dS = _spectral_gradient(S.astype(np.complex128), LINE).real
    rho = np.outer(P, np.abs(up) ** 2 + np.abs(down) ** 2)
    return rho, 0.5 * np.outer(P, dS), -0.5 * np.outer(dP, S)


def test_gordon_zero_for_z_eigenstate():
    # chi = (g, 0): S = 0, so the Gordon current is exactly zero
    g, _ = gaussian_oracle.free_packet(LINE.axis(), 0.0)
    _, g_y, g_z = gordon_from_factors(g, g, np.zeros_like(g))
    assert not g_y.any() and not g_z.any()


def test_gordon_zero_for_uniform_spinor():
    # constant factors: P' = S' = 0 up to rounding in the transforms
    ones = np.ones(256, dtype=complex) / 4.0
    rho, g_y, g_z = gordon_from_factors(ones, ones / np.sqrt(2),
                                        ones / np.sqrt(2))
    assert np.abs(g_y / rho).max() <= 1e-10
    assert np.abs(g_z / rho).max() <= 1e-10


def test_gordon_matches_finite_difference_curl():
    # a spinor with Gaussian envelopes that share their y factor, so it is
    # a product; oracle is a centered finite difference of s_x = 2 Re(u* d)
    # on the analytic state, at grid nodes
    def u_f(y, z):
        return np.exp(-(y ** 2 + z ** 2) / 4.0) * np.exp(0.31j * z)

    def d_f(y, z):
        return np.exp(-(y ** 2 + (z - 0.4) ** 2) / 4.0) * np.exp(-0.27j * z)

    x = LINE.axis()
    rho, g_y, g_z = gordon_from_factors(u_f(x, 0.0), u_f(0.0, x),
                                        d_f(0.0, x))

    def s_x(y, z):
        return 2 * np.real(np.conj(u_f(y, z)) * d_f(y, z))

    h = 1e-5
    for y, z in ((0.25, -0.75), (1.0, 0.5), (-0.5, 1.0)):  # grid nodes
        j, i = (int(round((c - LINE.x_min) / LINE.dx)) for c in (y, z))
        assert (x[j], x[i]) == (y, z)
        got = np.array([g_y[j, i], g_z[j, i]]) / rho[j, i]
        oracle = 0.5 / rho[j, i] * np.array([
            (s_x(y, z + h) - s_x(y, z - h)) / (2 * h),
            -(s_x(y + h, z) - s_x(y - h, z)) / (2 * h)])
        assert np.abs(got - oracle).max() <= 1e-5


def test_gordon_current_of_product_matches_factor_tables():
    # the factor-table Gordon current of a product of closed-form packets
    # against its exact value (hbar/2m)(P S', -P' S) from the packets'
    # analytic derivatives: measured 4.6e-15 of its largest value, bound
    # 1e-12
    x = LINE.axis()
    phi, dphi = gaussian_oracle.free_packet(x, 0.0, 0.3, 1.2, 0.4)
    chi, dchi = gaussian_oracle.free_packet(x, 0.0, -0.2, 1.0, -0.2)
    up, down = 0.6 * chi, 0.8 * np.exp(0.9j) * chi
    d_up, d_down = 0.6 * dchi, 0.8 * np.exp(0.9j) * dchi
    _, g_y, g_z = gordon_from_factors(phi, up, down)
    P, dP = np.abs(phi) ** 2, 2.0 * (np.conj(phi) * dphi).real
    S = 2.0 * (np.conj(up) * down).real
    dS = 2.0 * (np.conj(d_up) * down + np.conj(up) * d_down).real
    scale = np.abs(g_y).max() + np.abs(g_z).max()
    assert scale > 1e-3
    assert np.abs(g_y - 0.5 * np.outer(P, dS)).max() <= 1e-12 * scale
    assert np.abs(g_z + 0.5 * np.outer(dP, S)).max() <= 1e-12 * scale


def test_out_of_domain_rejected(unit_gaussian):
    # the grid RK4 refuses a starting point outside the grid domain
    stacks = build_stacks([unit_gaussian] * 2, np.array([0.0, 0.1]))
    with pytest.raises(ConfigError, match="outside the grid domain"):
        integrate_over_stacks(stacks, np.array([[25.0]]), 0.05)
