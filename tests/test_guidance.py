import numpy as np
import pytest
from scipy import fft as scipy_fft

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     SpatialGrid, SpinorField, make_gaussian)
from bohmctx.guidance import (VelocityModel, _spectral_gradient, build_stacks,
                              current_and_density)
from bohmctx.trajectories import integrate_over_stacks
from sg_reference_2d import gordon_current

SCALAR, SPINOR = VelocityModel.SCALAR, VelocityModel.SPINOR


def at_nodes(grid, pts, rho, g):
    """v = G / rho at grid nodes pts (m, dims), where no interpolation is
    needed."""
    idx = tuple(np.rint((pts[:, ax] - grid.x_min[ax]) / grid.dx[ax]).astype(int)
                for ax in range(grid.dims))
    for ax, i in enumerate(idx):
        assert np.array_equal(grid.axis(ax)[i], pts[:, ax])
    return np.stack([g_ax[idx] / rho[idx] for g_ax in g], axis=1)


def normalized_spinor(grid, up_vals, down_vals):
    n2 = (np.sum(np.abs(up_vals) ** 2 + np.abs(down_vals) ** 2)
          * grid.cell_volume)
    s = 1.0 / np.sqrt(n2)
    return SpinorField(ComplexField(grid, up_vals * s),
                       ComplexField(grid, down_vals * s))


def test_plane_wave_velocity(line_grid):
    L = 40.0
    k = 2 * np.pi * 19 / L  # ~3.0, exactly on the lattice
    x = line_grid.axis(0)
    pw = ComplexField(line_grid, np.exp(1j * k * x) / np.sqrt(L))
    v = at_nodes(line_grid, np.array([[-7.5], [0.0], [4.375]]),
                 *current_and_density(pw, SCALAR))
    assert np.abs(v[:, 0] - k).max() <= 1e-8


def test_stationary_gaussian_zero_velocity(unit_gaussian):
    v = at_nodes(unit_gaussian.grid, np.array([[-1.25], [0.625]]),
                 *current_and_density(unit_gaussian, SCALAR))
    assert np.abs(v).max() <= 1e-10


def test_boosted_gaussian_uniform_velocity(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 2.0))
    v = at_nodes(line_grid, np.array([[-2.5], [0.0], [1.25]]),
                 *current_and_density(psi, SCALAR))
    assert np.abs(v[:, 0] - 2.0).max() <= 1e-6


def test_spinor_single_component_reduction(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 1.2))
    sp = SpinorField(psi, ComplexField(line_grid, np.zeros(line_grid.shape,
                                                           dtype=complex)))
    pts = np.array([[-1.25], [0.3125], [1.875]])
    v_sp, v_psi = (at_nodes(line_grid, pts, *current_and_density(f, model))
                   for f, model in ((sp, SPINOR), (psi, SCALAR)))
    assert np.array_equal(v_sp, v_psi)


def test_spinor_equal_components_reduction(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, -0.8))
    half = ComplexField(line_grid, psi.values / np.sqrt(2))
    sp = SpinorField(half, half)
    pts = np.array([[-0.625], [1.09375]])
    v_sp, v_psi = (at_nodes(line_grid, pts, *current_and_density(f, model))
                   for f, model in ((sp, SPINOR), (psi, SCALAR)))
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
    x = grid.axis(0)
    sp = normalized_spinor(grid, up_f(x), down_f(x))
    pts = np.array([[0.0], [0.859375], [-1.40625]])  # equal amplitudes
    v = at_nodes(grid, pts, *current_and_density(sp, SPINOR))
    assert np.abs(v).max() <= 1e-6

    h = 1e-6
    for xq in pts[:, 0]:
        num = np.imag(np.conj(up_f(xq)) * (up_f(xq + h) - up_f(xq - h))
                      + np.conj(down_f(xq)) * (down_f(xq + h) - down_f(xq - h))) / (2 * h)
        den = abs(up_f(xq)) ** 2 + abs(down_f(xq)) ** 2
        assert abs(v[list(pts[:, 0]).index(xq), 0] - num / den) <= 1e-6


def _scipy_spectral_gradient(values, grid):
    """(dims, ..., *grid.shape) gradient with the transform pair taken from
    scipy.fft.fftn/ifftn over the grid axes."""
    axes = tuple(range(-grid.dims, 0))
    ft = scipy_fft.fftn(values, axes=axes)
    ik = np.empty((grid.dims,) + ft.shape, dtype=ft.dtype)
    for ax in range(grid.dims):
        shape = [1] * grid.dims
        shape[ax] = grid.n_points[ax]
        np.multiply(1j * grid.wavenumbers(ax).reshape(shape), ft, out=ik[ax])
    return scipy_fft.ifftn(ik, axes=axes)


def test_spectral_gradient_matches_scipy_fftn():
    # a batch of real (F, n) 1D tables, as the Gordon run differentiates
    # its density factors: numpy.fft per axis is bitwise scipy.fft there
    grid = SpatialGrid.line(384, -24.0, 24.0)
    x = grid.axis(0)
    widths = np.linspace(1.0, 3.0, 51)[:, None]
    tables = np.exp(-((x - 0.3 * widths) / widths) ** 2) * np.cos(0.4 * x)
    values = tables.astype(np.complex128)
    assert np.array_equal(_spectral_gradient(values, grid),
                          _scipy_spectral_gradient(values, grid))

    # 2D (only tests differentiate on 2D grids): scipy's ifftn scales by
    # 1/(ny nz) once, numpy by 1/n per axis, so the bits may differ; the
    # measured max |difference| is 6.3e-17 on gradients up to 0.22
    grid = SpatialGrid.plane(64, (-12.0, 12.0), 96, (-16.0, 16.0))
    g = make_gaussian(grid, GaussianPacketSpec.make((0.0, 0.5), (2.0, 1.0),
                                                    (0.5, -1.0)))
    comps = np.stack([0.6 * g.values, 0.8j * g.values])
    diff = (_spectral_gradient(comps, grid)
            - _scipy_spectral_gradient(comps, grid))
    assert np.abs(diff).max() <= 1e-11


def plane_grid():
    return SpatialGrid.plane(128, (-8.0, 8.0), 128, (-8.0, 8.0))


def test_gordon_zero_for_z_eigenstate():
    grid = plane_grid()
    g = make_gaussian(grid, GaussianPacketSpec.make((0, 0), (1, 1), (0, 0)))
    sp = SpinorField(g, ComplexField(grid, np.zeros(grid.shape, dtype=complex)))
    v = at_nodes(grid, np.array([[0.25, -0.375], [1.0, 1.0]]), sp.density(),
                 gordon_current(sp))
    assert np.abs(v).max() <= 1e-10


def test_gordon_zero_for_uniform_spinor():
    grid = plane_grid()
    L2 = 16.0 * 16.0
    ones = np.ones(grid.shape, dtype=complex) / np.sqrt(2 * L2)
    sp = SpinorField(ComplexField(grid, ones), ComplexField(grid, ones))
    v = at_nodes(grid, np.array([[0.0, 0.0], [2.0, -3.0]]), sp.density(),
                 gordon_current(sp))
    assert np.abs(v).max() <= 1e-10


def test_gordon_matches_finite_difference_curl():
    # 50/50 spinor with Gaussian envelopes; oracle is a centered finite
    # difference of s_x = 2 Re(u* d) on the analytic state, at grid nodes.
    grid = plane_grid()

    def u_f(y, z):
        return np.exp(-(y ** 2 + z ** 2) / 4.0) * np.exp(0.31j * z)

    def d_f(y, z):
        return np.exp(-(y ** 2 + (z - 0.4) ** 2) / 4.0) * np.exp(-0.27j * z)

    Y, Z = grid.meshes
    n2 = np.sum(np.abs(u_f(Y, Z)) ** 2 + np.abs(d_f(Y, Z)) ** 2) * grid.cell_volume
    sp = SpinorField(ComplexField(grid, u_f(Y, Z) / np.sqrt(n2)),
                     ComplexField(grid, d_f(Y, Z) / np.sqrt(n2)))

    def s_x(y, z):
        return 2 * np.real(np.conj(u_f(y, z)) * d_f(y, z)) / n2

    def rho(y, z):
        return (np.abs(u_f(y, z)) ** 2 + np.abs(d_f(y, z)) ** 2) / n2

    h = 1e-5
    pts = np.array([[0.25, -0.75], [1.0, 0.5], [-0.5, 1.0]])  # grid points
    v = at_nodes(grid, pts, sp.density(), gordon_current(sp))
    for (y, z), vi in zip(pts, v):
        oracle = 0.5 / rho(y, z) * np.array([
            (s_x(y, z + h) - s_x(y, z - h)) / (2 * h),
            -(s_x(y + h, z) - s_x(y - h, z)) / (2 * h)])
        assert np.abs(vi - oracle).max() <= 1e-5


def test_gordon_current_of_product_matches_factor_tables():
    # for a product phi(y) chi(z), s_x = P S, and the 2D spectral gradient
    # of a product is the outer product of the 1D ones: the 2D Gordon
    # current is (hbar/2m)(P S', -P' S) with P' and S' the spectral
    # gradients of the sampled 1D factor tables, as the Gordon run forms it
    grid = plane_grid()
    y_grid = SpatialGrid.line(grid.n_points[0], grid.x_min[0], grid.x_max[0])
    z_grid = SpatialGrid.line(grid.n_points[1], grid.x_min[1], grid.x_max[1])
    phi = make_gaussian(y_grid, GaussianPacketSpec.make(0.3, 1.2, 0.4))
    chi = make_gaussian(z_grid, GaussianPacketSpec.make(-0.2, 1.0, -0.2))
    up, down = 0.6 * chi.values, 0.8 * np.exp(0.9j) * chi.values
    sp = SpinorField(ComplexField(grid, np.outer(phi.values, up)),
                     ComplexField(grid, np.outer(phi.values, down)))
    P = phi.density()
    S = 2.0 * (np.conj(up) * down).real
    dP = _spectral_gradient(P.astype(np.complex128), y_grid)[0].real
    dS = _spectral_gradient(S.astype(np.complex128), z_grid)[0].real
    g_y, g_z = gordon_current(sp)
    scale = np.abs(g_y).max() + np.abs(g_z).max()
    assert scale > 1e-3
    assert np.abs(g_y - 0.5 * np.outer(P, dS)).max() <= 1e-12 * scale
    assert np.abs(g_z + 0.5 * np.outer(dP, S)).max() <= 1e-12 * scale


def test_out_of_domain_rejected(unit_gaussian):
    # the grid RK4 refuses a starting point outside the grid domain
    stacks = build_stacks([unit_gaussian] * 2, np.array([0.0, 0.1]), SCALAR)
    with pytest.raises(ConfigError, match="outside the grid domain"):
        integrate_over_stacks(stacks, np.array([[25.0]]), 0.05)


def test_scalar_model_rejects_spinor(line_grid, unit_gaussian):
    sp = SpinorField(unit_gaussian, unit_gaussian)
    with pytest.raises(ConfigError):
        build_stacks([sp, sp], np.array([0.0, 1.0]), SCALAR)
