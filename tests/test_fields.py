import numpy as np
import pytest
from scipy.integrate import quad

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     SpatialGrid, SpinorField, make_gaussian, norm, overlap)
from bohmctx.fields import center_width, density_overlap, position_std
from bohmctx.guidance import current_and_density


def test_gaussian_normalized(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    assert abs(norm(psi) - 1.0) <= 1e-12


def test_gaussian_centered(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    mu, _ = center_width(psi.density(), line_grid.axis())
    assert abs(mu) <= 1e-10


def test_gaussian_velocity_matches_momentum(line_grid):
    # mean velocity of a k=2 packet is hbar k / m = 2, via the guidance law
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 2.0))
    rho, g = current_and_density(psi)
    for x in (-0.78125, 0.0, 1.328125):  # grid nodes
        i = int(round((x - line_grid.x_min) / line_grid.dx))
        assert abs(g[i] / rho[i] - 2.0) <= 1e-6


def test_gaussian_width_convention(line_grid):
    # sigma is the standard deviation of |psi|^2
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.5, 0.0))
    assert abs(position_std(psi)[0] - 1.5) <= 1e-8


def test_support_guard_rejects_edge_packet(line_grid):
    with pytest.raises(ConfigError):
        make_gaussian(line_grid, GaussianPacketSpec.make(18.0, 1.0, 0.0))


def test_overlap_self_is_one(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    assert abs(overlap(psi, psi) - 1.0) <= 1e-12


def test_overlap_displaced_gaussians_closed_form(line_grid):
    # |<g_a|g_b>| = exp(-a^2 / (2 sigma^2)) for centers +-a, equal widths;
    # cross-checked against direct numerical quadrature of the integrand.
    a, sigma = 1.3, 1.0
    ga = make_gaussian(line_grid, GaussianPacketSpec.make(+a, sigma, 0.0))
    gb = make_gaussian(line_grid, GaussianPacketSpec.make(-a, sigma, 0.0))
    got = abs(overlap(ga, gb))
    expected = np.exp(-a ** 2 / (2 * sigma ** 2))
    assert abs(got - expected) <= 1e-8

    def integrand(x):
        amp = (2 * np.pi * sigma ** 2) ** -0.5
        return amp * np.exp(-(x - a) ** 2 / (4 * sigma ** 2)
                            - (x + a) ** 2 / (4 * sigma ** 2))
    quad_val, _ = quad(integrand, -20, 20)
    assert abs(got - quad_val) <= 1e-8


def test_overlap_orthogonal_lattice_modes(line_grid):
    L = 40.0
    x = line_grid.axis()
    k1 = 2 * np.pi * 3 / L
    k2 = 2 * np.pi * 7 / L
    f1 = ComplexField(line_grid, np.exp(1j * k1 * x) / np.sqrt(L))
    f2 = ComplexField(line_grid, np.exp(1j * k2 * x) / np.sqrt(L))
    assert abs(overlap(f1, f2)) <= 1e-10


def test_overlap_conjugate_symmetry(line_grid):
    rng = np.random.default_rng(3)
    for _ in range(10):
        c1, c2 = rng.uniform(-3, 3, 2)
        k1, k2 = rng.uniform(-2, 2, 2)
        f1 = make_gaussian(line_grid, GaussianPacketSpec.make(c1, 1.0, k1))
        f2 = make_gaussian(line_grid, GaussianPacketSpec.make(c2, 1.0, k2))
        assert overlap(f1, f2) == pytest.approx(np.conj(overlap(f2, f1)),
                                                abs=1e-14)
        assert overlap(f1, f1).real == pytest.approx(norm(f1) ** 2, abs=1e-12)


def test_overlap_rejects_mismatched_grids(line_grid):
    other = SpatialGrid.line(256, -20.0, 20.0)
    f1 = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    f2 = make_gaussian(other, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    with pytest.raises(ConfigError):
        overlap(f1, f2)


def test_spinor_norm_is_joint(line_grid):
    g = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    up = ComplexField(line_grid, 0.6 * g.values)
    down = ComplexField(line_grid, 0.8 * g.values)
    assert abs(norm(SpinorField(up, down)) - 1.0) <= 1e-12


def test_density_overlap_is_phase_blind(line_grid):
    # identical densities with very different momenta still overlap fully
    f1 = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 5.0))
    f2 = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, -5.0))
    assert density_overlap(f1.density(), f2.density(), line_grid.dx) \
        == pytest.approx(1.0, abs=1e-12)
    assert abs(overlap(f1, f2)) < 1e-8


def test_field_values_immutable(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        psi.values[0] = 1.0

