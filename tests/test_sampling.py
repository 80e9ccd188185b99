import numpy as np
import pytest
from scipy.stats import kstest

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     SpatialGrid, make_gaussian, sample_equilibrium)


def test_gaussian_sampling_ks(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    positions = sample_equilibrium(psi, 2000, seed=4)
    # scipy's one-sample KS against the exact N(0,1) CDF as the oracle
    stat = kstest(positions[:, 0], "norm").statistic
    assert stat < 0.05


def test_symmetric_density_mean_bound(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    n = 2000
    positions = sample_equilibrium(psi, n, seed=9)
    assert abs(positions[:, 0].mean()) < 4.0 / np.sqrt(n)


def test_single_draw_deterministic(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    a = sample_equilibrium(psi, 1, seed=123)
    b = sample_equilibrium(psi, 1, seed=123)
    assert np.array_equal(a, b)


def test_per_index_streams_are_order_independent(line_grid):
    # sample i depends only on (seed, i), so prefixes agree
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    small = sample_equilibrium(psi, 50, seed=7)
    large = sample_equilibrium(psi, 100, seed=7)
    assert np.array_equal(small, large[:50])


def test_unnormalized_source_rejected(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))
    bad = ComplexField(line_grid, psi.values * 1.2)
    with pytest.raises(ConfigError):
        sample_equilibrium(bad, 10, seed=0)


def test_2d_sampling_marginals():
    # a product state on the (y, z) plane is sampled from its factors
    phi = make_gaussian(SpatialGrid.line(128, -10.0, 10.0),
                        GaussianPacketSpec.make(0.5, 1.0, 0.0))
    chi = make_gaussian(SpatialGrid.line(128, -10.0, 10.0),
                        GaussianPacketSpec.make(-0.25, 1.5, 0.0))
    positions = sample_equilibrium((phi, chi), 2000, seed=11)
    assert positions.shape == (2000, 2)
    ky = kstest(positions[:, 0], "norm", args=(0.5, 1.0)).statistic
    kz = kstest(positions[:, 1], "norm", args=(-0.25, 1.5)).statistic
    assert ky < 0.05 and kz < 0.05


def test_positions_inside_domain(line_grid):
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 2.0, 0.0))
    positions = sample_equilibrium(psi, 500, seed=2)
    assert np.all(positions[:, 0] >= line_grid.x_min)
    assert np.all(positions[:, 0] < line_grid.x_max)


def test_fringed_density_sampling(line_grid):
    # superposition density with interference fringes; sampled CDF must
    # track the exact grid CDF
    x = line_grid.axis()
    vals = np.exp(-x ** 2 / 4.0) * np.cos(5 * x)
    n2 = np.sum(np.abs(vals) ** 2) * line_grid.dx
    psi = ComplexField(line_grid, vals / np.sqrt(n2))
    positions = sample_equilibrium(psi, 2000, seed=5)
    rho = psi.density()
    edges = np.concatenate([x - line_grid.dx / 2,
                            [x[-1] + line_grid.dx / 2]])
    cum = np.concatenate([[0.0], np.cumsum(rho * line_grid.dx)])
    cum /= cum[-1]
    stat = kstest(positions[:, 0],
                  lambda q: np.interp(q, edges, cum)).statistic
    assert stat < 0.05
