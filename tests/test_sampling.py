import numpy as np
import pytest
from scipy.stats import kstest

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     SpatialGrid, make_gaussian, sample_equilibrium, scenarios)
from bohmctx.config import BeamSplitterConfig
from bohmctx.pointer import (BlockModel, CoordinateBlock,
                             sample_model_equilibrium)
from bohmctx.sampling import inverse_cdf_sample
from bohmctx.schedules import PiecewiseLinear
import sampling_reference as ref


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


# -- the array samplers against the per-index reference loops ---------------

def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _fringed(grid):
    x = grid.axis()
    vals = np.exp(-x ** 2 / 4.0) * np.cos(5 * x)
    return ComplexField(grid, vals / np.sqrt(np.sum(vals ** 2) * grid.dx))


def test_field_sampler_matches_reference_bitwise(line_grid):
    psi = _fringed(line_grid)
    assert_bitwise(sample_equilibrium(psi, 300, seed=5),
                   ref.sample_equilibrium(psi, 300, seed=5))


def test_pair_sampler_matches_reference_bitwise():
    phi = make_gaussian(SpatialGrid.line(128, -10.0, 10.0),
                        GaussianPacketSpec.make(0.5, 1.0, 0.0))
    chi = _fringed(SpatialGrid.line(256, -12.0, 12.0))
    assert_bitwise(sample_equilibrium((phi, chi), 300, seed=11),
                   ref.sample_equilibrium((phi, chi), 300, seed=11))


def test_model_sampler_matches_reference_bitwise():
    # three blocks after the system coordinate, the middle one empty, with
    # distinct widths and a common nonzero center at t = 0: the normals of
    # one index are read block after block
    def block(name, count, sigma, start):
        return CoordinateBlock(name, count, sigma, (
            PiecewiseLinear.ramp(0.0, 0.5, 2.0, start=start),
            PiecewiseLinear.ramp(0.0, 0.5, -2.0, start=start)))
    model = BlockModel(
        (CoordinateBlock("system", 1, 0.8,
                         (PiecewiseLinear.constant(1.5),
                          PiecewiseLinear.constant(-1.5))),
         block("ancilla", 3, 0.6, 0.3), block("empty", 0, 1.0, 0.0),
         block("apparatus", 5, 1.3, -0.7)),
        (0.6, 0.8j), ("+", "-"), 1.0)
    assert_bitwise(sample_model_equilibrium(model, 200, seed=4),
                   ref.sample_model_equilibrium(model, 200, seed=4))


def test_detector_offsets_match_reference_bitwise():
    cfg = BeamSplitterConfig(n=200, seed=3, detector_count=5,
                             detector_sigma=0.7)
    assert_bitwise(scenarios._bs_detector_offsets(cfg),
                   ref.detector_offsets(cfg))


def test_inverse_cdf_on_cell_edges_and_flat_cells():
    # u on every cell edge, inside cells, and at 1.0, which lands in the
    # trailing flat cell (no mass) and maps to its center; the flat cells
    # raise no division warning
    edges = np.array([0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 1.0])
    u = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0])
    got = inverse_cdf_sample(edges, -1.0, 0.5, u)
    want = np.array([ref.inverse_cdf_sample(edges, -1.0, 0.5, v) for v in u])
    assert_bitwise(got, want)
    assert got[-1] == -1.0 + 5 * 0.5
