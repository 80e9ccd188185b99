import numpy as np
import pytest

from bohmctx import SpatialGrid, GaussianPacketSpec, make_gaussian


@pytest.fixture(scope="session")
def line_grid():
    return SpatialGrid.line(512, -20.0, 20.0)


@pytest.fixture(scope="session")
def unit_gaussian(line_grid):
    return make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))


def free_width(t, sigma0=1.0, hbar=1.0, m=1.0):
    """Closed-form |psi|^2 width of a freely spreading Gaussian."""
    return sigma0 * np.sqrt(1.0 + (hbar * t / (2.0 * m * sigma0 ** 2)) ** 2)


def harmonic_width(t, sigma0=1.0, hbar=1.0, m=1.0, omega=1.0):
    """Closed-form width of an initially stationary Gaussian in a harmonic
    trap: sigma(t)^2 = s0^2 cos^2 wt + (hbar/(2 m s0 w))^2 sin^2 wt."""
    return np.sqrt(sigma0 ** 2 * np.cos(omega * t) ** 2
                   + (hbar / (2 * m * sigma0 * omega)) ** 2
                   * np.sin(omega * t) ** 2)


def assert_same_trajectories(got, want):
    """Two ensembles of Trajectory objects agree bitwise."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in ((a.times, b.times), (a.points, b.points),
                     (a.regularized_flags, b.regularized_flags)):
            assert np.array_equal(x, y)
        assert (a.node_regularization_events, a.failed, a.exit_time) \
            == (b.node_regularization_events, b.failed, b.exit_time)
