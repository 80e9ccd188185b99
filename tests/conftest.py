import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bohmctx import SpatialGrid, GaussianPacketSpec, make_gaussian, propagate
from bohmctx.trajectories import GridEnsembleResult


@pytest.fixture(scope="session")
def line_grid():
    return SpatialGrid.line(512, -20.0, 20.0)


@pytest.fixture(scope="session")
def unit_gaussian(line_grid):
    return make_gaussian(line_grid, GaussianPacketSpec.make(0.0, 1.0, 0.0))


def free_width(t, sigma0=1.0):
    """Closed-form |psi|^2 width of a freely spreading Gaussian,
    sigma0 sqrt(1 + (hbar t / (2 m sigma0^2))^2) with hbar = m = 1."""
    return sigma0 * np.sqrt(1.0 + (t / (2.0 * sigma0 ** 2)) ** 2)


def harmonic_width(t, sigma0=1.0, omega=1.0):
    """Closed-form width of an initially stationary Gaussian in a harmonic
    trap: sigma(t)^2 = s0^2 cos^2 wt + (hbar/(2 m s0 w))^2 sin^2 wt, with
    hbar = m = 1."""
    return np.sqrt(sigma0 ** 2 * np.cos(omega * t) ** 2
                   + (1.0 / (2 * sigma0 * omega)) ** 2
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


def grid_ensemble(times, points):
    """The GridEnsembleResult of points (n, n_rec, n_coords) on times,
    with no node event and no failure."""
    n, n_rec = points.shape[:2]
    return GridEnsembleResult(times, points, np.zeros((n, n_rec), dtype=bool),
                              np.zeros(n, dtype=np.int64),
                              np.zeros(n, dtype=bool), np.full(n, np.nan))


def propagate_frames(state, potential, dt, n_steps, frame_stride, **kw):
    """propagate(), with the states at its capture steps collected by an
    observer: a namespace of final, times (F,) and frames."""
    times, frames = [], []
    final = propagate(state, potential, dt, n_steps, frame_stride=frame_stride,
                      observer=lambda step, t, st: (times.append(t),
                                                    frames.append(st)),
                      **kw).final
    return SimpleNamespace(final=final, times=np.asarray(times), frames=frames)


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes that tracemalloc traced while
    it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
