"""The RK4 kernels against hand-written steps over the model's own velocity
field, and their recording grid."""

import numpy as np
import pytest

from bohmctx import GaussianPacketSpec, PotentialSpec, make_gaussian, propagate
from bohmctx.config import OpticalSGConfig
from bohmctx.grids import SpatialGrid
from bohmctx.guidance import VelocityModel, build_stacks
from bohmctx.pointer import integrate_pointer_ensemble, sample_model_equilibrium
from bohmctx.scenarios import build_optical_sg_model
from bohmctx.trajectories import integrate_over_stacks


@pytest.fixture(scope="module")
def stacks_1d():
    grid = SpatialGrid.line(512, -20.0, 20.0)
    psi = make_gaussian(grid, GaussianPacketSpec.make(0.0, 1.0, 1.0))
    prop = propagate(psi, PotentialSpec.free(), 0.01, 100, frame_stride=2)
    return build_stacks(prop.frames, prop.times, VelocityModel.SCALAR)


def test_pointer_one_step_matches_hand_rk4():
    # a single RK4 step has no room for decision-boundary amplification, so
    # the kernel must match a step built from BlockModel.velocities to rounding
    model = build_optical_sg_model(OpticalSGConfig(), 16).block_model()
    init = sample_model_equilibrium(model, 100, seed=4)
    T = model.T
    k1 = model.velocities(init, 0.0)
    k2 = model.velocities(init + 0.5 * T * k1, 0.5 * T)
    k3 = model.velocities(init + 0.5 * T * k2, 0.5 * T)
    k4 = model.velocities(init + T * k3, T)
    expected = init + (T / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    res = integrate_pointer_ensemble(model, init, T)
    assert res.positions.shape == (100, 2, 17)
    assert np.array_equal(res.positions[:, 0], init)
    assert np.abs(res.positions[:, 1] - expected).max() <= 1e-12


def test_record_stride_times(stacks_1d):
    trajs = integrate_over_stacks(stacks_1d, np.array([0.3]), 0.005,
                                  record_stride=20)
    assert np.allclose(trajs[0].times, 0.1 * np.arange(11))
