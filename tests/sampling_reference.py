"""Plain per-index reference loops of the equilibrium samplers, for bitwise
comparison.

`sampling._draws` draws every row of an ensemble at once and
`sampling.inverse_cdf_sample` inverts a whole column of uniforms.  This
module keeps the scalar form: one generator per index, seeded
(seed, index[, 1]), drawn from in the order the samplers read it (the
uniforms, then one block of normals after the other), and one inversion
per uniform.  The array samplers must match these loops bitwise.
"""

import numpy as np

from bohmctx.sampling import _cell_cdf


def stream(seed: int, index: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(index), *extra))


def inverse_cdf_sample(edges_cdf: np.ndarray, x0: float, dx: float,
                       u: float) -> float:
    """The scalar inversion of `sampling.inverse_cdf_sample` at one u."""
    cell = int(np.searchsorted(edges_cdf, u, side="right")) - 1
    cell = min(max(cell, 0), len(edges_cdf) - 2)
    lo = edges_cdf[cell]
    hi = edges_cdf[cell + 1]
    frac = 0.5 if hi <= lo else (u - lo) / (hi - lo)
    return x0 + (cell + frac - 0.5) * dx


def sample_equilibrium(source, n: int, seed: int) -> np.ndarray:
    """`sampling.sample_equilibrium` of a field or a (phi, chi) pair, one
    index at a time."""
    factors = source if isinstance(source, tuple) else (source,)
    grids = [f.grid for f in factors]
    cdfs = [_cell_cdf(f.density() * f.grid.dx) for f in factors]
    out = np.empty((n, len(factors)))
    for i in range(n):
        us = stream(seed, i).random(len(factors))
        for ax, (grid, cdf, u) in enumerate(zip(grids, cdfs, us)):
            out[i, ax] = inverse_cdf_sample(cdf, grid.x_min, grid.dx, u)
    for ax, grid in enumerate(grids):
        out[:, ax] = np.clip(out[:, ax], grid.x_min,
                             grid.x_max - 1e-9 * grid.dx)
    return out


def sample_model_equilibrium(model, n: int, seed: int) -> np.ndarray:
    """`pointer.sample_model_equilibrium`, one index at a time: x from the
    x-marginal, then each later block's normals in block order."""
    from bohmctx.pointer import x_marginal_density
    xs, dens = x_marginal_density(model, 0.0)
    dx = xs[1] - xs[0]
    cdf = _cell_cdf(dens * dx)
    out = np.empty((n, model.n_coords))
    for i in range(n):
        rng = stream(seed, i)
        out[i, 0] = inverse_cdf_sample(cdf, xs[0], dx, rng.random())
        col = 1
        for blk in model.blocks[1:]:
            center = float(blk.centers[0].value(0.0))
            out[i, col:col + blk.count] = \
                center + blk.sigma * rng.standard_normal(blk.count)
            col += blk.count
    return out


def detector_offsets(cfg) -> np.ndarray:
    """`scenarios._bs_detector_offsets`, one index at a time."""
    y0 = np.empty((cfg.n, cfg.detector_count))
    for i in range(cfg.n):
        rng = stream(cfg.seed, i, 1)
        y0[i] = cfg.detector_sigma * rng.standard_normal(cfg.detector_count)
    return y0
