"""Quantum-equilibrium sampling: initial positions drawn from |psi|^2.

Sampling inverts the grid CDF with linear interpolation inside each cell.
A product state phi(y) chi(z) on a (y, z) plane is sampled from its two
factors on their line grids: y from |phi|^2, then z from |chi|^2, which is
the conditional of z given y of every row.  Every draw comes from `_draws`,
one RNG stream per sample index seeded (seed, index, *stream), so results
do not depend on draw order, ensemble size or parallelism.
"""

import numpy as np

from .errors import ConfigError
from .fields import FieldLike, norm

NORM_TOLERANCE = 1e-6


def _draws(seed: int, n: int, n_uniform: int, n_normal: int,
           stream: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """(n, n_uniform) uniforms on [0, 1) and (n, n_normal) standard normals;
    row i is drawn from default_rng((seed, i, *stream)), uniforms first."""
    u, z = np.empty((n, n_uniform)), np.empty((n, n_normal))
    for i in range(n):
        rng = np.random.default_rng((int(seed), i, *stream))
        u[i] = rng.random(n_uniform)
        z[i] = rng.standard_normal(n_normal)
    return u, z


def inverse_cdf_sample(edges_cdf: np.ndarray, x0: float, dx: float,
                       u: np.ndarray) -> np.ndarray:
    """Invert a per-cell-linear CDF given cell-edge values edges_cdf
    (length n+1, increasing from 0 to 1) at each uniform of u.

    Cells are centered on their sample points: cell i spans
    [x0 + (i - 1/2) dx, x0 + (i + 1/2) dx), so a density symmetric on its
    grid points yields a sampling distribution with the same symmetry."""
    cell = np.clip(np.searchsorted(edges_cdf, u, side="right") - 1,
                   0, len(edges_cdf) - 2)
    lo = edges_cdf[cell]
    hi = edges_cdf[cell + 1]
    frac = np.divide(u - lo, hi - lo, out=np.full(np.shape(u), 0.5),
                     where=hi > lo)
    return x0 + (cell + frac - 0.5) * dx


def _cell_cdf(masses: np.ndarray) -> np.ndarray:
    """Cell-edge values (length n + 1, 0 to 1) of the staircase CDF of cell
    masses (n,)."""
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    return cdf / cdf[-1]


def sample_equilibrium(source: FieldLike | tuple[FieldLike, FieldLike],
                       n: int, seed: int) -> np.ndarray:
    """Draw (n, 1) i.i.d. positions from |psi|^2 of a normalized field, or
    (n, 2) positions (y, z) from a pair (phi, chi) of normalized factors of
    a product state phi(y) chi(z), two uniforms per index (y first)."""
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    factors = source if isinstance(source, tuple) else (source,)
    for f in factors:
        if abs(norm(f) - 1.0) > NORM_TOLERANCE:
            raise ConfigError("density source must be normalized to 1")
    u, _ = _draws(seed, n, len(factors), 0)
    out = np.empty((n, len(factors)))
    for ax, f in enumerate(factors):
        grid = f.grid
        x = inverse_cdf_sample(_cell_cdf(f.density() * grid.dx), grid.x_min,
                               grid.dx, u[:, ax])
        out[:, ax] = np.clip(x, grid.x_min, grid.x_max - 1e-9 * grid.dx)
    return out
