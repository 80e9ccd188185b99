"""Complex scalar and spinor fields on a grid, plus Gaussian packet
construction and inner products.

Width convention: the sigma of a GaussianPacketSpec is the standard
deviation of |psi|^2, i.e. psi ~ exp(-(x-c)^2 / (4 sigma^2)).  This is
what all overlap formulas in the package assume.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grids import SpatialGrid


@dataclass(frozen=True)
class ComplexField:
    grid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ConfigError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ConfigError("field values must be finite")
        v = v.copy()
        v.setflags(write=False)  # fields are immutable after construction
        object.__setattr__(self, "values", v)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class SpinorField:
    up: ComplexField
    down: ComplexField

    def __post_init__(self):
        if not self.up.grid.same_as(self.down.grid):
            raise ConfigError("spinor components must share one grid")

    @property
    def grid(self) -> SpatialGrid:
        return self.up.grid

    def density(self) -> np.ndarray:
        return self.up.density() + self.down.density()


FieldLike = ComplexField | SpinorField


@dataclass(frozen=True)
class GaussianPacketSpec:
    """center, sigma and momentum are scalars in 1D, length-2 sequences in 2D."""

    center: tuple[float, ...]
    sigma: tuple[float, ...]
    momentum: tuple[float, ...]

    @classmethod
    def make(cls, center, sigma, momentum) -> "GaussianPacketSpec":
        c = tuple(np.atleast_1d(np.asarray(center, dtype=float)))
        s = tuple(np.atleast_1d(np.asarray(sigma, dtype=float)))
        k = tuple(np.atleast_1d(np.asarray(momentum, dtype=float)))
        return cls(c, s, k)

    def validate_on(self, grid: SpatialGrid) -> None:
        if not (len(self.center) == len(self.sigma) == len(self.momentum) == grid.dims):
            raise ConfigError("packet spec dimensionality does not match grid")
        for i in range(grid.dims):
            if not self.sigma[i] > 0.0:
                raise ConfigError("sigma must be positive")
            lo = self.center[i] - 5.0 * self.sigma[i]
            hi = self.center[i] + 5.0 * self.sigma[i]
            if lo < grid.x_min[i] or hi > grid.x_max[i]:
                raise ConfigError(
                    f"packet support (center +- 5 sigma) leaves the domain on axis {i}"
                )


def make_gaussian(grid: SpatialGrid, spec: GaussianPacketSpec) -> ComplexField:
    """Normalized Gaussian packet exp(-(x-c)^2/(4 sigma^2) + i k.(x-c)); with
    hbar = m = 1 it moves at velocity k."""
    spec.validate_on(grid)
    psi = np.ones(grid.shape, dtype=np.complex128)
    for i, mesh in enumerate(grid.meshes):
        d = mesh - spec.center[i]
        psi = psi * np.exp(-d * d / (4.0 * spec.sigma[i] ** 2) + 1j * spec.momentum[i] * d)
    nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    return ComplexField(grid, psi / nrm)


def norm(f: FieldLike) -> float:
    """L2 norm; for spinors the joint norm over both components."""
    if isinstance(f, SpinorField):
        n2 = (np.sum(f.up.density()) + np.sum(f.down.density())) * f.grid.cell_volume
    else:
        n2 = np.sum(f.density()) * f.grid.cell_volume
    return float(np.sqrt(n2))


def overlap(a: FieldLike, b: FieldLike) -> complex:
    """Inner product <a|b>; spinor overlap sums both components."""
    if isinstance(a, SpinorField) != isinstance(b, SpinorField):
        raise ConfigError("cannot overlap a scalar field with a spinor field")
    if isinstance(a, SpinorField):
        if not a.grid.same_as(b.grid):
            raise ConfigError("overlap requires a shared grid")
        acc = (_vdot(a.up.values, b.up.values)
               + _vdot(a.down.values, b.down.values))
        return complex(acc * a.grid.cell_volume)
    if not a.grid.same_as(b.grid):
        raise ConfigError("overlap requires a shared grid")
    return complex(_vdot(a.values, b.values) * a.grid.cell_volume)


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """sum(conj(a) * b) as a numpy reduction: np.vdot goes through BLAS,
    whose threaded dot product sums in an order that depends on the thread
    count, which would make outputs depend on OPENBLAS_NUM_THREADS."""
    return np.sum(np.conj(a) * b)


def center_width(rho: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of the density rho sampled on x."""
    w = rho / rho.sum()
    mu = float(np.sum(w * x))
    return mu, math.sqrt(float(np.sum(w * (x - mu) ** 2)))


def _axis_moments(f: FieldLike) -> list[tuple[float, float]]:
    """center_width of the marginal of |psi|^2 on each grid axis."""
    rho = f.density()
    axes = range(f.grid.dims)
    return [center_width(rho.sum(axis=tuple(a for a in axes if a != ax)),
                         f.grid.axis(ax)) for ax in axes]


def position_expectation(f: FieldLike) -> np.ndarray:
    """Per-axis mean of |psi|^2."""
    return np.array([mu for mu, _ in _axis_moments(f)])


def position_std(f: FieldLike) -> np.ndarray:
    """Per-axis standard deviation of |psi|^2."""
    return np.array([width for _, width in _axis_moments(f)])


def spatial_overlap(a: ComplexField, b: ComplexField) -> float:
    """Bhattacharyya coefficient of the two densities: integral of
    sqrt(rho_a rho_b).  Measures shared support, not phase coherence."""
    if not a.grid.same_as(b.grid):
        raise ConfigError("spatial overlap requires a shared grid")
    return density_overlap(a.density(), b.density(), a.grid.cell_volume)


def density_overlap(rho_a: np.ndarray, rho_b: np.ndarray,
                    cell_volume: float) -> float:
    """`spatial_overlap` of two densities on one grid of cell_volume."""
    na2 = np.sum(rho_a) * cell_volume
    nb2 = np.sum(rho_b) * cell_volume
    acc = np.sum(np.sqrt(rho_a * rho_b)) * cell_volume
    return float(acc / np.sqrt(na2 * nb2))
