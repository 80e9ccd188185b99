"""Complex scalar and spinor fields on a 1D grid, plus Gaussian packet
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
        if self.up.grid != self.down.grid:
            raise ConfigError("spinor components must share one grid")

    @property
    def grid(self) -> SpatialGrid:
        return self.up.grid

    def density(self) -> np.ndarray:
        return self.up.density() + self.down.density()


FieldLike = ComplexField | SpinorField


@dataclass(frozen=True)
class GaussianPacketSpec:
    center: float
    sigma: float
    momentum: float

    @classmethod
    def make(cls, center, sigma, momentum) -> "GaussianPacketSpec":
        return cls(float(center), float(sigma), float(momentum))

    def validate_on(self, grid: SpatialGrid) -> None:
        if not self.sigma > 0.0:
            raise ConfigError("sigma must be positive")
        if (self.center - 5.0 * self.sigma < grid.x_min
                or self.center + 5.0 * self.sigma > grid.x_max):
            raise ConfigError(
                "packet support (center +- 5 sigma) leaves the domain")


def make_gaussian(grid: SpatialGrid, spec: GaussianPacketSpec) -> ComplexField:
    """Normalized Gaussian packet exp(-(x-c)^2/(4 sigma^2) + i k (x-c)); with
    hbar = m = 1 it moves at velocity k."""
    spec.validate_on(grid)
    d = grid.axis() - spec.center
    psi = np.exp(-d * d / (4.0 * spec.sigma ** 2) + 1j * spec.momentum * d)
    nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return ComplexField(grid, psi / nrm)


def norm(f: FieldLike) -> float:
    """L2 norm; for spinors the joint norm over both components."""
    if isinstance(f, SpinorField):
        n2 = (np.sum(f.up.density()) + np.sum(f.down.density())) * f.grid.dx
    else:
        n2 = np.sum(f.density()) * f.grid.dx
    return float(np.sqrt(n2))


def overlap(a: ComplexField, b: ComplexField) -> complex:
    """Inner product <a|b> of two scalar fields on one grid."""
    if a.grid != b.grid:
        raise ConfigError("overlap requires a shared grid")
    return complex(_vdot(a.values, b.values) * a.grid.dx)


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


def position_std(f: FieldLike) -> np.ndarray:
    """Standard deviation of |psi|^2, as a length-1 array."""
    return np.array([center_width(f.density(), f.grid.axis())[1]])


def density_overlap(rho_a: np.ndarray, rho_b: np.ndarray, dx: float) -> float:
    """Bhattacharyya coefficient of two densities on one grid of spacing
    dx: the integral of sqrt(rho_a rho_b) over their norms.  Measures
    shared support, not phase coherence."""
    na2 = np.sum(rho_a) * dx
    nb2 = np.sum(rho_b) * dx
    acc = np.sum(np.sqrt(rho_a * rho_b)) * dx
    return float(acc / np.sqrt(na2 * nb2))
