"""The periodic spatial grid: one line.

Convention: a line with n points on [x_min, x_max) has spacing
dx = (x_max - x_min) / n and excludes the point at x_max.  The Stern-Gerlach
Gordon run moves on a (y, z) plane, but its state is a product phi(y) chi(z),
so it keeps one line for each factor and never a 2D grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SpatialGrid:
    n: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n < 64:
            raise ConfigError(f"a grid needs >= 64 points, got {self.n}")
        if not self.x_max > self.x_min:
            raise ConfigError("x_max must exceed x_min")

    @classmethod
    def line(cls, n: int, x_min: float, x_max: float) -> "SpatialGrid":
        return cls(int(n), float(x_min), float(x_max))

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def axis(self, i: int = 0) -> np.ndarray:
        """Coordinate values (x_max excluded) of the one axis, i = 0."""
        if i != 0:
            raise ConfigError("a grid has the one axis 0")
        return self.x_min + self.dx * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers in numpy FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.dx)
