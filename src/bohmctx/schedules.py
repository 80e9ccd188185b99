"""Piecewise-linear time schedules for packet centers and coupling ramps.

Values are clamped flat outside the knot range.  The schedule velocity is
the left derivative: the slope of the segment ending at t, and zero at or
before the first knot.  This makes a ramp starting at t=0 carry zero
velocity at exactly t=0, so branch wavefunctions coincide there.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class PiecewiseLinear:
    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.knots) != len(self.values) or len(self.knots) < 1:
            raise ConfigError("knots and values must have equal nonzero length")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise ConfigError("knots must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls((0.0,), (float(value),))

    @classmethod
    def ramp(cls, t_on: float, t_off: float, target: float,
             start: float = 0.0) -> "PiecewiseLinear":
        """start until t_on, linear to target at t_off, flat after."""
        if not t_off > t_on:
            raise ConfigError("ramp requires t_off > t_on")
        return cls((float(t_on), float(t_off)), (float(start), float(target)))

    def value(self, t) -> np.ndarray:
        return np.interp(np.asarray(t, dtype=float), self.knots, self.values)

    def velocity(self, t) -> np.ndarray:
        """Left-derivative d(value)/dt; zero at/before the first knot and
        after the last."""
        t_in = np.asarray(t, dtype=float)
        t1 = np.atleast_1d(t_in)
        k = np.asarray(self.knots)
        v = np.asarray(self.values)
        out = np.zeros_like(t1)
        if len(k) > 1:
            slopes = np.diff(v) / np.diff(k)
            seg = np.searchsorted(k, t1, side="left") - 1
            inside = (seg >= 0) & (seg < len(slopes))
            out[inside] = slopes[seg[inside]]
        return out.reshape(t_in.shape)

    def scaled(self, factor: float) -> "PiecewiseLinear":
        return PiecewiseLinear(self.knots, tuple(factor * v for v in self.values))