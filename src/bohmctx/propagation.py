"""Unitary time propagation by second-order (Strang) operator splitting:
half potential kick, full spectral kinetic step, half potential kick.

The kinetic step is exact on the grid, so free and linear-potential
evolution carry no splitting error in the density; anharmonic potentials
show the usual O(dt^2) global accuracy.

The components of a spinor are held as one (C, *grid.shape) array: one
stacked half kick, and one scipy.fft transform pair over the spatial axes
per step, batched over the components and run on a single worker.

Boundaries are periodic.  A support guard (on by default) aborts when the
density within 10 grid cells of any boundary exceeds 1e-8 of the frame
peak, which is the regime where periodic wrap-around would corrupt a
localized-packet run.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import fft

from .errors import ConfigError, PropagationBlowup, SupportGuardViolation
from .fields import ComplexField, SpinorField, FieldLike
from .grids import SpatialGrid
from .units import UnitsConfig, DEFAULT_UNITS

GUARD_BAND_CELLS = 10
GUARD_DENSITY_RATIO = 1e-8


@dataclass(frozen=True)
class PotentialSpec:
    kind: str  # "free" | "linear_spin_dependent" | "sampled"
    gradient: float = 0.0  # b, energy per length (linear variant)
    offset: float = 0.0    # B0, energy (linear variant)
    values: np.ndarray | None = None

    @classmethod
    def free(cls) -> "PotentialSpec":
        return cls("free")

    @classmethod
    def linear_spin_dependent(cls, gradient: float, offset: float = 0.0) -> "PotentialSpec":
        return cls("linear_spin_dependent", gradient=gradient, offset=offset)

    @classmethod
    def sampled(cls, values: np.ndarray) -> "PotentialSpec":
        v = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ConfigError("sampled potential values must be finite")
        return cls("sampled", values=v)


@dataclass
class PropagationResult:
    final: FieldLike
    times: np.ndarray | None = None
    frames: list[FieldLike] = field(default_factory=list)


def _component_potentials(potential: PotentialSpec, state: FieldLike,
                          grid: SpatialGrid, units: UnitsConfig
                          ) -> np.ndarray | None:
    """Potential of each component, stacked (C, *grid.shape), or one
    (1, *grid.shape) shared by all components; None means zero."""
    spinor = isinstance(state, SpinorField)
    if potential.kind == "free":
        return None
    if potential.kind == "linear_spin_dependent":
        if not spinor:
            raise ConfigError("linear_spin_dependent potential requires a SpinorField")
        # V_+/-(z) = -/+ (hbar/2) (B0 + b z) on the last axis; the up component
        # is accelerated toward +z when the gradient is positive.
        z = grid.meshes[-1]
        base = 0.5 * units.hbar * (potential.offset + potential.gradient * z)
        return np.stack([-base, +base])
    if potential.kind == "sampled":
        if potential.values.shape != grid.shape:
            raise ConfigError("sampled potential shape must match the grid")
        return potential.values[None]
    raise ConfigError(f"unknown potential kind {potential.kind!r}")


def _boundary_band_mask(grid: SpatialGrid) -> np.ndarray:
    mask = np.zeros(grid.shape, dtype=bool)
    for ax, n in enumerate(grid.n_points):
        sl = [slice(None)] * grid.dims
        sl[ax] = slice(0, GUARD_BAND_CELLS)
        mask[tuple(sl)] = True
        sl[ax] = slice(n - GUARD_BAND_CELLS, n)
        mask[tuple(sl)] = True
    return mask


def check_support_guard(state: FieldLike, step: int,
                        band_mask: np.ndarray | None = None) -> None:
    rho = state.density()
    if band_mask is None:
        band_mask = _boundary_band_mask(state.grid)
    peak = float(rho.max())
    if peak <= 0.0:
        return
    ratio = float(rho[band_mask].max()) / peak
    if ratio >= GUARD_DENSITY_RATIO:
        raise SupportGuardViolation(step, ratio)


def propagate(state: FieldLike, potential: PotentialSpec, dt: float, n_steps: int,
              units: UnitsConfig = DEFAULT_UNITS, frame_stride: int | None = None,
              support_guard: bool = True,
              observer: Callable[[int, float, FieldLike], None] | None = None,
              ) -> PropagationResult:
    """Propagate a field or spinor for n_steps of size dt.

    Negative dt is allowed (backwards evolution); dt must be nonzero unless
    n_steps is 0.  If frame_stride is given, a snapshot is kept every
    frame_stride steps (including step 0 and the final step, so frame_stride
    must divide n_steps).  An observer callable, if given, is invoked at the
    same capture times with (step_index, t, state) instead of storing
    frames: the result then holds only the final state.
    """
    if n_steps < 0:
        raise ConfigError("n_steps must be >= 0")
    if n_steps > 0 and dt == 0.0:
        raise ConfigError("dt must be nonzero")
    if frame_stride is not None:
        if frame_stride < 1 or n_steps % frame_stride != 0:
            raise ConfigError("frame_stride must be >= 1 and divide n_steps")

    grid = state.grid
    spinor = isinstance(state, SpinorField)
    pots = _component_potentials(potential, state, grid, units)
    kin_phase = np.exp(-1j * units.hbar * grid.k_squared * dt / (2.0 * units.mass))
    half_v = None if pots is None else np.exp(-0.5j * pots * dt / units.hbar)
    axes = tuple(range(1, grid.dims + 1))

    comps = np.stack([state.up.values, state.down.values]) if spinor \
        else np.array(state.values)[None]
    band = _boundary_band_mask(grid) if support_guard else None

    def snapshot() -> FieldLike:
        if spinor:
            return SpinorField(ComplexField(grid, comps[0]), ComplexField(grid, comps[1]))
        return ComplexField(grid, comps[0])

    def capture(step: int):
        st = snapshot()
        if support_guard:
            check_support_guard(st, step, band)
        if observer is not None:
            observer(step, step * dt, st)
        elif frame_stride is not None:
            times.append(step * dt)
            frames.append(st)

    frames: list[FieldLike] = []
    times: list[float] = []
    capture(0)

    for step in range(1, n_steps + 1):
        # comps is never aliased by a snapshot (fields copy their values),
        # so the step works in place
        if half_v is not None:
            comps *= half_v
        comps = fft.fftn(comps, axes=axes, overwrite_x=True)
        comps *= kin_phase
        comps = fft.ifftn(comps, axes=axes, overwrite_x=True)
        if half_v is not None:
            comps *= half_v
        if not np.all(np.isfinite(comps.view(np.float64))):
            raise PropagationBlowup(step)
        if frame_stride is not None and step % frame_stride == 0:
            capture(step)
    if frame_stride is None and n_steps > 0:
        capture(n_steps)  # guard check and observer on the final state only

    result = PropagationResult(final=snapshot())
    if frame_stride is not None and observer is None:
        result.times = np.asarray(times)
        result.frames = frames
    return result
