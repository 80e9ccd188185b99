"""Unitary time propagation by second-order (Strang) operator splitting:
half potential kick, full spectral kinetic step, half potential kick.
With hbar = m = 1 the kinetic factor is exp(-i k^2 dt / 2) and a potential
V gives the half kick exp(-i V dt / 2).

The kinetic step is exact on the grid, so free and linear-potential
evolution carry no splitting error in the density; anharmonic potentials
show the usual O(dt^2) global accuracy.

The components of a spinor are held as one (C, n) array: one stacked half
kick, and one numpy.fft transform pair per step over the grid axis, in
place and batched over the components.

Callers that need the intermediate states read them from an observer at
the capture steps (every frame_stride steps), so no run stores its frames.

Boundaries are periodic.  A support guard (on by default) aborts when the
density within 10 grid cells of either end exceeds 1e-8 of the frame
peak, which is the regime where periodic wrap-around would corrupt a
localized-packet run.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, PropagationBlowup, SupportGuardViolation
from .fields import ComplexField, SpinorField, FieldLike
from .grids import SpatialGrid

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


def _component_potentials(potential: PotentialSpec, state: FieldLike,
                          grid: SpatialGrid) -> np.ndarray | None:
    """Potential of each component, stacked (C, n), or one (1, n) shared by
    all components; None means zero."""
    spinor = isinstance(state, SpinorField)
    if potential.kind == "free":
        return None
    if potential.kind == "linear_spin_dependent":
        if not spinor:
            raise ConfigError("linear_spin_dependent potential requires a SpinorField")
        # V_+/-(z) = -/+ (hbar/2) (B0 + b z); the up component is
        # accelerated toward +z when the gradient is positive.
        z = grid.axis()
        base = 0.5 * (potential.offset + potential.gradient * z)
        return np.stack([-base, +base])
    if potential.kind == "sampled":
        if potential.values.shape != grid.shape:
            raise ConfigError("sampled potential shape must match the grid")
        return potential.values[None]
    raise ConfigError(f"unknown potential kind {potential.kind!r}")


def _boundary_band_mask(grid: SpatialGrid) -> np.ndarray:
    """The GUARD_BAND_CELLS points at each end of the grid."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[:GUARD_BAND_CELLS] = True
    mask[-GUARD_BAND_CELLS:] = True
    return mask


def check_support_guard(rho: np.ndarray, step: int,
                        band_mask: np.ndarray) -> None:
    """Raise SupportGuardViolation when the density rho in the boundary
    band (`_boundary_band_mask`) reaches GUARD_DENSITY_RATIO of its peak."""
    peak = float(rho.max())
    if peak <= 0.0:
        return
    ratio = float(rho[band_mask].max()) / peak
    if ratio >= GUARD_DENSITY_RATIO:
        raise SupportGuardViolation(step, ratio)


def propagate(state: FieldLike, potential: PotentialSpec, dt: float, n_steps: int,
              frame_stride: int | None = None,
              support_guard: bool = True,
              observer: Callable[[int, float, FieldLike], None] | None = None,
              ) -> PropagationResult:
    """Propagate a field or spinor for n_steps of size dt.

    Negative dt is allowed (backwards evolution); dt must be nonzero unless
    n_steps is 0.  The support guard and the observer, a callable invoked
    with (step_index, t, state), see the state at the capture steps: every
    frame_stride steps, including step 0 and the final step (so
    frame_stride must divide n_steps); frame_stride None captures the
    first and last step only.  No frame is stored; the result holds only
    the final state.
    """
    if n_steps < 0:
        raise ConfigError("n_steps must be >= 0")
    if n_steps > 0 and dt == 0.0:
        raise ConfigError("dt must be nonzero")
    if frame_stride is None:
        frame_stride = max(n_steps, 1)
    if frame_stride < 1 or n_steps % frame_stride != 0:
        raise ConfigError("frame_stride must be >= 1 and divide n_steps")

    grid = state.grid
    spinor = isinstance(state, SpinorField)
    pots = _component_potentials(potential, state, grid)
    k = grid.wavenumbers()
    kin_phase = np.exp(-1j * (k * k) * dt / 2.0)
    half_v = None if pots is None else np.exp(-0.5j * pots * dt)

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
            check_support_guard(st.density(), step, band)
        if observer is not None:
            observer(step, step * dt, st)

    capture(0)

    for step in range(1, n_steps + 1):
        # comps is never aliased by a snapshot (fields copy their values),
        # so the step works in place
        if half_v is not None:
            comps *= half_v
        np.fft.fft(comps, axis=-1, out=comps)
        comps *= kin_phase
        np.fft.ifft(comps, axis=-1, out=comps)
        if half_v is not None:
            comps *= half_v
        if not np.all(np.isfinite(comps.view(np.float64))):
            raise PropagationBlowup(step)
        if step % frame_stride == 0:
            capture(step)
    return PropagationResult(final=snapshot())
