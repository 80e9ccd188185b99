"""Ensemble Bohmian trajectory integration over propagation frames.

Classical RK4 on the interpolated velocity field; linear interpolation in
time between frames, linear/bilinear in space.  The field comes from
(S, *grid) density and current stacks that hold frame f in slot f % S, or,
for a product state phi(y) chi(z), from per-frame 1D tables of the factors
(`integrate_product_flows`, several Gordon weights in one kernel call).

A `GridFlow` is one ensemble's integration; it advances through every RK4
step that the frames present so far cover.  Over stored stacks
(`integrate_over_stacks`, S = F) it runs to the end at once.  A
`FrameStream` holds a ring of FRAME_SLOTS frames, fed one frame at a time
by a propagation's observer, and advances its flow whenever the ring is
full, so a run integrates its trajectories while it propagates and
stores no (F, *grid) stack.  Either way each trajectory does the same arithmetic.
Integration is delegated to the vectorized numpy kernels in `_kernels`;
every trajectory is independent, so results are identical for any thread
count.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import trajectory_steps
from .errors import ConfigError
from .fields import FieldLike
from .grids import SpatialGrid
from .guidance import (NODE_DENSITY_REL, ProductTables, VelocityStacks,
                       build_stacks)
from .sampling import EquilibriumSample
from .units import UnitsConfig, DEFAULT_UNITS

# Frames a FrameStream keeps.  A step reads the frames from the one below
# its start to the one above its end: three consecutive frames while
# dt_traj <= frame spacing, four for a step up to the 1e-9 tolerance above
# it whose start rounds just below a frame.  The flow advances only when a
# slot it still reads is needed, so it runs in chunks of about
# FRAME_SLOTS - 3 frames: advancing after every frame, alternating the
# RK4 with each propagation step, cost about 8 % more CPU time in the
# beam splitter's grid stage.
FRAME_SLOTS = 16


@dataclass
class Trajectory:
    times: np.ndarray
    points: np.ndarray  # (n_times, dims)
    outcome: str | None = None
    node_regularization_events: int = 0
    regularized_flags: np.ndarray | None = None  # per recorded time
    failed: bool = False
    exit_time: float | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("trajectory times must be strictly increasing")
        if self.points.shape[0] != len(self.times):
            raise ConfigError("one point is required per time")

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def integrate_trajectories(frames: list[FieldLike], times: np.ndarray,
                           model: str, initial: EquilibriumSample,
                           dt_traj: float, units: UnitsConfig = DEFAULT_UNITS,
                           record_stride: int = 1) -> list[Trajectory]:
    """Integrate one trajectory per initial position across the frame span."""
    stacks = build_stacks(frames, times, model, units)
    return integrate_over_stacks(stacks, initial.positions, dt_traj,
                                 record_stride=record_stride)


def integrate_over_stacks(stacks: VelocityStacks, positions: np.ndarray,
                          dt_traj: float, record_stride: int = 1
                          ) -> list[Trajectory]:
    """One trajectory per initial position under the interpolated stacks,
    which hold every frame."""
    flow = GridFlow(stacks.grid, stacks.times, positions, dt_traj,
                    record_stride, _kernels.grid_velocity,
                    ((stacks.rho, *stacks.g), stacks.peaks))
    flow.advance(len(stacks.times) - 1)
    return flow.trajectories


def integrate_product_flows(tables: ProductTables, positions: np.ndarray,
                            dt_traj: float, gordon: tuple[float, ...]
                            ) -> list[list[Trajectory]]:
    """One ensemble per Gordon weight (1 with the spin-curl term, 0
    without), each from the same initial positions (n, 2), integrated
    together in one kernel call: rows k n .. (k + 1) n - 1 follow the flow
    of gordon[k]."""
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    weights = np.repeat(np.asarray(gordon, dtype=float), n)
    flow = GridFlow(tables.grid, tables.times,
                    np.tile(pts, (len(gordon), 1)), dt_traj, 1,
                    _kernels.product_velocity,
                    (tables.y, tables.z, tables.peaks, weights))
    flow.advance(len(tables.times) - 1)
    trajs = flow.trajectories
    return [trajs[k * n:(k + 1) * n] for k in range(len(gordon))]


class GridFlow:
    """The grid RK4 of one ensemble under the stage velocity
    `velocity(q, t, vprev, *tables, t0, frame_dt, lo, step, node_rel)`
    over frames at `times`, advanced as the frames become available.

    The step and the initial positions are checked against the frame
    times and the grid on construction.  `trajectories` is None until the
    last step is done, then one Trajectory per initial position."""

    def __init__(self, grid: SpatialGrid, times: np.ndarray,
                 positions: np.ndarray, dt_traj: float, record_stride: int,
                 velocity, tables: tuple):
        frame_dt = float(times[1] - times[0])
        t0 = float(times[0])
        n_steps, _ = trajectory_steps(dt_traj, frame_dt,
                                      float(times[-1]) - t0, record_stride)
        pts = np.asarray(positions, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.shape[1] != grid.dims:
            raise ConfigError("initial positions do not match the grid dimension")
        for i in range(grid.dims):
            if np.any(pts[:, i] < grid.x_min[i]) or np.any(pts[:, i] >= grid.x_max[i]):
                raise ConfigError("initial position outside the grid domain")

        lo = np.reshape(np.asarray(grid.x_min, dtype=np.float64), (grid.dims, 1))
        step = np.reshape(np.asarray(grid.dx, dtype=np.float64), (grid.dims, 1))
        self._rk4 = _kernels.grid_rk4(
            pts, velocity,
            (*tables, t0, frame_dt, lo, step, NODE_DENSITY_REL),
            lo, step, grid.shape, t0, dt_traj, n_steps, record_stride,
            frame_dt, len(times))
        next(self._rk4)
        self._t0, self._rec_dt = t0, dt_traj * record_stride
        self.first_needed = 0  # first frame that the next step reads
        self.trajectories: list[Trajectory] | None = None

    def advance(self, ready: int) -> None:
        """Run every step whose stages read no frame after `ready`."""
        try:
            self.first_needed = self._rk4.send(ready)
        except StopIteration as done:
            rec, flags, counts, failed, exits = done.value
            rec_times = self._t0 + self._rec_dt * np.arange(rec.shape[1])
            self.trajectories = [
                Trajectory(times=rec_times, points=rec[i],
                           node_regularization_events=int(counts[i]),
                           regularized_flags=flags[i], failed=bool(failed[i]),
                           exit_time=float(exits[i]) if failed[i] else None)
                for i in range(rec.shape[0])]


class FrameStream:
    """Velocity stacks of FRAME_SLOTS frames, written frame by frame by a
    propagation's observer, and the GridFlow that integrates the ensemble
    over them while they arrive."""

    def __init__(self, grid: SpatialGrid, times: np.ndarray,
                 positions: np.ndarray, dt_traj: float, record_stride: int):
        shape = (FRAME_SLOTS,) + grid.shape
        self.stacks = VelocityStacks(
            grid, np.asarray(times, dtype=float), np.empty(shape),
            [np.empty(shape) for _ in range(grid.dims)],
            np.empty(len(times)))
        self.flow = GridFlow(grid, self.stacks.times, positions, dt_traj,
                             record_stride, _kernels.grid_velocity,
                             ((self.stacks.rho, *self.stacks.g),
                              self.stacks.peaks))

    def add(self, f: int, rho: np.ndarray, g: list[np.ndarray]) -> None:
        """Store frame f (density rho, currents g) over frame
        f - FRAME_SLOTS.  If the flow still reads that frame, it first runs
        every step that frames up to f - 1 cover; with the last frame it
        runs to the end."""
        if f - FRAME_SLOTS >= self.flow.first_needed:
            self.flow.advance(f - 1)
            if f - FRAME_SLOTS >= self.flow.first_needed:
                raise RuntimeError(f"frame {f} would overwrite a frame "
                                   "that the trajectory integration "
                                   "still reads")
        slot = f % FRAME_SLOTS
        self.stacks.rho[slot] = rho
        for ax, g_ax in enumerate(g):
            self.stacks.g[ax][slot] = g_ax
        self.stacks.peaks[f] = rho.max()
        if f == len(self.stacks.times) - 1:
            self.flow.advance(f)


def endpoints(trajectories: list[Trajectory], axis: int = 0) -> np.ndarray:
    return np.array([t.points[-1, axis] for t in trajectories])


def write_trajectories_csv(path, trajectories: list[Trajectory],
                           coord_names: list[str] | None = None,
                           stride: int = 1) -> None:
    """CSV schema: trajectory_id, t, <coordinates...>, regularized_flag.

    Values are written with repr, so they read back exactly; rows end in
    CRLF, as the csv module writes them.  One write per trajectory, of one
    %-format over all its rows, keeps memory flat in the table size."""
    if not trajectories:
        raise ConfigError("no trajectories to write")
    dims = trajectories[0].points.shape[1]
    names = coord_names or ([f"c{i}" for i in range(dims)] if dims > 2
                            else (["x"] if dims == 1 else ["y", "z"]))
    row_fmt = "%d,%r" + ",%r" * dims + ",%s\r\n"
    width = dims + 3
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["trajectory_id", "t", *names, "regularized_flag"])
                 + "\r\n")
        for tid, traj in enumerate(trajectories):
            times = traj.times[::stride].tolist()
            rows = len(times)
            values = [tid] * (rows * width)  # column 0 stays tid
            values[1::width] = times
            for c, column in enumerate(traj.points[::stride].T.tolist()):
                values[2 + c::width] = column
            values[width - 1::width] = (
                ["0"] * rows if traj.regularized_flags is None
                else ["1" if f else "0"
                      for f in traj.regularized_flags[::stride].tolist()])
            fh.write((row_fmt * rows) % tuple(values))
