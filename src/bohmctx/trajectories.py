"""Ensemble Bohmian trajectory integration over propagation frames.

Classical RK4 on the interpolated velocity field; linear interpolation in
time between frames and in space.  The field comes from (S, n) density and
current stacks on one line grid that hold frame f in slot f % S, or, for a
product state phi(y) chi(z) on a (y, z) plane, from per-frame tables of the
factors on their own line grids (`integrate_product_flows`, several Gordon
weights in one kernel call).

A `GridFlow` is one ensemble's integration; it advances through every RK4
step that the frames present so far cover.  Over stored stacks
(`integrate_over_stacks`, S = F) it runs to the end at once.  A
`FrameStream` holds a ring of FRAME_SLOTS frames, fed one frame at a time
by a propagation's observer, and advances its flow whenever the ring is
full, so a run integrates its trajectories while it propagates and
stores no (F, n) stack.  Either way each trajectory does the same arithmetic.
Integration is delegated to the RK4 loop `_kernels.grid_rk4`; every
trajectory is independent, so results are identical for any thread count.

A flow's result is a `GridEnsembleResult`: the loop's record arrays, read
as the sequence of the ensemble's trajectories.
"""

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import trajectory_steps
from .errors import ConfigError
from .grids import SpatialGrid
from .guidance import NODE_DENSITY_REL, ProductTables, VelocityStacks

# Frames a FrameStream keeps.  A step reads the frames from the one below
# its start to the one above its end: three consecutive frames while
# dt_traj <= frame spacing, four for a step up to the 1e-9 tolerance above
# it whose start rounds just below a frame.  The flow advances only when a
# slot it still reads is needed, so it runs in chunks of about
# FRAME_SLOTS - 3 frames: advancing after every frame, alternating the
# RK4 with each propagation step, cost about 8 % more CPU time in the
# beam splitter's grid stage.
FRAME_SLOTS = 16

# Values that write_trajectories_csv formats per write: a block of rows of
# about this many values is all it holds as Python objects at a time.
WRITE_BLOCK_VALUES = 4096


@dataclass
class Trajectory:
    times: np.ndarray
    points: np.ndarray  # (n_times, n_coords)
    node_regularization_events: int = 0
    regularized_flags: np.ndarray | None = None  # per recorded time
    failed: bool = False
    exit_time: float | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("trajectory times must be strictly increasing")
        if self.points.shape[0] != len(self.times):
            raise ConfigError("one point is required per time")


class RecordedEnsemble(Sequence):
    """An ensemble's record arrays, node_counts (n,) among them, read as
    the read-only sequence of its trajectories: trajectory i is built by
    `_trajectory(i)` each time it is read."""

    def __len__(self) -> int:
        return len(self.node_counts)

    def __getitem__(self, i: int) -> Trajectory:
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("trajectory index out of range")
        return self._trajectory(i % n)


@dataclass
class GridEnsembleResult(RecordedEnsemble):
    """The recorded points of a grid flow's ensemble, all on one time
    base."""
    times: np.ndarray        # (n_rec,)
    points: np.ndarray       # (n, n_rec, n_coords)
    reg_flags: np.ndarray    # (n, n_rec) a node since the previous record
    node_counts: np.ndarray  # (n,)
    failed: np.ndarray       # (n,) left the grid
    exit_times: np.ndarray   # (n,) NaN where not failed

    def _trajectory(self, i: int) -> Trajectory:
        failed = bool(self.failed[i])
        return Trajectory(self.times, self.points[i], int(self.node_counts[i]),
                          self.reg_flags[i], failed,
                          float(self.exit_times[i]) if failed else None)

    def final_points(self) -> np.ndarray:
        """(n, n_coords) points at the last recorded time."""
        return self.points[:, -1]


def integrate_over_stacks(stacks: VelocityStacks, positions: np.ndarray,
                          dt_traj: float, record_stride: int = 1
                          ) -> GridEnsembleResult:
    """One trajectory per initial position under the interpolated stacks,
    which hold every frame."""
    flow = GridFlow((stacks.grid,), stacks.times, positions, dt_traj,
                    record_stride, _kernels.grid_velocity,
                    ((stacks.rho, stacks.g), stacks.peaks))
    flow.advance(len(stacks.times) - 1)
    return flow.trajectories


def integrate_product_flows(tables: ProductTables, positions: np.ndarray,
                            dt_traj: float, gordon: tuple[float, ...]
                            ) -> list[GridEnsembleResult]:
    """One ensemble per Gordon weight (1 with the spin-curl term, 0
    without), each from the same initial positions (n, 2), integrated
    together in one loop call: rows k n .. (k + 1) n - 1 follow the flow
    of gordon[k]."""
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    weights = np.repeat(np.asarray(gordon, dtype=float), n)
    flow = GridFlow((tables.y_grid, tables.z_grid), tables.times,
                    np.tile(pts, (len(gordon), 1)), dt_traj, 1,
                    _kernels.product_velocity,
                    (tables.y, tables.z, tables.peaks, weights))
    flow.advance(len(tables.times) - 1)
    res = flow.trajectories
    per_row = (res.points, res.reg_flags, res.node_counts, res.failed,
               res.exit_times)
    return [GridEnsembleResult(res.times, *rows)
            for rows in zip(*(np.split(a, len(gordon)) for a in per_row))]


class GridFlow:
    """The grid RK4 of one ensemble under the stage velocity
    `velocity(q, t, vprev, *tables, t0, frame_dt, lo, step, node_rel)`
    over frames at `times`, advanced as the frames become available.

    `grids` holds the line grid of each trajectory coordinate: one for a
    1D flow, (y, z) for a product flow.  The step and the initial
    positions are checked against the frame times and the grids on
    construction.  `trajectories` is None until the last step is done,
    then the GridEnsembleResult of the initial positions."""

    def __init__(self, grids: tuple[SpatialGrid, ...], times: np.ndarray,
                 positions: np.ndarray, dt_traj: float, record_stride: int,
                 velocity, tables: tuple):
        frame_dt = float(times[1] - times[0])
        t0 = float(times[0])
        n_steps, stride = trajectory_steps(dt_traj, frame_dt,
                                           float(times[-1]) - t0,
                                           record_stride)
        pts = np.asarray(positions, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.shape[1] != len(grids):
            raise ConfigError("initial positions need one coordinate per grid")
        lo = np.array([[g.x_min] for g in grids])
        step = np.array([[g.dx] for g in grids])
        if np.any(pts < lo.T) or np.any(pts >= [g.x_max for g in grids]):
            raise ConfigError("initial position outside the grid domain")

        self._rk4 = _kernels.grid_rk4(
            pts, velocity,
            (*tables, t0, frame_dt, lo, step, NODE_DENSITY_REL),
            lo, lo + np.array([[g.n] for g in grids]) * step, step, t0,
            dt_traj, n_steps, stride, frame_dt, len(times))
        next(self._rk4)
        self._rec_times = t0 + dt_traj * stride * np.arange(
            n_steps // stride + 1)
        self.first_needed = 0  # first frame that the next step reads
        self.trajectories: GridEnsembleResult | None = None

    def advance(self, ready: int) -> None:
        """Run every step whose stages read no frame after `ready`."""
        try:
            self.first_needed = self._rk4.send(ready)
        except StopIteration as done:
            self.trajectories = GridEnsembleResult(self._rec_times,
                                                   *done.value)


class FrameStream:
    """Velocity stacks of FRAME_SLOTS frames, written frame by frame by a
    propagation's observer, and the GridFlow that integrates the ensemble
    over them while they arrive."""

    def __init__(self, grid: SpatialGrid, times: np.ndarray,
                 positions: np.ndarray, dt_traj: float, record_stride: int):
        shape = (FRAME_SLOTS,) + grid.shape
        self.stacks = VelocityStacks(
            grid, np.asarray(times, dtype=float), np.empty(shape),
            np.empty(shape), np.empty(len(times)))
        self.flow = GridFlow((grid,), self.stacks.times, positions, dt_traj,
                             record_stride, _kernels.grid_velocity,
                             ((self.stacks.rho, self.stacks.g),
                              self.stacks.peaks))

    def add(self, f: int, rho: np.ndarray, g: np.ndarray) -> None:
        """Store frame f (density rho, current g) over frame
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
        self.stacks.g[slot] = g
        self.stacks.peaks[f] = rho.max()
        if f == len(self.stacks.times) - 1:
            self.flow.advance(f)


def write_trajectories_csv(path, trajectories: Sequence[Trajectory],
                           stride: int = 1) -> None:
    """CSV schema: trajectory_id, t, <coordinates...>, regularized_flag.

    trajectories is any sequence of Trajectory, read in order, one at a
    time.  Values are written with repr, so they read back exactly; rows
    end in CRLF, as the csv module writes them.  Rows are written in
    blocks of about WRITE_BLOCK_VALUES values, one %-format per block, so
    memory stays flat in the table size and in the trajectory length.  The
    trajectories of one ensemble share one time base, so the time column
    is formatted once, from the first trajectory; each trajectory's
    regularized_flags give its last column."""
    if not trajectories:
        raise ConfigError("no trajectories to write")
    times = list(map(repr, trajectories[0].times[::stride].tolist()))
    n_coords = trajectories[0].points.shape[1]
    names = ([f"c{i}" for i in range(n_coords)] if n_coords > 2
             else (["x"] if n_coords == 1 else ["y", "z"]))
    row_fmt = "%d,%s" + ",%r" * n_coords + ",%s\r\n"
    width = n_coords + 3
    block = max(1, WRITE_BLOCK_VALUES // width)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["trajectory_id", "t", *names, "regularized_flag"])
                 + "\r\n")
        for tid, traj in enumerate(trajectories):
            points = traj.points[::stride]
            flags = ["1" if f else "0"
                     for f in traj.regularized_flags[::stride].tolist()]
            for r0 in range(0, len(times), block):
                rows = min(block, len(times) - r0)
                values = [tid] * (rows * width)  # column 0 stays tid
                values[1::width] = times[r0:r0 + rows]
                for c, column in enumerate(points[r0:r0 + rows].T.tolist()):
                    values[2 + c::width] = column
                values[width - 1::width] = flags[r0:r0 + rows]
                fh.write((row_fmt * rows) % tuple(values))
