"""Ensemble Bohmian trajectory integration over stored propagation frames.

Classical RK4 on the interpolated velocity field; linear interpolation in
time between frames, linear/bilinear in space.  The field comes either
from stored (F, *grid) stacks (`integrate_over_stacks`) or, for a product
state phi(y) chi(z), from per-frame 1D tables of the factors
(`integrate_product_flows`, several Gordon weights in one kernel call).
Integration is delegated to the vectorized numpy kernels in `_kernels`;
every trajectory is independent, so results are identical for any thread
count.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError
from .fields import FieldLike
from .grids import SpatialGrid
from .guidance import (NODE_DENSITY_REL, ProductTables, VelocityStacks,
                       build_stacks)
from .sampling import EquilibriumSample
from .units import UnitsConfig, DEFAULT_UNITS


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
    """One trajectory per initial position under the interpolated stacks."""
    return _integrate_grid(stacks.grid, stacks.times, positions, dt_traj,
                           record_stride, _kernels.grid_velocity,
                           ((stacks.rho, *stacks.g), stacks.peaks))


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
    trajs = _integrate_grid(tables.grid, tables.times,
                            np.tile(pts, (len(gordon), 1)), dt_traj, 1,
                            _kernels.product_velocity,
                            (tables.y, tables.z, tables.peaks, weights))
    return [trajs[k * n:(k + 1) * n] for k in range(len(gordon))]


def _integrate_grid(grid: SpatialGrid, times: np.ndarray,
                    positions: np.ndarray, dt_traj: float,
                    record_stride: int, velocity, tables: tuple
                    ) -> list[Trajectory]:
    """Check the step and the initial positions against the frame times
    and the grid, run `_kernels.grid_rk4` under the stage velocity
    `velocity(q, t, vprev, *tables, t0, frame_dt, lo, step, node_rel)` and
    wrap each row as a Trajectory."""
    frame_dt = float(times[1] - times[0])
    if dt_traj <= 0:
        raise ConfigError("dt_traj must be positive")
    if dt_traj > frame_dt * (1 + 1e-9):
        raise ConfigError("dt_traj must not exceed the frame spacing")
    t0 = float(times[0])
    t_end = float(times[-1])
    n_steps = int(round((t_end - t0) / dt_traj))
    if abs(n_steps * dt_traj - (t_end - t0)) > 1e-9 * max(1.0, t_end - t0):
        raise ConfigError("dt_traj must divide the frame span")
    if n_steps % record_stride != 0:
        raise ConfigError("record_stride must divide the step count")

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
    rec, flags, counts, failed, exits = _kernels.grid_rk4(
        pts, velocity,
        (*tables, t0, frame_dt, lo, step, NODE_DENSITY_REL),
        lo, step, grid.shape, t0, dt_traj, n_steps, record_stride)

    rec_times = t0 + dt_traj * record_stride * np.arange(rec.shape[1])
    return [Trajectory(times=rec_times, points=rec[i],
                       node_regularization_events=int(counts[i]),
                       regularized_flags=flags[i], failed=bool(failed[i]),
                       exit_time=float(exits[i]) if failed[i] else None)
            for i in range(rec.shape[0])]


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
