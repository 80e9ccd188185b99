"""Ensemble Bohmian trajectory integration over stored propagation frames.

Classical RK4 on the interpolated velocity field; linear interpolation in
time between frames, linear/bilinear in space.  Integration is delegated
to the vectorized numpy kernels in `_kernels`; every trajectory is
independent, so results are identical for any thread count.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConfigError
from .fields import FieldLike
from .guidance import VelocityStacks, build_stacks, NODE_DENSITY_REL
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
    grid = stacks.grid
    frame_dt = stacks.frame_dt
    if dt_traj <= 0:
        raise ConfigError("dt_traj must be positive")
    if dt_traj > frame_dt * (1 + 1e-9):
        raise ConfigError("dt_traj must not exceed the frame spacing")
    t0 = float(stacks.times[0])
    t_end = float(stacks.times[-1])
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

    rec, flags, counts, failed, exits = _kernels.grid_rk4(
        pts, (stacks.rho, *stacks.g), stacks.peaks, t0, frame_dt,
        grid.x_min, grid.dx, NODE_DENSITY_REL, dt_traj, n_steps,
        record_stride)

    rec_times = t0 + dt_traj * record_stride * np.arange(rec.shape[1])
    out = []
    for i in range(rec.shape[0]):
        out.append(Trajectory(
            times=rec_times,
            points=rec[i],
            node_regularization_events=int(counts[i]),
            regularized_flags=flags[i],
            failed=bool(failed[i]),
            exit_time=float(exits[i]) if failed[i] else None,
        ))
    return out


def endpoints(trajectories: list[Trajectory], axis: int = 0) -> np.ndarray:
    return np.array([t.points[-1, axis] for t in trajectories])


def write_trajectories_csv(path, trajectories: list[Trajectory],
                           coord_names: list[str] | None = None,
                           stride: int = 1) -> None:
    """CSV schema: trajectory_id, t, <coordinates...>, regularized_flag.

    Values are written with repr, so they read back exactly; rows end in
    CRLF, as the csv module writes them.  One write per trajectory keeps
    memory flat in the table size."""
    if not trajectories:
        raise ConfigError("no trajectories to write")
    dims = trajectories[0].points.shape[1]
    names = coord_names or ([f"c{i}" for i in range(dims)] if dims > 2
                            else (["x"] if dims == 1 else ["y", "z"]))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["trajectory_id", "t", *names, "regularized_flag"])
                 + "\r\n")
        for tid, traj in enumerate(trajectories):
            times = traj.times[::stride].tolist()
            points = traj.points[::stride].tolist()
            flags = (["0"] * len(times) if traj.regularized_flags is None
                     else ["1" if f else "0"
                           for f in traj.regularized_flags[::stride].tolist()])
            fh.write("".join(
                f"{tid},{t!r},{','.join(map(repr, p))},{f}\r\n"
                for t, p, f in zip(times, points, flags)))
