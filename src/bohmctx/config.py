"""Scenario configuration: typed dataclasses, whose field defaults are the
physics defaults, and a flat `key = value` text format.

Format rules: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Values parse as int, float, bool (true/false), comma-separated
numeric lists, or bare strings.  Keys are the dataclass field names; the
`scenario` key selects which dataclass applies, and each value must fit
its field's annotation (`_typed`).  Parsing then re-serializing
materializes every default, so round-trips are canonical.
"""

from dataclasses import dataclass, field, fields
from typing import get_args, get_origin

from .errors import ConfigError

# ---------------------------------------------------------------------------
# One dataclass per scenario.  Every physics default is a field default
# here, never inline in driver code.  hbar = m = 1 throughout.
# ---------------------------------------------------------------------------

@dataclass
class BeamSplitterConfig:
    scenario: str = "beam_splitter"
    seed: int = 1
    n: int = 1000
    grid_n: int = 2048
    grid_half_width: float = 32.0
    sigma: float = 1.0
    splitter_momentum: float = 5.0
    amplitude_right: float = 0.7071067811865476
    amplitude_left: float = 0.7071067811865476
    dt: float = 0.002
    n_steps: int = 1000          # T = 2
    frame_stride: int = 1        # 1001 frames
    dt_traj: float = 0.0001
    record_stride: int = 0       # 0 = record at frame times
    detector_count: int = 8
    detector_sigma: float = 1.0
    detector_displacement: float = 2.0
    detector_ramp_duration: float = 0.4
    separation_sigmas: float = 8.0
    spatial_overlap_threshold: float = 1e-6
    ratio_threshold: float = 1e6

    def trajectory_steps(self) -> tuple[int, int]:
        """(grid RK4 steps, steps per recorded point) of the run."""
        return trajectory_steps(self.dt_traj, self.dt * self.frame_stride,
                                self.n_steps * self.dt, self.record_stride)

    def validate(self):
        _require(self.seed >= 0, "seed must be >= 0")
        _require(self.n >= 1, "ensemble size must be >= 1")
        _require(self.sigma > 0, "sigma must be positive")
        _require(self.splitter_momentum > 0, "splitter momentum must be positive")
        _require(abs(self.amplitude_right ** 2 + self.amplitude_left ** 2 - 1.0)
                 <= 1e-6, "splitter amplitudes must be normalized")
        _require(self.dt > 0 and self.n_steps > 0, "dt and n_steps must be positive")
        _require_frame_stride(self)
        _require(self.record_stride >= 0, "record_stride must be >= 0")
        self.trajectory_steps()
        # the detector stage steps at the frame step; a ramp end between two
        # steps would put the schedule's kink inside one RK4 step
        ramp_steps = self.detector_ramp_duration / (self.dt
                                                    * self.frame_stride)
        _require(abs(ramp_steps - round(ramp_steps))
                 <= 1e-9 * max(1.0, ramp_steps),
                 "detector_ramp_duration must be a whole number of frame steps "
                 "(dt * frame_stride)")


@dataclass
class SternGerlachConfig:
    scenario: str = "stern_gerlach"
    seed: int = 1
    n: int = 1000
    grid_n: int = 1024
    grid_half_width: float = 32.0
    sigma: float = 1.0
    alpha: float = 0.7071067811865476
    beta: float = 0.7071067811865476
    spinor_phase: float = 1.5707963267948966  # arg(beta); spin along +y
    gradient: float = 8.0
    offset: float = 0.0
    gordon: bool = False
    dt: float = 0.002
    n_steps: int = 1000          # flight time T = 2
    frame_stride: int = 5
    dt_traj: float = 0.005
    separation_sigmas: float = 8.0
    ratio_threshold: float = 1e6
    # the y and z line grids of the Gordon run (gordon on)
    grid_n_y: int = 128
    grid_half_width_y: float = 24.0
    grid_n_z: int = 512
    grid_half_width_z: float = 24.0
    sigma_y: float = 2.0

    def trajectory_steps(self) -> tuple[int, int]:
        """(grid RK4 steps, steps per recorded point) of a run."""
        return trajectory_steps(self.dt_traj, self.dt * self.frame_stride,
                                self.n_steps * self.dt)

    def validate(self):
        _require(self.seed >= 0, "seed must be >= 0")
        _require(self.n >= 1, "ensemble size must be >= 1")
        _require(abs(self.alpha ** 2 + self.beta ** 2 - 1.0) <= 1e-6,
                 "spinor amplitudes must satisfy alpha^2 + beta^2 = 1")
        _require(self.gradient != 0.0, "gradient must be nonzero")
        _require(self.sigma > 0, "sigma must be positive")
        _require(self.n_steps > 0, "n_steps must be positive")
        _require_frame_stride(self)
        self.trajectory_steps()


@dataclass
class OpticalSGConfig:
    scenario: str = "optical_sg"
    seed: int = 1
    n: int = 500
    N_sweep: list[int] = field(default_factory=lambda: [1, 4, 16, 64])
    system_sigma: float = 1.0
    apparatus_sigma: float = 1.0
    amplitude_plus: float = 0.7071067811865476
    amplitude_minus: float = 0.7071067811865476
    T: float = 1.0
    ramp_start: float = 0.0
    ramp_end: float = 0.5
    displacement: float = 4.0
    # system branches stay together during the ramp, then drift apart;
    # initial_separation > 0 instead starts them disjoint (static offset)
    initial_separation: float = 0.0
    system_separation: float = 1.0
    system_separation_start: float = 0.5
    system_separation_end: float = 1.0
    dt_traj: float = 0.0025
    record_stride: int = 2
    ratio_threshold: float = 1e6

    def validate(self):
        _require(self.seed >= 0, "seed must be >= 0")
        _require(self.n >= 1, "ensemble size must be >= 1")
        _require(len(self.N_sweep) >= 1, "N_sweep must not be empty")
        _require(all(N >= 0 for N in self.N_sweep), "N values must be >= 0")
        _require(abs(self.amplitude_plus ** 2 + self.amplitude_minus ** 2 - 1.0)
                 <= 1e-6, "branch amplitudes must be normalized")
        _require(0.0 <= self.ramp_start < self.ramp_end <= self.T,
                 "ramp window must sit inside [0, T]")
        _require(self.record_stride >= 1, "record_stride must be >= 1")
        trajectory_steps(self.dt_traj, self.T, self.T, self.record_stride)


@dataclass
class AncillaChainConfig:
    scenario: str = "ancilla_chain"
    seed: int = 1
    n: int = 500
    N_prime: int = 16
    N: int = 32
    t1: float = 0.5
    t2: float = 1.0
    ancilla_ramp_start: float = 0.0
    ancilla_ramp_end: float = 0.45
    ancilla_displacement: float = 2.0
    apparatus_ramp_start: float = 0.5
    apparatus_ramp_end: float = 0.95
    apparatus_displacement: float = 2.0
    system_sigma: float = 1.0
    ancilla_sigma: float = 1.0
    apparatus_sigma: float = 1.0
    system_separation: float = 0.0  # static branch center gap, in units of length
    amplitude_plus: float = 0.7071067811865476
    amplitude_minus: float = 0.7071067811865476
    dt_traj: float = 0.0025
    record_stride: int = 2
    ratio_threshold: float = 1e6
    # sweep lists, both set or both empty (a single run with the scalars)
    N_prime_sweep: list[int] = field(default_factory=list)
    separation_sweep: list[float] = field(default_factory=list)

    def validate(self):
        _require(self.seed >= 0, "seed must be >= 0")
        _require(self.n >= 1, "ensemble size must be >= 1")
        _require(min(self.N_prime, self.N, *self.N_prime_sweep) >= 1,
                 "N_prime, N and the N_prime_sweep entries must be >= 1")
        _require(0.0 < self.t1 < self.t2, "windows must satisfy 0 < t1 < t2")
        _require(self.ancilla_ramp_end <= self.t1 <= self.apparatus_ramp_start,
                 "stage ramps must respect the coupling windows")
        _require(abs(self.amplitude_plus ** 2 + self.amplitude_minus ** 2 - 1.0)
                 <= 1e-6, "branch amplitudes must be normalized")
        _require(self.record_stride >= 1, "record_stride must be >= 1")
        _require(bool(self.N_prime_sweep) == bool(self.separation_sweep),
                 "N_prime_sweep and separation_sweep must be set together")
        trajectory_steps(self.dt_traj, self.t2, self.t2, self.record_stride)


CONFIG_TYPES = {cls.scenario: cls for cls in (
    BeamSplitterConfig, SternGerlachConfig, OpticalSGConfig,
    AncillaChainConfig)}
SCENARIOS = tuple(CONFIG_TYPES)

ScenarioConfig = (BeamSplitterConfig | SternGerlachConfig
                  | OpticalSGConfig | AncillaChainConfig)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _require_frame_stride(cfg) -> None:
    """The grid drivers size their per-frame arrays from
    n_steps // frame_stride + 1 before propagating."""
    _require(cfg.frame_stride >= 1 and cfg.n_steps % cfg.frame_stride == 0,
             "frame_stride must be >= 1 and divide n_steps")


def trajectory_steps(dt_traj: float, frame_dt: float, span: float,
                     record_stride: int = 1) -> tuple[int, int]:
    """(steps, record_stride) of a grid RK4 of step dt_traj over frames
    frame_dt apart that span `span`, checked before anything is
    propagated: dt_traj must be positive, at most frame_dt and divide the
    span, and record_stride must divide the step count.  record_stride 0
    records a point once per frame, every round(frame_dt / dt_traj) steps.
    """
    _require(dt_traj > 0, "dt_traj must be positive")
    _require(dt_traj <= frame_dt * (1 + 1e-9),
             "dt_traj must not exceed the frame spacing")
    n_steps = int(round(span / dt_traj))
    _require(abs(n_steps * dt_traj - span) <= 1e-9 * max(1.0, span),
             "dt_traj must divide the frame span")
    stride = record_stride or max(int(round(frame_dt / dt_traj)), 1)
    _require(n_steps % stride == 0, "record_stride must divide the step count")
    return n_steps, stride


# ---------------------------------------------------------------------------
# Flat text parsing / serialization
# ---------------------------------------------------------------------------

def _parse_scalar(raw: str):
    text = raw.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if "," in raw:
            out[key] = [_parse_scalar(v) for v in raw.split(",") if v.strip()]
        else:
            out[key] = _parse_scalar(raw)
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fits(kind: type, value) -> bool:
    """An int field takes an int but not a bool, a float field an int or a
    float, kept as written, a bool or str field only its own type."""
    if kind is float:
        return _is_number(value)
    return isinstance(value, kind) and not (kind is int
                                            and isinstance(value, bool))


def _typed(name: str, kind: type, value):
    """value as a field annotated `kind` takes it (`_fits`), else
    ConfigError; a list[int] or list[float] field takes items that fit
    the item type (a bare value is a one-item list, an empty one the empty
    list)."""
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        if not isinstance(value, list):
            value = [] if value == "" else [value]
        ok = all(_fits(item, v) for v in value)
        kind_name = f"a list of {item.__name__}s"
    else:
        ok, kind_name = _fits(kind, value), kind.__name__
    if not ok:
        raise ConfigError(f"{name} must be {kind_name}, got {value!r}")
    return value


def config_from_mapping(mapping: dict) -> ScenarioConfig:
    data = dict(mapping)
    scenario = data.get("scenario")
    if not isinstance(scenario, str) or scenario not in CONFIG_TYPES:
        raise ConfigError(
            f"config must set scenario to one of {SCENARIOS}, got {scenario!r}")
    cls = CONFIG_TYPES[scenario]
    valid = {f.name for f in fields(cls)}
    unknown = set(data) - valid
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = cls(**{f.name: _typed(f.name, f.type, data[f.name])
                 for f in fields(cls) if f.name in data})
    cfg.validate()
    return cfg


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text))


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical flat text with every default materialized."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, list):
            rendered = ",".join(repr(v) if isinstance(v, float) else str(v)
                                for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
