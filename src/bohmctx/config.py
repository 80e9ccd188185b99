"""Scenario configuration: typed dataclasses, a flat `key = value` text
format, and the single table of physics defaults.

Format rules: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Values parse as int, float, bool (true/false), comma-separated
numeric lists, or bare strings.  Keys are the dataclass field names; the
`scenario` key selects which dataclass applies.  Parsing then re-serializing
materializes every default, so round-trips are canonical.
"""

import dataclasses
from dataclasses import dataclass, field, fields

from .errors import ConfigError

SCENARIOS = ("beam_splitter", "stern_gerlach", "optical_sg", "ancilla_chain")


# ---------------------------------------------------------------------------
# Physics defaults.  Every default lives here, never inline in driver code.
# hbar = m = 1 throughout.
# ---------------------------------------------------------------------------

DEFAULTS = {
    "beam_splitter": dict(
        seed=1, n=1000,
        grid_n=2048, grid_half_width=32.0,
        sigma=1.0, splitter_momentum=5.0,
        amplitude_right=0.7071067811865476, amplitude_left=0.7071067811865476,
        dt=0.002, n_steps=1000, frame_stride=1,   # T = 2, 1001 frames
        dt_traj=0.0001, record_stride=0,          # 0 = record at frame times
        detector_count=8, detector_sigma=1.0,
        detector_displacement=2.0, detector_ramp_duration=0.4,
        separation_sigmas=8.0, spatial_overlap_threshold=1e-6,
        ratio_threshold=1e6,
    ),
    "stern_gerlach": dict(
        seed=1, n=1000,
        grid_n=1024, grid_half_width=32.0,
        sigma=1.0, alpha=0.7071067811865476, beta=0.7071067811865476,
        spinor_phase=1.5707963267948966,  # arg(beta); spin along +y
        gradient=8.0, offset=0.0, gordon=False,
        dt=0.002, n_steps=1000, frame_stride=5,   # flight time T = 2
        dt_traj=0.005,
        separation_sigmas=8.0, ratio_threshold=1e6,
        # the y and z line grids of the Gordon run (gordon on)
        grid_n_y=128, grid_half_width_y=24.0,
        grid_n_z=512, grid_half_width_z=24.0,
        sigma_y=2.0,
    ),
    "optical_sg": dict(
        seed=1, n=500,
        N_sweep=[1, 4, 16, 64],
        system_sigma=1.0, apparatus_sigma=1.0,
        amplitude_plus=0.7071067811865476, amplitude_minus=0.7071067811865476,
        T=1.0, ramp_start=0.0, ramp_end=0.5, displacement=4.0,
        # system branches stay together during the ramp, then drift apart;
        # initial_separation > 0 instead starts them disjoint (static offset)
        initial_separation=0.0,
        system_separation=1.0, system_separation_start=0.5,
        system_separation_end=1.0,
        dt_traj=0.0025, record_stride=2,
        ratio_threshold=1e6,
    ),
    "ancilla_chain": dict(
        seed=1, n=500,
        N_prime=16, N=32,
        t1=0.5, t2=1.0,
        ancilla_ramp_start=0.0, ancilla_ramp_end=0.45, ancilla_displacement=2.0,
        apparatus_ramp_start=0.5, apparatus_ramp_end=0.95,
        apparatus_displacement=2.0,
        system_sigma=1.0, ancilla_sigma=1.0, apparatus_sigma=1.0,
        system_separation=0.0,  # static branch center gap, in units of length
        amplitude_plus=0.7071067811865476, amplitude_minus=0.7071067811865476,
        dt_traj=0.0025, record_stride=2,
        ratio_threshold=1e6,
        # sweep lists; empty = single run with the scalars above
        N_prime_sweep=[], separation_sweep=[],
    ),
}

OUTPUT_DEFAULTS = dict(trajectory_stride=1, born_check_n=2000)


def _cfg(scenario: str, key: str):
    return DEFAULTS[scenario][key]


@dataclass
class BeamSplitterConfig:
    scenario: str = "beam_splitter"
    seed: int = _cfg("beam_splitter", "seed")
    n: int = _cfg("beam_splitter", "n")
    grid_n: int = _cfg("beam_splitter", "grid_n")
    grid_half_width: float = _cfg("beam_splitter", "grid_half_width")
    sigma: float = _cfg("beam_splitter", "sigma")
    splitter_momentum: float = _cfg("beam_splitter", "splitter_momentum")
    amplitude_right: float = _cfg("beam_splitter", "amplitude_right")
    amplitude_left: float = _cfg("beam_splitter", "amplitude_left")
    dt: float = _cfg("beam_splitter", "dt")
    n_steps: int = _cfg("beam_splitter", "n_steps")
    frame_stride: int = _cfg("beam_splitter", "frame_stride")
    dt_traj: float = _cfg("beam_splitter", "dt_traj")
    record_stride: int = _cfg("beam_splitter", "record_stride")
    detector_count: int = _cfg("beam_splitter", "detector_count")
    detector_sigma: float = _cfg("beam_splitter", "detector_sigma")
    detector_displacement: float = _cfg("beam_splitter", "detector_displacement")
    detector_ramp_duration: float = _cfg("beam_splitter", "detector_ramp_duration")
    separation_sigmas: float = _cfg("beam_splitter", "separation_sigmas")
    spatial_overlap_threshold: float = _cfg("beam_splitter", "spatial_overlap_threshold")
    ratio_threshold: float = _cfg("beam_splitter", "ratio_threshold")

    def trajectory_steps(self) -> tuple[int, int]:
        """(grid RK4 steps, steps per recorded point) of the run."""
        return trajectory_steps(self.dt_traj, self.dt * self.frame_stride,
                                self.n_steps * self.dt,
                                max(self.record_stride, 0))

    def validate(self):
        _require(self.n >= 1, "ensemble size must be >= 1")
        _require(self.sigma > 0, "sigma must be positive")
        _require(self.splitter_momentum > 0, "splitter momentum must be positive")
        _require(abs(self.amplitude_right ** 2 + self.amplitude_left ** 2 - 1.0)
                 <= 1e-6, "splitter amplitudes must be normalized")
        _require(self.dt > 0 and self.n_steps > 0, "dt and n_steps must be positive")
        _require_frame_stride(self)
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
    seed: int = _cfg("stern_gerlach", "seed")
    n: int = _cfg("stern_gerlach", "n")
    grid_n: int = _cfg("stern_gerlach", "grid_n")
    grid_half_width: float = _cfg("stern_gerlach", "grid_half_width")
    sigma: float = _cfg("stern_gerlach", "sigma")
    alpha: float = _cfg("stern_gerlach", "alpha")
    beta: float = _cfg("stern_gerlach", "beta")
    spinor_phase: float = _cfg("stern_gerlach", "spinor_phase")
    gradient: float = _cfg("stern_gerlach", "gradient")
    offset: float = _cfg("stern_gerlach", "offset")
    gordon: bool = _cfg("stern_gerlach", "gordon")
    dt: float = _cfg("stern_gerlach", "dt")
    n_steps: int = _cfg("stern_gerlach", "n_steps")
    frame_stride: int = _cfg("stern_gerlach", "frame_stride")
    dt_traj: float = _cfg("stern_gerlach", "dt_traj")
    separation_sigmas: float = _cfg("stern_gerlach", "separation_sigmas")
    ratio_threshold: float = _cfg("stern_gerlach", "ratio_threshold")
    grid_n_y: int = _cfg("stern_gerlach", "grid_n_y")
    grid_half_width_y: float = _cfg("stern_gerlach", "grid_half_width_y")
    grid_n_z: int = _cfg("stern_gerlach", "grid_n_z")
    grid_half_width_z: float = _cfg("stern_gerlach", "grid_half_width_z")
    sigma_y: float = _cfg("stern_gerlach", "sigma_y")

    def trajectory_steps(self) -> tuple[int, int]:
        """(grid RK4 steps, steps per recorded point) of a run."""
        return trajectory_steps(self.dt_traj, self.dt * self.frame_stride,
                                self.n_steps * self.dt)

    def validate(self):
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
    seed: int = _cfg("optical_sg", "seed")
    n: int = _cfg("optical_sg", "n")
    N_sweep: list = field(default_factory=lambda: list(_cfg("optical_sg", "N_sweep")))
    system_sigma: float = _cfg("optical_sg", "system_sigma")
    apparatus_sigma: float = _cfg("optical_sg", "apparatus_sigma")
    amplitude_plus: float = _cfg("optical_sg", "amplitude_plus")
    amplitude_minus: float = _cfg("optical_sg", "amplitude_minus")
    T: float = _cfg("optical_sg", "T")
    ramp_start: float = _cfg("optical_sg", "ramp_start")
    ramp_end: float = _cfg("optical_sg", "ramp_end")
    displacement: float = _cfg("optical_sg", "displacement")
    initial_separation: float = _cfg("optical_sg", "initial_separation")
    system_separation: float = _cfg("optical_sg", "system_separation")
    system_separation_start: float = _cfg("optical_sg", "system_separation_start")
    system_separation_end: float = _cfg("optical_sg", "system_separation_end")
    dt_traj: float = _cfg("optical_sg", "dt_traj")
    record_stride: int = _cfg("optical_sg", "record_stride")
    ratio_threshold: float = _cfg("optical_sg", "ratio_threshold")

    def validate(self):
        _require(self.n >= 1, "ensemble size must be >= 1")
        _require(len(self.N_sweep) >= 1, "N_sweep must not be empty")
        _require(all(int(N) >= 0 for N in self.N_sweep), "N values must be >= 0")
        _require(abs(self.amplitude_plus ** 2 + self.amplitude_minus ** 2 - 1.0)
                 <= 1e-6, "branch amplitudes must be normalized")
        _require(0.0 <= self.ramp_start < self.ramp_end <= self.T,
                 "ramp window must sit inside [0, T]")


@dataclass
class AncillaChainConfig:
    scenario: str = "ancilla_chain"
    seed: int = _cfg("ancilla_chain", "seed")
    n: int = _cfg("ancilla_chain", "n")
    N_prime: int = _cfg("ancilla_chain", "N_prime")
    N: int = _cfg("ancilla_chain", "N")
    t1: float = _cfg("ancilla_chain", "t1")
    t2: float = _cfg("ancilla_chain", "t2")
    ancilla_ramp_start: float = _cfg("ancilla_chain", "ancilla_ramp_start")
    ancilla_ramp_end: float = _cfg("ancilla_chain", "ancilla_ramp_end")
    ancilla_displacement: float = _cfg("ancilla_chain", "ancilla_displacement")
    apparatus_ramp_start: float = _cfg("ancilla_chain", "apparatus_ramp_start")
    apparatus_ramp_end: float = _cfg("ancilla_chain", "apparatus_ramp_end")
    apparatus_displacement: float = _cfg("ancilla_chain", "apparatus_displacement")
    system_sigma: float = _cfg("ancilla_chain", "system_sigma")
    ancilla_sigma: float = _cfg("ancilla_chain", "ancilla_sigma")
    apparatus_sigma: float = _cfg("ancilla_chain", "apparatus_sigma")
    system_separation: float = _cfg("ancilla_chain", "system_separation")
    amplitude_plus: float = _cfg("ancilla_chain", "amplitude_plus")
    amplitude_minus: float = _cfg("ancilla_chain", "amplitude_minus")
    dt_traj: float = _cfg("ancilla_chain", "dt_traj")
    record_stride: int = _cfg("ancilla_chain", "record_stride")
    ratio_threshold: float = _cfg("ancilla_chain", "ratio_threshold")
    N_prime_sweep: list = field(default_factory=lambda: list(_cfg("ancilla_chain", "N_prime_sweep")))
    separation_sweep: list = field(default_factory=lambda: list(_cfg("ancilla_chain", "separation_sweep")))

    def validate(self):
        _require(self.n >= 1, "ensemble size must be >= 1")
        _require(self.N_prime >= 1 and self.N >= 1,
                 "N_prime and N must be >= 1")
        _require(0.0 < self.t1 < self.t2, "windows must satisfy 0 < t1 < t2")
        _require(abs(self.amplitude_plus ** 2 + self.amplitude_minus ** 2 - 1.0)
                 <= 1e-6, "branch amplitudes must be normalized")


CONFIG_TYPES = {
    "beam_splitter": BeamSplitterConfig,
    "stern_gerlach": SternGerlachConfig,
    "optical_sg": OpticalSGConfig,
    "ancilla_chain": AncillaChainConfig,
}

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


def config_from_mapping(mapping: dict) -> ScenarioConfig:
    data = dict(mapping)
    scenario = data.get("scenario")
    if scenario not in CONFIG_TYPES:
        raise ConfigError(
            f"config must set scenario to one of {SCENARIOS}, got {scenario!r}")
    cls = CONFIG_TYPES[scenario]
    valid = {f.name for f in fields(cls)}
    unknown = set(data) - valid
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.type in (list, "list") and not isinstance(value, list):
            value = [] if value == "" else [value]
        kwargs[f.name] = value
    cfg = cls(**kwargs)
    cfg.validate()
    return cfg


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text))


def config_to_mapping(cfg: ScenarioConfig) -> dict:
    return dataclasses.asdict(cfg)


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
