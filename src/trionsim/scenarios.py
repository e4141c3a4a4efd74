"""Scenario files: strict JSON schema binding device, protocol, analysis.

Strictness is deliberate: unknown keys are rejected with the full field
path so a typo in a physics parameter cannot silently fall back to a
default.  The seed is a required protocol field; there is no implicit
randomness anywhere else.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from .core import DeviceParams
from .fitkit import PARAM_NAMES
from .montecarlo import ProtocolConfig, ProtocolKind
from .rng import derive_seed


class ConfigError(ValueError):
    """Invalid scenario content; message starts with the field path."""


_POL_NAMES = ("H", "V", "D", "A", "R", "L")


def _check_keys(d: dict, path: str, required: tuple, optional: tuple):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}: missing required key")


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false")
    return value


def _str(value, path: str, choices: tuple = ()) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    if choices and value not in choices:
        raise ConfigError(f"{path}: expected one of {', '.join(choices)}")
    return value


def _pol_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return [_str(v, f"{path}[{i}]", _POL_NAMES) for i, v in enumerate(value)]


@dataclass
class FitOptions:
    enabled: bool = True
    variant: str | None = None
    t0: float = 0.0
    exclusion_window_s: float | None = None
    fixed: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AnalysisOptions:
    bin_s: float | None = None
    span_s: float | None = None
    window_s: float | None = None
    normalize: bool = True
    start_stop: bool = False
    t1_slice_s: float | None = None
    slice_tolerance_s: float | None = None
    t2_fit_window_s: tuple | None = None
    fit: FitOptions = field(default_factory=FitOptions)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.t2_fit_window_s is not None:
            d["t2_fit_window_s"] = list(self.t2_fit_window_s)
        return d


@dataclass
class OutputOptions:
    directory: str = "."
    format: str = "binary"
    prefix: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# protocol defaults mirror the ProtocolConfig constructors per kind
_PROTO_DEFAULTS = {
    ProtocolKind.LIFETIME: {"exc_pols": ["R"], "det_pols": [["R", "L"]]},
    ProtocolKind.DOCP_ZERO_FIELD: {"exc_pols": ["R"],
                                   "det_pols": [["R", "L"]]},
    ProtocolKind.CW_G2: {"exc_pols": ["R"],
                         "det_pols": [["R", "L"], ["R", "L"]]},
    ProtocolKind.PULSED_2PC: {"exc_pols": ["R", "H"],
                              "det_pols": [["R"], ["R", "L"]]},
}

_PROTO_OPTIONAL = ("exc_pols", "det_pols", "rep_period_s", "pulse_delay_s",
                   "pump_rate_hz", "segment_length_s",
                   "detection_efficiency")


@dataclass
class Scenario:
    device: DeviceParams
    protocol: ProtocolConfig
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    outputs: OutputOptions = field(default_factory=OutputOptions)
    delay_sweep: tuple | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        _check_keys(d, "$", ("device", "protocol"), ("analysis", "outputs"))
        device = _parse_device(d["device"])
        protocol, sweep = _parse_protocol(d["protocol"])
        analysis = _parse_analysis(d.get("analysis", {}))
        outputs = _parse_outputs(d.get("outputs", {}))
        return cls(device, protocol, analysis, outputs, sweep)

    def to_dict(self) -> dict:
        proto = self.protocol.to_dict()
        if self.delay_sweep is not None:
            proto["pulse_delay_s"] = list(self.delay_sweep)
        return {"device": self.device.to_dict(), "protocol": proto,
                "analysis": self.analysis.to_dict(),
                "outputs": self.outputs.to_dict()}

    def expand(self):
        """One (label, protocol) per run; delay sweeps get derived seeds."""
        if self.delay_sweep is None:
            return [("", self.protocol)]
        base = self.protocol.rng_seed
        return [(f"dt{1e9 * dt:.4g}ns",
                 replace(self.protocol, pulse_delay_s=dt,
                         rng_seed=derive_seed(base, "delay_sweep", i)))
                for i, dt in enumerate(self.delay_sweep)]


def _parse_device(d: dict) -> DeviceParams:
    _check_keys(d, "device",
                ("g_e", "g_h", "t1_s", "p_mem", "b_x_t", "noise"), ())
    noise = d["noise"]
    _check_keys(noise, "device.noise", ("kind", "width_hz", "applies_to"), ())
    _str(noise["kind"], "device.noise.kind")
    _num(noise["width_hz"], "device.noise.width_hz")
    _str(noise["applies_to"], "device.noise.applies_to")
    for key in ("g_e", "g_h", "t1_s", "p_mem", "b_x_t"):
        _num(d[key], f"device.{key}")
    try:
        return DeviceParams.from_dict(d)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"device: {exc}") from exc


def _parse_protocol(d: dict):
    _check_keys(d, "protocol", ("kind", "n_shots", "rng_seed"),
                _PROTO_OPTIONAL)
    kind_name = _str(d["kind"], "protocol.kind",
                     tuple(k.value for k in ProtocolKind))
    kind = ProtocolKind(kind_name)
    _int(d["n_shots"], "protocol.n_shots")
    _int(d["rng_seed"], "protocol.rng_seed")

    merged = {"kind": kind_name, "n_shots": d["n_shots"],
              "rng_seed": d["rng_seed"], "rep_period_s": 12.5e-9,
              "pulse_delay_s": None, "pump_rate_hz": None,
              "segment_length_s": 20e-6, "detection_efficiency": 1.0}
    merged.update(_PROTO_DEFAULTS[kind])

    sweep = None
    for key in _PROTO_OPTIONAL:
        # explicit null means "use the kind default", same as absent
        if d.get(key) is None:
            continue
        value = d[key]
        if key == "exc_pols":
            merged[key] = _pol_list(value, "protocol.exc_pols")
        elif key == "det_pols":
            if not isinstance(value, list) or not value:
                raise ConfigError("protocol.det_pols: expected a list")
            merged[key] = [_pol_list(ch, f"protocol.det_pols[{i}]")
                           for i, ch in enumerate(value)]
        elif key == "pulse_delay_s" and isinstance(value, list):
            if kind is not ProtocolKind.PULSED_2PC:
                raise ConfigError("protocol.pulse_delay_s: sweep lists are "
                                  "only valid for pulsed_2pc")
            sweep = tuple(_num(v, f"protocol.pulse_delay_s[{i}]")
                          for i, v in enumerate(value))
            if not sweep:
                raise ConfigError("protocol.pulse_delay_s: empty sweep")
            merged[key] = sweep[0]
        else:
            merged[key] = _num(value, f"protocol.{key}")
    try:
        return ProtocolConfig.from_dict(merged), sweep
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc


def _parse_analysis(d: dict) -> AnalysisOptions:
    _check_keys(d, "analysis", (),
                ("bin_s", "span_s", "window_s", "normalize", "start_stop",
                 "t1_slice_s", "slice_tolerance_s", "t2_fit_window_s",
                 "fit"))
    opts = AnalysisOptions()
    for key in ("bin_s", "span_s", "window_s", "t1_slice_s",
                "slice_tolerance_s"):
        if d.get(key) is not None:
            setattr(opts, key, _num(d[key], f"analysis.{key}"))
    if "normalize" in d:
        opts.normalize = _bool(d["normalize"], "analysis.normalize")
    if "start_stop" in d:
        opts.start_stop = _bool(d["start_stop"], "analysis.start_stop")
    if d.get("t2_fit_window_s") is not None:
        win = d["t2_fit_window_s"]
        if not isinstance(win, list) or len(win) != 2:
            raise ConfigError("analysis.t2_fit_window_s: expected [lo, hi]")
        opts.t2_fit_window_s = tuple(
            _num(v, f"analysis.t2_fit_window_s[{i}]")
            for i, v in enumerate(win))
    if "fit" in d:
        opts.fit = _parse_fit(d["fit"])
    return opts


def _parse_fit(d: dict) -> FitOptions:
    _check_keys(d, "analysis.fit", (),
                ("enabled", "variant", "t0", "exclusion_window_s", "fixed"))
    opts = FitOptions()
    if "enabled" in d:
        opts.enabled = _bool(d["enabled"], "analysis.fit.enabled")
    if d.get("variant") is not None:
        opts.variant = _str(d["variant"], "analysis.fit.variant",
                            ("pulsed", "cw"))
    if "t0" in d:
        opts.t0 = _num(d["t0"], "analysis.fit.t0")
    if d.get("exclusion_window_s") is not None:
        opts.exclusion_window_s = _num(d["exclusion_window_s"],
                                       "analysis.fit.exclusion_window_s")
    if "fixed" in d:
        if not isinstance(d["fixed"], dict):
            raise ConfigError("analysis.fit.fixed: expected an object")
        for name, value in d["fixed"].items():
            if name not in PARAM_NAMES:
                raise ConfigError(f"analysis.fit.fixed.{name}: unknown key")
            opts.fixed[name] = _num(value, f"analysis.fit.fixed.{name}")
    return opts


def _parse_outputs(d: dict) -> OutputOptions:
    _check_keys(d, "outputs", (), ("directory", "format", "prefix"))
    opts = OutputOptions()
    if "directory" in d:
        opts.directory = _str(d["directory"], "outputs.directory")
    if "format" in d:
        opts.format = _str(d["format"], "outputs.format", ("binary", "csv"))
    if "prefix" in d:
        opts.prefix = _str(d["prefix"], "outputs.prefix")
    return opts


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"$: invalid JSON in {path}: {exc}") from exc
    return Scenario.from_dict(raw)


def save_scenario(path, scenario: Scenario) -> None:
    with open(path, "w") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
