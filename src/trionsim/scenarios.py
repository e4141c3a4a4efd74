"""Scenario files: strict JSON schema binding device, protocol, analysis.

Strictness is deliberate: unknown keys are rejected with the full field
path so a typo in a physics parameter cannot silently fall back to a
default.  The seed is a required protocol field; there is no implicit
randomness anywhere else.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

from .core import (ConfigError, DeviceParams, as_bool, as_number, as_str,
                   check_keys)
from .fitkit import PARAM_NAMES
from .montecarlo import ProtocolConfig, ProtocolKind
from .rng import derive_seed


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
    """Analysis knobs; None takes the protocol's default.

    `start_stop` and `normalize` shape only `cw_g2.csv`: the cw DOCP
    (`fig2b_docp.csv`) and its fit always use raw all-pairs correlations.
    """

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


@dataclass
class Scenario:
    device: DeviceParams
    protocol: ProtocolConfig
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    outputs: OutputOptions = field(default_factory=OutputOptions)
    delay_sweep: tuple | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        check_keys(d, "$", ("device", "protocol"), ("analysis", "outputs"))
        device = DeviceParams.from_dict(d["device"], "device")
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


def _parse_protocol(d):
    """The protocol block; a `pulse_delay_s` list is a delay sweep, and
    the config carries its first delay."""
    delays = d.get("pulse_delay_s") if isinstance(d, dict) else None
    if not isinstance(delays, list):
        return ProtocolConfig.from_dict(d, "protocol"), None
    if d.get("kind") != ProtocolKind.PULSED_2PC.value:
        raise ConfigError("protocol.pulse_delay_s: sweep lists are only "
                          "valid for pulsed_2pc")
    sweep = tuple(as_number(v, f"protocol.pulse_delay_s[{i}]")
                  for i, v in enumerate(delays))
    if not sweep:
        raise ConfigError("protocol.pulse_delay_s: empty sweep")
    protocol = ProtocolConfig.from_dict({**d, "pulse_delay_s": sweep[0]},
                                        "protocol")
    return protocol, sweep


def _parse_analysis(d: dict) -> AnalysisOptions:
    check_keys(d, "analysis", (), [f.name for f in fields(AnalysisOptions)])
    opts = AnalysisOptions()
    for key, value in d.items():
        at = f"analysis.{key}"
        if key in ("normalize", "start_stop"):
            setattr(opts, key, as_bool(value, at))
        elif key == "fit":
            opts.fit = _parse_fit(value)
        elif value is None:   # null takes the default
            continue
        elif key == "t2_fit_window_s":
            if not isinstance(value, list) or len(value) != 2:
                raise ConfigError(f"{at}: expected [lo, hi]")
            opts.t2_fit_window_s = tuple(as_number(v, f"{at}[{i}]")
                                         for i, v in enumerate(value))
        else:
            value = as_number(value, at)
            if key != "t1_slice_s" and not value > 0.0:
                raise ConfigError(f"{at}: must be > 0")
            setattr(opts, key, value)
    return opts


def _parse_fit(d: dict) -> FitOptions:
    check_keys(d, "analysis.fit", (),
               ("enabled", "variant", "t0", "exclusion_window_s", "fixed"))
    opts = FitOptions()
    if "enabled" in d:
        opts.enabled = as_bool(d["enabled"], "analysis.fit.enabled")
    if d.get("variant") is not None:
        opts.variant = as_str(d["variant"], "analysis.fit.variant",
                              ("pulsed", "cw"))
    if "t0" in d:
        opts.t0 = as_number(d["t0"], "analysis.fit.t0")
    if d.get("exclusion_window_s") is not None:
        opts.exclusion_window_s = as_number(
            d["exclusion_window_s"], "analysis.fit.exclusion_window_s")
    if "fixed" in d:
        check_keys(d["fixed"], "analysis.fit.fixed", (), PARAM_NAMES)
        opts.fixed = {name: as_number(value, f"analysis.fit.fixed.{name}")
                      for name, value in d["fixed"].items()}
    return opts


def _parse_outputs(d: dict) -> OutputOptions:
    check_keys(d, "outputs", (), ("directory", "format", "prefix"))
    return OutputOptions(**{
        key: as_str(value, f"outputs.{key}",
                    ("binary", "csv") if key == "format" else ())
        for key, value in d.items()})


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
