"""Physical constants, polarization algebra, device and noise parameters,
and the strict field checks every configuration block is parsed with.

Unit conventions used throughout the package: energies in eV, times in
seconds, frequencies in Hz, magnetic fields in tesla.  Conversions to
display units (ns, GHz, ueV) happen only at I/O boundaries.

Circular polarization follows the fixed Jones convention over the (H, V)
frame: R = (1, -i)/sqrt(2), L = (1, +i)/sqrt(2).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .rng import gaussian, lorentzian

MU_B_EV_PER_T = 5.7883818e-5
PLANCK_EV_S = 4.135667696e-15


class ConfigError(ValueError):
    """Invalid configuration content; message starts with the field path."""


def check_keys(d, path: str, required, optional=()) -> None:
    """Reject a non-object, an unknown key or a missing required key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}: missing required key")


def as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        raise ConfigError(f"{path}: out of range") from None


def as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false")
    return value


def as_str(value, path: str, choices=()) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    if choices and value not in choices:
        raise ConfigError(f"{path}: expected one of {', '.join(choices)}")
    return value


def as_enum(value, path: str, enum_cls):
    """The member of a string-valued enum named by `value`."""
    return enum_cls(as_str(value, path, tuple(m.value for m in enum_cls)))


def construct(fn, path: str, *args, **kwargs):
    """`fn(*args, **kwargs)`, a constructor or a check; a ValueError it
    raises becomes a ConfigError under the path `path`."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:   # already names a field of the block
        raise ConfigError(f"{path}.{exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


class Pol(enum.IntEnum):
    """Polarization basis labels.  Integer values double as wire codes."""

    H = 0
    V = 1
    D = 2
    A = 3
    R = 4
    L = 5


_S2 = 1.0 / math.sqrt(2.0)
_JONES = {
    Pol.H: np.array([1.0, 0.0], dtype=complex),
    Pol.V: np.array([0.0, 1.0], dtype=complex),
    Pol.D: np.array([_S2, _S2], dtype=complex),
    Pol.A: np.array([_S2, -_S2], dtype=complex),
    Pol.R: np.array([_S2, -1j * _S2], dtype=complex),
    Pol.L: np.array([_S2, 1j * _S2], dtype=complex),
}
for _v in _JONES.values():
    _v.setflags(write=False)

_ORTHOGONAL = {
    Pol.H: Pol.V, Pol.V: Pol.H,
    Pol.D: Pol.A, Pol.A: Pol.D,
    Pol.R: Pol.L, Pol.L: Pol.R,
}

CIRCULAR = (Pol.R, Pol.L)


def jones_vector(pol) -> np.ndarray:
    """Unit Jones vector for a basis label (read-only array)."""
    return _JONES[Pol(pol)]


def orthogonal(pol) -> Pol:
    """The orthogonal partner within the same basis pair."""
    return _ORTHOGONAL[Pol(pol)]


def pol_from_label(label: str) -> Pol:
    try:
        return Pol[label.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}") from None


def as_pols(value, path: str) -> tuple:
    """A non-empty list of exact polarization labels, as Pol members."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return tuple(Pol[as_str(v, f"{path}[{i}]", tuple(Pol.__members__))]
                 for i, v in enumerate(value))


def project(state_jones, onto) -> float:
    """Projection probability |<onto|state>|^2 of a unit-norm Jones vector.

    Parameters
    ----------
    state_jones : array_like, shape (2,)
        Complex amplitudes in the (H, V) frame.  Must be normalized.
    onto : Pol
        Analyzer setting.

    Returns
    -------
    float in [0, 1].
    """
    state = np.asarray(state_jones, dtype=complex)
    if state.shape != (2,):
        raise ValueError("polarization state must have exactly 2 amplitudes")
    norm2 = float(np.real(np.vdot(state, state)))
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"polarization state must be unit norm, got |s|^2 = {norm2!r}")
    amp = np.vdot(jones_vector(onto), state)
    return float(min(1.0, max(0.0, abs(amp) ** 2)))


class NoiseKind(enum.Enum):
    NONE = "none"
    GAUSSIAN = "gaussian_jitter"
    LORENTZIAN = "lorentzian_jitter"


class NoiseTarget(enum.Enum):
    GROUND = "ground"
    EXCITED = "excited"
    BOTH = "both"


@dataclass(frozen=True)
class NoiseModel:
    """Quasi-static frequency jitter of the Larmor precession.

    `width_hz` is the frequency scale: HWHM of the Lorentzian detuning
    distribution, or standard deviation of the Gaussian one.  The jitter
    is frozen during one shot (pulsed protocols) or one re-draw window
    (cw protocols) and re-drawn in between, which is what produces the
    observed dephasing envelopes.
    """

    kind: NoiseKind = NoiseKind.NONE
    width_hz: float = 0.0
    applies_to: NoiseTarget = NoiseTarget.GROUND

    def __post_init__(self):
        object.__setattr__(self, "kind", NoiseKind(self.kind))
        object.__setattr__(self, "applies_to", NoiseTarget(self.applies_to))
        if not math.isfinite(self.width_hz) or self.width_hz < 0.0:
            raise ValueError("noise width must be finite and >= 0")
        if self.kind is NoiseKind.NONE:
            object.__setattr__(self, "width_hz", 0.0)

    @classmethod
    def quiet(cls):
        return cls(NoiseKind.NONE, 0.0)

    @classmethod
    def lorentzian_from_t2star(cls, t2star_s, applies_to=NoiseTarget.GROUND):
        """Lorentzian jitter whose ensemble envelope decays to 1/e at t2star."""
        if t2star_s <= 0:
            raise ValueError("t2star must be > 0")
        return cls(NoiseKind.LORENTZIAN, 1.0 / (2.0 * math.pi * t2star_s), applies_to)

    @property
    def affects_ground(self) -> bool:
        return self.kind is not NoiseKind.NONE and self.applies_to in (
            NoiseTarget.GROUND, NoiseTarget.BOTH)

    @property
    def affects_excited(self) -> bool:
        return self.kind is not NoiseKind.NONE and self.applies_to in (
            NoiseTarget.EXCITED, NoiseTarget.BOTH)

    def sample(self, rng: np.random.Generator, size):
        """Draw frequency offsets in Hz, one `rng` word per value."""
        if self.kind is NoiseKind.NONE or self.width_hz == 0.0:
            return np.zeros(size)
        if self.kind is NoiseKind.LORENTZIAN:
            return lorentzian(rng, self.width_hz, size)
        return gaussian(rng, self.width_hz, size)

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "width_hz": self.width_hz,
                "applies_to": self.applies_to.value}

    @classmethod
    def from_dict(cls, d: dict, path: str = "noise") -> "NoiseModel":
        check_keys(d, path, ("kind", "width_hz", "applies_to"))
        return construct(
            cls, path, as_enum(d["kind"], f"{path}.kind", NoiseKind),
            as_number(d["width_hz"], f"{path}.width_hz"),
            as_enum(d["applies_to"], f"{path}.applies_to", NoiseTarget))


@dataclass(frozen=True)
class DeviceParams:
    """Static device parameters of the four-level emitter.

    g-factors are stored as magnitudes; precession handedness is not an
    observable of any protocol here.  `p_mem` is the spin-preserving
    excitation probability; the complementary fraction excites into a
    fully depolarized upper state, so the zero-field circular memory
    equals `p_mem` itself.
    """

    g_e: float
    g_h: float
    t1_s: float
    p_mem: float
    b_x_t: float
    noise: NoiseModel = field(default_factory=NoiseModel.quiet)

    def __post_init__(self):
        for name in ("g_e", "g_h"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be a finite magnitude >= 0")
        if not (math.isfinite(self.t1_s) and self.t1_s > 0.0):
            raise ValueError("t1_s must be > 0")
        if not (0.0 <= self.p_mem <= 1.0):
            raise ValueError("p_mem must lie in [0, 1]")
        if not (math.isfinite(self.b_x_t) and self.b_x_t >= 0.0):
            raise ValueError("b_x_t must be >= 0")
        if not (math.isfinite(self.f_e_hz) and math.isfinite(self.f_h_hz)):
            raise ConfigError(f"b_x_t: {self.b_x_t:g} T gives a Larmor "
                              f"frequency that is not finite")
        if not isinstance(self.noise, NoiseModel):
            raise ValueError("noise must be a NoiseModel")

    @property
    def delta_e_ev(self) -> float:
        return zeeman_splitting(self.g_e, self.b_x_t)

    @property
    def delta_h_ev(self) -> float:
        return zeeman_splitting(self.g_h, self.b_x_t)

    @property
    def f_e_hz(self) -> float:
        """Larmor frequency of the excited (trion) doublet."""
        return self.delta_e_ev / PLANCK_EV_S

    @property
    def f_h_hz(self) -> float:
        """Larmor frequency of the ground (hole) doublet."""
        return self.delta_h_ev / PLANCK_EV_S

    def to_dict(self) -> dict:
        return {"g_e": self.g_e, "g_h": self.g_h, "t1_s": self.t1_s,
                "p_mem": self.p_mem, "b_x_t": self.b_x_t,
                "noise": self.noise.to_dict()}

    @classmethod
    def from_dict(cls, d: dict, path: str = "device") -> "DeviceParams":
        names = [f.name for f in fields(cls)]
        check_keys(d, path, names)
        noise = NoiseModel.from_dict(d["noise"], f"{path}.noise")
        return construct(cls, path, noise=noise, **{
            key: as_number(d[key], f"{path}.{key}")
            for key in names if key != "noise"})


def zeeman_splitting(g: float, b_t: float) -> float:
    """In-plane Zeeman splitting mu_B * g * B in eV."""
    if not math.isfinite(g):
        raise ValueError("g must be finite")
    if not (math.isfinite(b_t) and b_t >= 0.0):
        raise ValueError("field must be finite and >= 0")
    return MU_B_EV_PER_T * g * b_t


def larmor_frequency(g: float, b_t: float) -> float:
    """Precession frequency of the doublet in Hz."""
    return zeeman_splitting(g, b_t) / PLANCK_EV_S
