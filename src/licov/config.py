"""Run configuration: INI-style sections validated against a schema.

Unknown sections or keys are rejected. `--set section.key=value`
overrides file values. The fully resolved configuration is echoed into
every artifact a command writes.
"""
from __future__ import annotations

import configparser
from dataclasses import fields, is_dataclass
from types import SimpleNamespace

from .cloud import MapSetup
from .errors import ConfigError
from .fusion import MODES, FusionSetup
from .icp import IcpConfig
from .mcgen import MonteCarloSpec, PerturbationSpec
from .model import TrainConfig
from .scenes import check_settings, make_synthetic_scene
from .sequences import KittiSequence, frame_selection

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in _BOOL_TRUE:
        return True
    if t in _BOOL_FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _opt(kind):
    def parse(text):
        t = str(text).strip()
        return None if t in ("", "none") else kind(t)

    return parse


# Settings that mirror a typed config take their parser from the field's
# annotation (a string under postponed evaluation) and their default from
# the field itself; an annotation without a parser fails at import. A field
# holding another typed config is that config's own section.
_FIELD_PARSERS = {"float": float, "int": int, "bool": _parse_bool, "str": str}


def _section(cls):
    return {
        f.name: (_FIELD_PARSERS[f.type], f.default)
        for f in fields(cls)
        if not is_dataclass(f.default)
    }


# section -> key -> (parser, default)
SCHEMA = {
    "sequence": {
        "kind": (str, "synthetic"),
        "scene": (str, "corridor"),
        "density": (_opt(float), None),
        "n_frames": (_opt(int), None),
        "noise_sigma": (float, 0.01),
        "max_range": (_opt(float), None),
        "seed": (int, 0),
        "scan_dir": (str, ""),
        "pose_file": (str, ""),
    },
    "map": _section(MapSetup),
    "perturbation": _section(PerturbationSpec),
    "icp": _section(IcpConfig),
    "montecarlo": _section(MonteCarloSpec),
    "train": _section(TrainConfig),
    "fusion": {
        **_section(FusionSetup),
        "frames": (str, "all"),
        "seed": (int, 0),
        "modes": (str, " ".join(MODES)),
    },
    "paths": {
        "dataset": (str, "dataset.csv"),
        "model": (str, "model.txt"),
        "report": (str, "report.txt"),
        "out_dir": (str, "."),
    },
}


class RunConfig:
    """Schema-validated configuration resolved from defaults, an optional
    INI file, and key=value overrides.

    Every section is range-checked here, whichever command runs; the typed
    ones are the attributes map, icp, perturbation, montecarlo, train and
    fusion."""

    def __init__(self, values):
        self._values = values
        _named("sequence", check_settings, SimpleNamespace(**values["sequence"]))
        self.map = self._typed("map", MapSetup)
        self.icp = self._typed("icp", IcpConfig)
        self.perturbation = self._typed("perturbation", PerturbationSpec)
        self.montecarlo = self._typed("montecarlo", MonteCarloSpec)
        self.train = self._typed("train", TrainConfig)
        self.fusion = self._typed("fusion", FusionSetup)
        self.fusion_modes = _named("fusion", _modes, values["fusion"]["modes"])
        _named("fusion", frame_selection, values["fusion"]["frames"])

    def _typed(self, section, cls):
        """cls from its section's own keys; a field that is a typed section
        itself (FusionSetup.map, .icp) takes that section."""
        own = self._values[section]
        return _named(section, cls, **{
            f.name: own[f.name] if f.name in own else getattr(self, f.name)
            for f in fields(cls)
        })

    def get(self, section, key):
        return self._values[section][key]

    @staticmethod
    def load(path=None, overrides=()):
        values = {s: {k: d for k, (_, d) in keys.items()} for s, keys in SCHEMA.items()}
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)
            try:
                with open(path, "r") as f:
                    parser.read_file(f)
            except configparser.Error as e:
                raise ConfigError(f"{path}: {e}")
            for section in parser.sections():
                if section not in SCHEMA:
                    raise ConfigError(f"{path}: unknown section [{section}]")
                for key, raw in parser.items(section):
                    values[section][key] = _parse_value(section, key, raw)
        for item in overrides:
            key, _, raw = item.partition("=")
            if not _:
                raise ConfigError(f"--set needs key=value, got {item!r}")
            section, _, name = key.partition(".")
            if not name:
                raise ConfigError(f"--set key must be section.key, got {key!r}")
            if section not in SCHEMA:
                raise ConfigError(f"unknown section {section!r} in --set")
            values[section][name] = _parse_value(section, name, raw)
        return RunConfig(values)

    def echo(self) -> dict:
        """Flat, sorted section.key -> string view of the resolved config.
        Values are sanitized for embedding in one-line sidecars."""
        flat = {}
        for section in sorted(self._values):
            for key in sorted(self._values[section]):
                v = self._values[section][key]
                text = "" if v is None else str(v)
                flat[f"{section}.{key}"] = text.replace(",", ";").replace("=", ":")
        return flat

    def sequence(self):
        s = self._values["sequence"]
        if s["kind"] == "synthetic":
            return make_synthetic_scene(
                s["scene"],
                density=s["density"],
                seed=s["seed"],
                n_frames=s["n_frames"],
                noise_sigma=s["noise_sigma"],
                max_range=s["max_range"],
            )
        if s["kind"] == "kitti":
            if not s["scan_dir"] or not s["pose_file"]:
                raise ConfigError("kitti sequence needs sequence.scan_dir and sequence.pose_file")
            return KittiSequence(s["scan_dir"], s["pose_file"])
        raise ConfigError(f"unknown sequence.kind {s['kind']!r}")


def _named(section, check, *args, **kwargs):
    """check(*args, **kwargs); its ValueError, which starts with the key it
    rejects, becomes a ConfigError naming section.key."""
    try:
        return check(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{section}.{e}") from None


def _modes(text):
    """'a b' or 'a,b' -> fusion mode names, each one of MODES."""
    modes = text.replace(",", " ").split()
    if not modes or not set(modes) <= set(MODES):
        raise ConfigError(f"modes must be one or more of {' '.join(MODES)}, got {text!r}")
    return modes


def _parse_value(section, key, raw):
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    parse, _ = SCHEMA[section][key]
    try:
        return parse(str(raw).strip())
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {section}.{key}: {e}")
