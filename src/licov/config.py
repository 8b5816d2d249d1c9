"""Run configuration: INI-style sections, each one frozen settings type.

Unknown sections or keys are rejected. `--set section.key=value`
overrides file values. The fully resolved configuration is echoed into
every artifact a command writes.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, is_dataclass

from .cloud import MapSetup
from .errors import ConfigError
from .fusion import FusionSetup
from .icp import IcpConfig
from .mcgen import MonteCarloSpec, PerturbationSpec
from .model import TrainConfig
from .scenes import SequenceSpec


def _parse_bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _opt(kind):
    """kind's parser, but "" and "none" are None (unset)."""
    return lambda text: None if text in ("", "none") else kind(text)


@dataclass(frozen=True)
class Paths:
    """The `[paths]` settings: the files and directory commands use."""

    dataset: str = "dataset.csv"
    model: str = "model.txt"
    report: str = "report.txt"
    out_dir: str = "."


# section -> its settings type, in the order they are built. A field whose
# default is a settings type (FusionSetup.map, .icp) takes that section,
# built before it.
SECTIONS = {
    "sequence": SequenceSpec,
    "map": MapSetup,
    "icp": IcpConfig,
    "perturbation": PerturbationSpec,
    "montecarlo": MonteCarloSpec,
    "train": TrainConfig,
    "fusion": FusionSetup,
    "paths": Paths,
}

# Every other field is a key that takes its parser from the field's
# annotation (a string under postponed evaluation) and its default from the
# field itself; an annotation without a parser fails at import.
_FIELD_PARSERS = {
    "float": float, "int": int, "bool": _parse_bool, "str": str,
    "float | None": _opt(float), "int | None": _opt(int),
}

# section -> key -> parser
SCHEMA = {
    section: {f.name: _FIELD_PARSERS[f.type] for f in fields(cls) if not is_dataclass(f.default)}
    for section, cls in SECTIONS.items()
}


class RunConfig:
    """Each section's settings, resolved from defaults, an optional INI
    file and key=value overrides, as the attribute named after it.

    Every section is range-checked here, whichever command runs; a value
    it rejects is a ConfigError naming section.key."""

    def __init__(self, given):
        """given: section -> {key: parsed value} of the keys that are set."""
        for section, cls in SECTIONS.items():
            nested = {f.name: getattr(self, f.name) for f in fields(cls) if is_dataclass(f.default)}
            try:
                setattr(self, section, cls(**nested, **given[section]))
            except ValueError as e:  # its message starts with the key
                raise ConfigError(f"{section}.{e}") from None

    @staticmethod
    def load(path=None, overrides=()):
        given = {section: {} for section in SCHEMA}
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
                    given[section][key] = _parse_value(section, key, raw)
        for item in overrides:
            key, _, raw = item.partition("=")
            if not _:
                raise ConfigError(f"--set needs key=value, got {item!r}")
            section, _, name = key.partition(".")
            if not name:
                raise ConfigError(f"--set key must be section.key, got {key!r}")
            if section not in SCHEMA:
                raise ConfigError(f"unknown section {section!r} in --set")
            given[section][name] = _parse_value(section, name, raw)
        return RunConfig(given)

    def echo(self) -> dict:
        """Flat, sorted section.key -> string view of the resolved config.
        Values are sanitized for embedding in one-line sidecars."""
        flat = {}
        for section in sorted(SCHEMA):
            for key in sorted(SCHEMA[section]):
                v = getattr(getattr(self, section), key)
                text = "" if v is None else str(v)
                flat[f"{section}.{key}"] = text.replace(",", ";").replace("=", ":")
        return flat


def _parse_value(section, key, raw):
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    try:
        return SCHEMA[section][key](str(raw).strip())
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {section}.{key}: {e}")
