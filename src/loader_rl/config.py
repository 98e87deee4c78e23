"""Run configuration: one flat key=value file drives every command.

Keys use dotted section prefixes (``env.vicinity=1.5``); ``#`` starts a
comment. Parsing reports the offending line number for unknown keys and
bad values. A run needs a seed, either in the file or from the command
line. The digest of the fully merged configuration is embedded in every
artifact a command writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import flatcfg
from .emulator import EmulationConfig
from .env import EnvConfig
from .ppo import TrainConfig
from .sim import VehicleParams


class ConfigError(Exception):
    """Invalid configuration file or values."""


_SECTIONS = {
    "env": EnvConfig,
    "vehicle": VehicleParams,
    "train": TrainConfig,
    "emulation": EmulationConfig,
}


@dataclass
class RunConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    emulation: EmulationConfig = field(default_factory=EmulationConfig)
    seed: int = 0

    def flat(self) -> dict[str, str]:
        out = {"seed": str(self.seed)}
        for section in _SECTIONS:
            out.update(flatcfg.flatten(getattr(self, section), f"{section}."))
        return out

    @property
    def digest(self) -> str:
        return flatcfg.digest(self.flat())

    def to_text(self) -> str:
        return flatcfg.canonical_lines(self.flat())


def _known_keys() -> dict[str, object]:
    keys: dict[str, object] = {"seed": int}
    for section, cls in _SECTIONS.items():
        keys.update(flatcfg.field_types(cls, f"{section}."))
    return keys


def parse_config_text(text: str, source: str = "<config>") -> dict[str, tuple[str, int]]:
    """key -> (raw value, line number); raises ConfigError with the line
    number of anything malformed or unknown."""
    known = _known_keys()
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} (first at line {out[key][1]})")
        out[key] = (value, lineno)
    return out


def build_run_config(
    entries: dict[str, tuple[str, int]],
    overrides: dict[str, str] | None = None,
    source: str = "<config>",
    seed_trains: bool = False,
) -> RunConfig:
    """Assemble a RunConfig from parsed entries plus CLI overrides.

    Overrides use the same dotted keys and win over the file. A missing
    seed is an error. With ``seed_trains`` the run seed is also the
    training seed: ``train.seed`` takes its value, and an explicit
    ``train.seed`` that differs is an error.
    """
    known = _known_keys()
    flat: dict[str, str] = {k: v for k, (v, _) in entries.items()}
    lines: dict[str, int] = {k: n for k, (_, n) in entries.items()}
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ConfigError(f"unknown override key {key!r}")
        flat[key] = value
        lines.pop(key, None)

    if "seed" not in flat:
        raise ConfigError(f"{source}: missing required key 'seed' (set it in the file or pass --seed)")

    def where(key: str) -> str:
        return f"{source}:{lines[key]}: " if key in lines else ""

    def fail(key: str, err: Exception) -> ConfigError:
        return ConfigError(f"{where(key)}invalid value for {key!r}: {err}")

    values = {}
    for key, text in flat.items():
        if key not in known:
            raise ConfigError(f"{source}: unknown key {key!r}")
        try:
            values[key] = flatcfg.decode_value(text, known[key])
        except (TypeError, ValueError) as e:
            raise fail(key, e) from e
    seed = values["seed"]
    if seed < 0:
        raise ConfigError(f"{where('seed')}seed must be an integer >= 0, got {seed}")

    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = flatcfg.unflatten(cls, values, f"{section}.", decode=False)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{source}: invalid {section} configuration: {e}") from e
    train = sections["train"]
    if seed_trains:
        if "train.seed" in flat and train.seed != seed:
            raise fail("train.seed", ValueError(f"train.seed={train.seed} disagrees with "
                                                f"seed={seed}; the run seed is the training seed"))
        train = replace(train, seed=seed)
    return RunConfig(
        env=sections["env"],
        vehicle=sections["vehicle"],
        train=train,
        emulation=sections["emulation"],
        seed=seed,
    )


def load_run_config(
    path: str | None,
    overrides: dict[str, str] | None = None,
    seed_trains: bool = False,
) -> RunConfig:
    """The run config of the file at ``path`` with ``overrides`` applied.
    The file must set the seed unless an override does; with no file the
    settings are the defaults and the seed is 0."""
    if path is None:
        return build_run_config({}, {"seed": "0", **(overrides or {})}, seed_trains=seed_trains)
    with open(path) as f:
        text = f.read()
    entries = parse_config_text(text, source=str(path))
    return build_run_config(entries, overrides, source=str(path), seed_trains=seed_trains)
