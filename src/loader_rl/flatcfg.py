"""Generic dataclass <-> flat dotted-key mapping, digests, and the
value rule shared by the config dataclasses.

Every config dataclass in the package serializes to sorted
``section.key=value`` lines; the sha256 of those lines is the config
digest embedded in artifacts. Keeping the encoding in one place
guarantees a checkpoint and a config file hash identically when they
agree. Each config class has one schema, ``_schema``, read once from its
defaults; flattening, listing keys and rebuilding all walk it, and a
rebuild builds each settings object once.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from enum import Enum
from typing import Any


def encode_value(v: Any) -> str:
    if isinstance(v, Enum):
        return str(v.value)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return ",".join(encode_value(x) for x in v)
    raise TypeError(f"cannot encode config value {v!r} of type {type(v).__name__}")


def decode_value(text: str, target_type: Any) -> Any:
    text = text.strip()
    if isinstance(target_type, type) and issubclass(target_type, Enum):
        for member in target_type:
            if str(member.value) == text:
                return member
        names = [str(m.value) for m in target_type]
        raise ValueError(f"expected one of {names}, got {text!r}")
    if target_type is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if target_type is float:
        return float(text)
    if target_type is int:
        return int(text)
    if target_type == tuple[float, float]:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected two comma-separated numbers, got {text!r}")
        return (float(parts[0]), float(parts[1]))
    raise TypeError(f"cannot decode into {target_type!r}")


def check_fields(obj: Any, positive: tuple[str, ...] = (), nonnegative: tuple[str, ...] = ()) -> None:
    """The value rule every config dataclass applies in ``__post_init__``.

    Every float field, and every float inside a tuple field, must be
    finite; a ``x <= 0`` guard alone lets NaN through. Then each field
    named in ``positive`` must be > 0 and each in ``nonnegative`` >= 0.
    Raises ValueError naming the first field that breaks the rule.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in items if isinstance(v, float)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
    for name in positive:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name} must be > 0, got {getattr(obj, name)!r}")
    for name in nonnegative:
        if not getattr(obj, name) >= 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(obj, name)!r}")


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, nested) per field of config class ``cls``, read once
    from its defaults: a nested field's type is its config class, a
    leaf's is the type it decodes as (``tuple[float, float]`` for a tuple
    default, otherwise the default's own type, an enum's class)."""
    defaults = cls()
    schema = []
    for f in dataclasses.fields(cls):
        value = getattr(defaults, f.name)
        nested = dataclasses.is_dataclass(value)
        typ = type(value) if nested or not isinstance(value, tuple) else tuple[float, float]
        schema.append((f.name, typ, nested))
    return tuple(schema)


def flatten(obj: Any, prefix: str = "") -> dict[str, str]:
    """Dataclass instance -> {prefixed dotted.key: encoded value}."""
    out: dict[str, str] = {}
    for name, _, nested in _schema(type(obj)):
        value = getattr(obj, name)
        if nested:
            out.update(flatten(value, f"{prefix}{name}."))
        else:
            out[prefix + name] = encode_value(value)
    return out


def field_types(cls: type, prefix: str = "") -> dict[str, Any]:
    """Prefixed dotted key -> leaf python type, for decoding."""
    out: dict[str, Any] = {}
    for name, typ, nested in _schema(cls):
        if nested:
            out.update(field_types(typ, f"{prefix}{name}."))
        else:
            out[prefix + name] = typ
    return out


def unflatten(cls: type, flat: dict[str, Any], prefix: str = "", decode: bool = True) -> Any:
    """Build ``cls`` once from prefixed dotted keys; missing keys keep
    their defaults. The values are encoded strings, or with ``decode``
    false values of the leaf types already."""
    kwargs = {}
    for name, typ, nested in _schema(cls):
        key = prefix + name
        if nested:
            kwargs[name] = unflatten(typ, flat, f"{key}.", decode)
        elif key in flat:
            kwargs[name] = decode_value(flat[key], typ) if decode else flat[key]
    return cls(**kwargs)


def canonical_lines(flat: dict[str, str]) -> str:
    return "\n".join(f"{k}={flat[k]}" for k in sorted(flat)) + "\n"


def digest(flat: dict[str, str]) -> str:
    return hashlib.sha256(canonical_lines(flat).encode()).hexdigest()[:16]
