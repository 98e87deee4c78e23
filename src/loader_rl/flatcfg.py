"""Generic dataclass <-> flat dotted-key mapping, digests, and the
value rule shared by the config dataclasses.

Every config dataclass in the package serializes to sorted
``section.key=value`` lines; the sha256 of those lines is the config
digest embedded in artifacts. Keeping the encoding in one place
guarantees a checkpoint and a config file hash identically when they
agree.
"""

from __future__ import annotations

import dataclasses
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


def flatten(obj: Any, prefix: str = "") -> dict[str, str]:
    """Dataclass instance -> {dotted.key: encoded value}."""
    out: dict[str, str] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        key = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(value):
            out.update(flatten(value, prefix=f"{key}."))
        else:
            out[key] = encode_value(value)
    return out


def _leaf_type(value: Any) -> Any:
    """The type a leaf field decodes as: ``tuple[float, float]`` for a
    tuple default, otherwise the default's own type (an enum's class)."""
    return tuple[float, float] if isinstance(value, tuple) else type(value)


def field_types(cls: Any, prefix: str = "") -> dict[str, Any]:
    """Dotted key -> leaf python type, for decoding."""
    out: dict[str, Any] = {}
    defaults = cls() if isinstance(cls, type) else cls
    for f in dataclasses.fields(defaults):
        value = getattr(defaults, f.name)
        key = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(value):
            out.update(field_types(type(value), prefix=f"{key}."))
        else:
            out[key] = _leaf_type(value)
    return out


def unflatten(cls: Any, flat: dict[str, str], prefix: str = "") -> Any:
    """Rebuild a dataclass from dotted keys; missing keys keep defaults."""
    defaults = cls()
    kwargs = {}
    for f in dataclasses.fields(defaults):
        value = getattr(defaults, f.name)
        key = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(value):
            kwargs[f.name] = unflatten(type(value), flat, prefix=f"{key}.")
        elif key in flat:
            kwargs[f.name] = decode_value(flat[key], _leaf_type(value))
    return dataclasses.replace(defaults, **kwargs)


def canonical_lines(flat: dict[str, str]) -> str:
    return "\n".join(f"{k}={flat[k]}" for k in sorted(flat)) + "\n"


def digest(flat: dict[str, str]) -> str:
    return hashlib.sha256(canonical_lines(flat).encode()).hexdigest()[:16]
