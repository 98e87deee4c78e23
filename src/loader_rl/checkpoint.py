"""Versioned single-file binary checkpoints.

Layout: 8-byte magic, little-endian u32 format version, u32 header
length, a JSON header (configs, digests, rng state, array manifest),
then the raw little-endian float64 array payload in manifest order.
Weights round-trip bit-exactly because they never leave binary form.
Only the current format version loads: versions 1 and 2 stored settings
that no longer exist, so their env digest cannot be reproduced. A load
rejects, with :class:`CheckpointFormatError`, any array that is not
finite, normalizer statistics no run reaches (``norm.m2`` < 0, a
``norm.count`` that is no whole number >= 0), and any config section
that is not a dict of strings with exactly the keys of its class.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import flatcfg
from .env import EnvConfig, env_digest
from .nets import MLP
from .policy import ExplorationMode, ObsNormalizer, PolicyParams
from .ppo import TrainConfig
from .sim import VehicleParams

MAGIC = b"LOADERRL"
FORMAT_VERSION = 3


class CheckpointFormatError(Exception):
    """Corrupt, truncated, or wrong-version checkpoint data."""


@dataclass
class PolicyCheckpoint:
    params: PolicyParams
    train_config: TrainConfig
    env_config: EnvConfig
    vehicle_params: VehicleParams
    timesteps: int = 0
    rng_state: dict = field(default_factory=dict)


def _collect_arrays(params: PolicyParams) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for i, a in enumerate(params.actor.params):
        arrays[f"actor.{i}"] = a
    for i, a in enumerate(params.critic.params):
        arrays[f"critic.{i}"] = a
    if params.log_std is not None:
        arrays["log_std"] = params.log_std
    for name, a in params.obs_normalizer.state_arrays().items():
        arrays[f"norm.{name}"] = a
    return arrays


def save_checkpoint(ckpt: PolicyCheckpoint) -> bytes:
    arrays = _collect_arrays(ckpt.params)
    manifest = [[name, list(a.shape)] for name, a in arrays.items()]
    header = {
        "env_digest": env_digest(ckpt.env_config, ckpt.vehicle_params),
        "timesteps": ckpt.timesteps,
        "rng_state": ckpt.rng_state,
        "train_config": flatcfg.flatten(ckpt.train_config),
        "env_config": flatcfg.flatten(ckpt.env_config),
        "vehicle_params": flatcfg.flatten(ckpt.vehicle_params),
        "actor_sizes": ckpt.params.actor.sizes,
        "critic_sizes": ckpt.params.critic.sizes,
        "exploration_mode": ckpt.params.exploration_mode.value,
        "manifest": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values())
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes)) + header_bytes + payload


def write_checkpoint(ckpt: PolicyCheckpoint, path) -> None:
    """Write a temp file beside ``path``, then rename it over ``path``: an
    interrupted write leaves the previous file whole and no temp file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(save_checkpoint(ckpt))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(data: bytes) -> PolicyCheckpoint:
    """Parse checkpoint bytes; any structural problem raises
    CheckpointFormatError."""
    if len(data) < len(MAGIC) + 8:
        raise CheckpointFormatError("truncated checkpoint: missing header")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointFormatError("bad magic string; not a checkpoint file")
    version, header_len = struct.unpack_from("<II", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint format version {version} (expected {FORMAT_VERSION})"
        )
    offset = len(MAGIC) + 8
    if len(data) < offset + header_len:
        raise CheckpointFormatError("truncated checkpoint: incomplete header")
    try:
        header = json.loads(data[offset : offset + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"corrupt header: {e}") from e
    try:
        return _from_header(header, data, offset + header_len)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointFormatError(f"header does not follow the checkpoint schema: {e!r}") from e


def _stored_net(arrays: dict[str, np.ndarray], name: str, sizes: list[int]) -> MLP:
    """The net stored as ``name.0``, ``name.1``, ...; the arrays are fresh
    copies of the payload, so the net takes them as they are."""
    return MLP.from_params(sizes, [arrays[f"{name}.{i}"] for i in range(2 * len(sizes) - 2)])


def _section(header: dict, key: str, cls: type):
    """The config ``cls`` stored as ``header[key]``, which must map exactly
    the keys of ``flatcfg.flatten(cls())`` to strings: none defaults."""
    flat = header[key]
    if not isinstance(flat, dict) or not all(isinstance(v, str) for v in flat.values()):
        raise CheckpointFormatError(f"header section {key!r} is not a dict of strings")
    expected = flatcfg.flatten(cls()).keys()
    if flat.keys() != expected:
        raise CheckpointFormatError(
            f"header section {key!r}: missing keys {sorted(expected - flat.keys())}, "
            f"unknown keys {sorted(flat.keys() - expected)}")
    return flatcfg.unflatten(cls, flat)


def _from_header(header: dict, data: bytes, offset: int) -> PolicyCheckpoint:
    """The checkpoint a parsed header describes. Content a run cannot
    write raises CheckpointFormatError; a header of the wrong shape may
    also raise KeyError, TypeError or ValueError."""
    arrays: dict[str, np.ndarray] = {}
    for name, shape in header["manifest"]:
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointFormatError(f"array {name!r} has an invalid shape {shape!r}")
        nbytes = math.prod(shape) * 8
        if len(data) < offset + nbytes:
            raise CheckpointFormatError(f"truncated checkpoint: array {name!r} incomplete")
        arr = np.frombuffer(data[offset : offset + nbytes], dtype="<f8").astype(np.float64)
        arrays[name] = arr.reshape(shape)
        offset += nbytes
    if offset != len(data):
        raise CheckpointFormatError(f"{len(data) - offset} trailing bytes after arrays")
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise CheckpointFormatError(f"array {name!r} has non-finite values")

    train_config = _section(header, "train_config", TrainConfig)
    env_config = _section(header, "env_config", EnvConfig)
    vehicle_params = _section(header, "vehicle_params", VehicleParams)
    if header.get("env_digest") != env_digest(env_config, vehicle_params):
        raise CheckpointFormatError("stored env digest does not match stored configs")
    mode = ExplorationMode(header["exploration_mode"])
    timesteps = header["timesteps"]
    if type(timesteps) is not int or timesteps < 0:
        raise CheckpointFormatError(f"timesteps must be a whole number >= 0, got {timesteps!r}")

    actor = _stored_net(arrays, "actor", header["actor_sizes"])
    critic = _stored_net(arrays, "critic", header["critic_sizes"])
    mean, m2, count = arrays["norm.mean"], arrays["norm.m2"], arrays["norm.count"]
    dim = actor.sizes[0]
    if mean.shape != (dim,) or m2.shape != (dim,) or count.shape != (1,):
        raise CheckpointFormatError(f"normalizer arrays do not fit input size {dim}")
    if (m2 < 0.0).any():
        raise CheckpointFormatError("array 'norm.m2' has negative values")
    n = float(count[0])
    if n < 0.0 or n != math.floor(n):
        raise CheckpointFormatError(f"array 'norm.count' must hold one whole number >= 0, got {n!r}")
    normalizer = ObsNormalizer.from_state_arrays({"mean": mean, "m2": m2, "count": count})
    params = PolicyParams(
        actor=actor,
        critic=critic,
        obs_normalizer=normalizer,
        exploration_mode=mode,
        log_std=arrays.get("log_std"),
    )
    return PolicyCheckpoint(
        params=params,
        train_config=train_config,
        env_config=env_config,
        vehicle_params=vehicle_params,
        timesteps=timesteps,
        rng_state=header.get("rng_state", {}),
    )


def read_checkpoint(path) -> PolicyCheckpoint:
    with open(path, "rb") as f:
        return load_checkpoint(f.read())
