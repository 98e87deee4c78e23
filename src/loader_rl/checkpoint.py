"""Versioned single-file binary checkpoints.

Layout: 8-byte magic, little-endian u32 format version, u32 header
length, a JSON header of exactly the keys ``HEADER_KEYS`` (configs, env
digest, timesteps, array manifest), then the raw little-endian float64
array payload in manifest order. Weights round-trip bit-exactly because
they never leave binary form. Each fact is stored once: the net sizes
are the shapes of the ``actor.i``/``critic.i`` arrays, and
``train_config.exploration_mode`` says whether a ``log_std`` is stored.
Only the current format version loads: versions 1 and 2 stored settings
that no longer exist, and version 3 stored the net sizes and the mode
twice. A load rejects, with :class:`CheckpointFormatError`, any other
header keys, any array that is not finite, weight shapes that do not
chain into an actor and a critic over one input, normalizer statistics
no run reaches (``norm.m2`` < 0, a ``norm.count`` that is no whole
number >= 0), any config section that is not a dict of strings with
exactly the keys of its class, and manifest names other than, in
order, those the rebuilt policy is saved under.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import flatcfg
from .env import EnvConfig, env_digest
from .nets import MLP
from .policy import N_ACTIONS, ExplorationMode, ObsNormalizer, PolicyParams
from .ppo import TrainConfig
from .sim import VehicleParams

MAGIC = b"LOADERRL"
FORMAT_VERSION = 4
HEADER_KEYS = {"env_digest", "timesteps", "train_config", "env_config", "vehicle_params", "manifest"}


class CheckpointFormatError(Exception):
    """Corrupt, truncated, or wrong-version checkpoint data."""


@dataclass
class PolicyCheckpoint:
    params: PolicyParams
    train_config: TrainConfig
    env_config: EnvConfig
    vehicle_params: VehicleParams
    timesteps: int = 0


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
        "train_config": flatcfg.flatten(ckpt.train_config),
        "env_config": flatcfg.flatten(ckpt.env_config),
        "vehicle_params": flatcfg.flatten(ckpt.vehicle_params),
        "manifest": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values())
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes)) + header_bytes + payload


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``: an interrupted write leaves the previous file whole and no
    temp file. Every artifact a command writes whole goes through here;
    an error names ``path``, not the temp file."""
    tmp = os.fsdecode(path) + ".tmp"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        if e.filename != tmp:
            raise
        raise type(e)(e.errno, e.strerror, os.fsdecode(path)) from e
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_checkpoint(ckpt: PolicyCheckpoint, path) -> None:
    write_atomic(path, save_checkpoint(ckpt))


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


def _stored_net(arrays: dict[str, np.ndarray], name: str) -> MLP:
    """The net stored as ``name.0``, ``name.1``, ... up to the first missing
    index; the arrays are fresh copies of the payload, so the net takes them
    as they are."""
    params = []
    while f"{name}.{len(params)}" in arrays:
        params.append(arrays[f"{name}.{len(params)}"])
    return MLP.from_params(params)


def _section(header: dict, key: str, cls: type):
    """The config ``cls`` stored as ``header[key]``, which must map exactly
    the keys of ``flatcfg.field_types(cls)`` to strings: none defaults."""
    flat = header[key]
    if not isinstance(flat, dict) or not all(isinstance(v, str) for v in flat.values()):
        raise CheckpointFormatError(f"header section {key!r} is not a dict of strings")
    expected = flatcfg.field_types(cls).keys()
    if flat.keys() != expected:
        raise CheckpointFormatError(
            f"header section {key!r}: missing keys {sorted(expected - flat.keys())}, "
            f"unknown keys {sorted(flat.keys() - expected)}")
    return flatcfg.unflatten(cls, flat)


def _from_header(header: dict, data: bytes, offset: int) -> PolicyCheckpoint:
    """The checkpoint a parsed header describes. Content a run cannot
    write raises CheckpointFormatError; a header of the wrong shape may
    also raise KeyError, TypeError or ValueError."""
    if not isinstance(header, dict) or header.keys() != HEADER_KEYS:
        raise CheckpointFormatError(
            f"header does not follow the checkpoint schema: keys must be {sorted(HEADER_KEYS)}")
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
    if header["env_digest"] != env_digest(env_config, vehicle_params):
        raise CheckpointFormatError("stored env digest does not match stored configs")
    timesteps = header["timesteps"]
    if type(timesteps) is not int or timesteps < 0:
        raise CheckpointFormatError(f"timesteps must be a whole number >= 0, got {timesteps!r}")

    actor, critic = _stored_net(arrays, "actor"), _stored_net(arrays, "critic")
    dim = actor.sizes[0]
    continuous = train_config.exploration_mode is ExplorationMode.CONTINUOUS_THRESHOLD
    log_std = arrays["log_std"] if continuous else None
    if (actor.sizes[-1] != N_ACTIONS or critic.sizes[0] != dim or critic.sizes[-1] != 1
            or continuous and log_std.shape != (N_ACTIONS,)):
        raise CheckpointFormatError(f"arrays {header['manifest']} are no actor and critic "
                                    f"over one input with {N_ACTIONS} action heads")
    mean, m2, count = arrays["norm.mean"], arrays["norm.m2"], arrays["norm.count"]
    if mean.shape != (dim,) or m2.shape != (dim,) or count.shape != (1,):
        raise CheckpointFormatError(f"normalizer arrays do not fit input size {dim}")
    if (m2 < 0.0).any():
        raise CheckpointFormatError("array 'norm.m2' has negative values")
    n = float(count[0])
    if n < 0.0 or n != math.floor(n):
        raise CheckpointFormatError(f"array 'norm.count' must hold one whole number >= 0, got {n!r}")
    normalizer = ObsNormalizer.from_state_arrays({"mean": mean, "m2": m2, "count": count})
    params = PolicyParams(actor=actor, critic=critic, obs_normalizer=normalizer, log_std=log_std)
    names = [name for name, _ in header["manifest"]]
    if names != list(_collect_arrays(params)):
        raise CheckpointFormatError(f"manifest names {names} are not those of a "
                                    f"{train_config.exploration_mode.value} policy")
    return PolicyCheckpoint(params, train_config, env_config, vehicle_params, timesteps)


def read_checkpoint(path) -> PolicyCheckpoint:
    with open(path, "rb") as f:
        return load_checkpoint(f.read())
