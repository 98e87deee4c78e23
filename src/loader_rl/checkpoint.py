"""Versioned single-file binary checkpoints.

Layout: 8-byte magic, little-endian u32 format version, u32 header
length, a JSON header (configs, digests, rng state, array manifest),
then the raw little-endian float64 array payload in manifest order.
Weights round-trip bit-exactly because they never leave binary form.
Only the current format version loads: version 1 checkpoints stored a
vehicle setting that no longer exists, so their env digest cannot be
reproduced.
"""

from __future__ import annotations

import json
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
FORMAT_VERSION = 2


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
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for name, _ in manifest:
        blob += np.ascontiguousarray(arrays[name], dtype="<f8").tobytes()
    return bytes(blob)


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
    offset = len(MAGIC)
    (version,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint format version {version} (expected {FORMAT_VERSION})"
        )
    (header_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
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


def _from_header(header: dict, data: bytes, offset: int) -> PolicyCheckpoint:
    """The checkpoint a parsed header describes; a header of the wrong
    shape raises KeyError, TypeError or ValueError."""
    arrays: dict[str, np.ndarray] = {}
    for name, shape in header["manifest"]:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if len(data) < offset + nbytes:
            raise CheckpointFormatError(f"truncated checkpoint: array {name!r} incomplete")
        arr = np.frombuffer(data[offset : offset + nbytes], dtype="<f8").astype(np.float64)
        arrays[name] = arr.reshape(shape)
        offset += nbytes
    if offset != len(data):
        raise CheckpointFormatError(f"{len(data) - offset} trailing bytes after arrays")

    train_config = flatcfg.unflatten(TrainConfig, header["train_config"])
    env_config = flatcfg.unflatten(EnvConfig, header["env_config"])
    vehicle_params = flatcfg.unflatten(VehicleParams, header["vehicle_params"])
    mode = ExplorationMode(header["exploration_mode"])

    actor = _stored_net(arrays, "actor", header["actor_sizes"])
    critic = _stored_net(arrays, "critic", header["critic_sizes"])
    normalizer = ObsNormalizer.from_state_arrays(
        {"mean": arrays["norm.mean"], "m2": arrays["norm.m2"], "count": arrays["norm.count"]}
    )
    params = PolicyParams(
        actor=actor,
        critic=critic,
        obs_normalizer=normalizer,
        exploration_mode=mode,
        log_std=arrays.get("log_std"),
    )
    ckpt = PolicyCheckpoint(
        params=params,
        train_config=train_config,
        env_config=env_config,
        vehicle_params=vehicle_params,
        timesteps=int(header["timesteps"]),
        rng_state=header.get("rng_state", {}),
    )
    if header.get("env_digest") != env_digest(env_config, vehicle_params):
        raise CheckpointFormatError("stored env digest does not match stored configs")
    return ckpt


def read_checkpoint(path) -> PolicyCheckpoint:
    with open(path, "rb") as f:
        return load_checkpoint(f.read())
