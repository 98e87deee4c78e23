"""Checkpoint serialization round-trips and failure modes."""

import hashlib
import json
import struct

import numpy as np
import pytest

from loader_rl.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointFormatError,
    PolicyCheckpoint,
    load_checkpoint,
    save_checkpoint,
    write_checkpoint,
)
from loader_rl.cli import main
from loader_rl.env import EnvConfig, env_digest
from loader_rl.policy import ExplorationMode, init_policy
from loader_rl.ppo import TrainConfig
from loader_rl.sim import VehicleParams


def payload_sha(path):
    """sha256 of a checkpoint file's array payload, the bytes after its header."""
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC) + 4)
    return hashlib.sha256(data[len(MAGIC) + 8 + header_len:]).hexdigest()


def make_checkpoint(mode=ExplorationMode.BERNOULLI, seed=0):
    rng = np.random.default_rng(seed)
    params = init_policy(4, rng, mode)
    for _ in range(50):
        params.obs_normalizer.update(rng.normal(size=4))
    return PolicyCheckpoint(
        params=params,
        train_config=TrainConfig(seed=seed),
        env_config=EnvConfig(),
        vehicle_params=VehicleParams(),
        timesteps=12345,
        rng_state={"episode_index": 7, "updates": 3},
    )


class TestRoundTrip:
    @pytest.mark.parametrize("mode", list(ExplorationMode))
    def test_bitwise_round_trip(self, mode):
        ckpt = make_checkpoint(mode)
        back = load_checkpoint(save_checkpoint(ckpt))
        for a, b in zip(ckpt.params.actor.params, back.params.actor.params):
            assert np.array_equal(a, b)
        for a, b in zip(ckpt.params.critic.params, back.params.critic.params):
            assert np.array_equal(a, b)
        if mode is ExplorationMode.CONTINUOUS_THRESHOLD:
            assert np.array_equal(ckpt.params.log_std, back.params.log_std)
        norm_a, norm_b = ckpt.params.obs_normalizer, back.params.obs_normalizer
        assert np.array_equal(norm_a.mean, norm_b.mean)
        assert np.array_equal(norm_a.m2, norm_b.m2)
        assert norm_a.count == norm_b.count
        assert back.timesteps == ckpt.timesteps
        assert back.rng_state == ckpt.rng_state
        assert back.train_config == ckpt.train_config
        assert back.env_config == ckpt.env_config
        assert back.vehicle_params == ckpt.vehicle_params
        assert env_digest(back.env_config, back.vehicle_params) == env_digest(
            ckpt.env_config, ckpt.vehicle_params
        )

    def test_save_deterministic(self):
        ckpt = make_checkpoint()
        assert save_checkpoint(ckpt) == save_checkpoint(ckpt)


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        import loader_rl.checkpoint as checkpoint_mod

        path = tmp_path / "best.ckpt"
        write_checkpoint(make_checkpoint(seed=0), path)
        old = path.read_bytes()

        class HalfWriter:
            # writes half of the bytes, then fails like a full disk
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(checkpoint_mod, "open",
                            lambda p, mode: HalfWriter(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="No space"):
            write_checkpoint(make_checkpoint(seed=1), path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]

    def test_write_replaces_previous_file(self, tmp_path):
        path = tmp_path / "last.ckpt"
        write_checkpoint(make_checkpoint(seed=0), path)
        new = make_checkpoint(seed=1)
        write_checkpoint(new, path)
        assert path.read_bytes() == save_checkpoint(new)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]


class TestFormatErrors:
    def test_truncated_everywhere(self):
        blob = save_checkpoint(make_checkpoint())
        for cut in (0, 4, len(MAGIC) + 2, 40, len(blob) // 2, len(blob) - 3):
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(blob[:cut])

    def test_bad_magic(self):
        blob = save_checkpoint(make_checkpoint())
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(b"NOTMAGIC" + blob[len(MAGIC):])

    def test_version_mismatch(self):
        blob = bytearray(save_checkpoint(make_checkpoint()))
        blob[len(MAGIC)] = FORMAT_VERSION + 1
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(bytes(blob))

    def test_version_1_rejected(self, tmp_path, capsys):
        # version 1 stored vehicle.steering_limit, so its env digest cannot
        # be reproduced; it fails on the version, before the digest check
        blob = bytearray(save_checkpoint(make_checkpoint()))
        blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 1)
        with pytest.raises(CheckpointFormatError,
                           match=r"^unsupported checkpoint format version 1 \(expected 2\)$"):
            load_checkpoint(bytes(blob))
        path = tmp_path / "v1.ckpt"
        path.write_bytes(blob)
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == 1
        assert "format version 1" in capsys.readouterr().err

    def test_trailing_garbage(self):
        blob = save_checkpoint(make_checkpoint())
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(blob + b"\x00" * 8)

    def test_corrupt_header(self):
        blob = bytearray(save_checkpoint(make_checkpoint()))
        blob[len(MAGIC) + 8] = 0xFF  # first header byte -> invalid JSON
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bytes(blob))

    @pytest.mark.parametrize("edit", ["list", "no_manifest", "array_shape", "net_sizes",
                                      "one_size"])
    def test_header_schema(self, edit, tmp_path, capsys):
        # valid JSON that is not a checkpoint header: a list, a dict without
        # the array manifest, a transposed weight array, or net sizes that
        # disagree with the stored arrays; the payload is kept as saved
        blob = save_checkpoint(make_checkpoint())
        (header_len,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
        start = len(MAGIC) + 8
        header = json.loads(blob[start:start + header_len])
        if edit == "list":
            header = list(header.items())
        elif edit == "no_manifest":
            del header["manifest"]
        elif edit == "array_shape":
            assert header["manifest"][0] == ["actor.0", [4, 64]]
            header["manifest"][0][1] = [64, 4]
        elif edit == "net_sizes":
            header["critic_sizes"] = [4, 32, 32, 1]
        else:
            header["actor_sizes"] = [4]
        header_bytes = json.dumps(header).encode()
        bad = (blob[:len(MAGIC) + 4] + struct.pack("<I", len(header_bytes))
               + header_bytes + blob[start + header_len:])
        with pytest.raises(CheckpointFormatError, match="schema"):
            load_checkpoint(bad)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bad)
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == 1
        assert "Traceback" not in capsys.readouterr().err

