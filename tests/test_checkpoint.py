"""Checkpoint serialization round-trips and failure modes."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loader_rl import flatcfg
from loader_rl.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointFormatError,
    PolicyCheckpoint,
    _collect_arrays,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    write_checkpoint,
)
from loader_rl.cli import main
from loader_rl.env import EnvConfig, env_digest
from loader_rl.policy import ExplorationMode, init_policy
from loader_rl.ppo import TrainConfig
from loader_rl.sim import VehicleParams
from tests.test_config import checks_per_call


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
        train_config=TrainConfig(seed=seed, exploration_mode=mode),
        env_config=EnvConfig(),
        vehicle_params=VehicleParams(),
        timesteps=12345,
    )


def golden():
    """A deterministic untrained checkpoint: seeded continuous-threshold
    init at control_interval=10, normalizer fed a fixed observation grid."""
    params = init_policy(4, np.random.default_rng(3), ExplorationMode.CONTINUOUS_THRESHOLD)
    for rel_x in (0.0, 1.5, 3.0, 4.5):
        for speed in (0.0, 1.0, 2.0):
            params.obs_normalizer.update(np.array([rel_x, 5.0 - rel_x, speed, 0.5 + 0.1 * speed]))
    config = TrainConfig(exploration_mode=ExplorationMode.CONTINUOUS_THRESHOLD, control_interval=10)
    return PolicyCheckpoint(params=params, train_config=config, env_config=EnvConfig(),
                            vehicle_params=VehicleParams())


def golden_checkpoint(path):
    """:func:`golden`, written to ``path``."""
    write_checkpoint(golden(), path)
    return path


def split(blob):
    """(the parsed JSON header, the array payload) of checkpoint bytes."""
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    return json.loads(blob[start:start + header_len]), blob[start + header_len:]


def join(header, payload, version=FORMAT_VERSION):
    header_bytes = json.dumps(header).encode()
    return MAGIC + struct.pack("<II", version, len(header_bytes)) + header_bytes + payload


def assert_cli_rejects(blob, tmp_path, capsys):
    """``eval`` of the checkpoint exits 1 with no traceback."""
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == 1
    assert "Traceback" not in capsys.readouterr().err


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


class TestRead:
    def test_validates_each_settings_object_once(self, tmp_path, monkeypatch):
        path = golden_checkpoint(tmp_path / "golden.ckpt")
        assert checks_per_call(monkeypatch, lambda: read_checkpoint(path)) == [
            "EnvConfig", "TaperParams", "TrainConfig", "VehicleParams"]


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
                           match=r"^unsupported checkpoint format version 1 \(expected 4\)$"):
            load_checkpoint(bytes(blob))
        path = tmp_path / "v1.ckpt"
        path.write_bytes(blob)
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == 1
        assert "format version 1" in capsys.readouterr().err

    def test_version_2_rejected(self, tmp_path, capsys):
        # version 2 stored env.lift_term_mode and env.pad_obs_to_5d, so its
        # env digest cannot be reproduced either
        header, payload = split(save_checkpoint(make_checkpoint()))
        header["env_config"].update(lift_term_mode="goal_progress", pad_obs_to_5d="false")
        blob = join(header, payload, version=2)
        with pytest.raises(CheckpointFormatError,
                           match=r"^unsupported checkpoint format version 2 \(expected 4\)$"):
            load_checkpoint(blob)
        assert_cli_rejects(blob, tmp_path, capsys)

    def test_version_3_rejected(self, tmp_path, capsys):
        # version 3 stored the net sizes, the exploration mode and an unread
        # rng state beside the arrays and the train config that hold them
        header, payload = split(save_checkpoint(make_checkpoint()))
        header.update(actor_sizes=[4, 64, 64, 2], critic_sizes=[4, 64, 64, 1],
                      exploration_mode="bernoulli", rng_state={"episode_index": 7, "updates": 3})
        blob = join(header, payload, version=3)
        with pytest.raises(CheckpointFormatError,
                           match=r"^unsupported checkpoint format version 3 \(expected 4\)$"):
            load_checkpoint(blob)
        assert_cli_rejects(blob, tmp_path, capsys)

    def test_trailing_garbage(self):
        blob = save_checkpoint(make_checkpoint())
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(blob + b"\x00" * 8)

    def test_corrupt_header(self):
        blob = bytearray(save_checkpoint(make_checkpoint()))
        blob[len(MAGIC) + 8] = 0xFF  # first header byte -> invalid JSON
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bytes(blob))

    # edit -> the message it raises
    HEADER_EDITS = {
        "list": "schema",
        "no_manifest": "schema",
        "array_shape": "schema",
        "unknown_key": r"schema: keys must be \['env_config', 'env_digest', 'manifest', "
                       r"'timesteps', 'train_config', 'vehicle_params'\]",
        "extra_array": r"manifest names \[.*'norm.count', 'extra'\] are not those of a "
                       r"bernoulli policy",
        "stray_actor_array": "a net needs weight/bias pairs, got 7 arrays",
        "unchained": r"layer 1: shapes \(32, 128\) and \(64,\) do not chain",
        "renamed_key": r"'train_config': missing keys \['control_interval'\], "
                       r"unknown keys \['control_intervaX'\]",
        "removed_key": r"'env_config': missing keys \[\], unknown keys \['pad_obs_to_5d'\]",
        "unquoted_value": "'train_config' is not a dict of strings",
        "section_list": "'vehicle_params' is not a dict of strings",
        "negative_dim": r"array 'actor.0' has an invalid shape \[-1, 64\]",
        "float_timesteps": r"timesteps must be a whole number >= 0, got 1e\+300",
    }

    @pytest.mark.parametrize("edit", HEADER_EDITS)
    def test_header_schema(self, edit, tmp_path, capsys):
        # valid JSON that is not a checkpoint header: a list, a dict without
        # the array manifest, a transposed weight array, a key of the old
        # format, an array no policy has (at the end, or a seventh actor
        # array), weight shapes that do not chain, a config section with a
        # renamed, extra or unquoted value or of the wrong type, a negative
        # array dimension, or a timestep count that is no whole number; the
        # payload is kept as saved, but for the bytes of an added array
        header, payload = split(save_checkpoint(make_checkpoint()))
        if edit == "list":
            header = list(header.items())
        elif edit == "no_manifest":
            del header["manifest"]
        elif edit == "array_shape":
            assert header["manifest"][0] == ["actor.0", [4, 64]]
            header["manifest"][0][1] = [64, 4]
        elif edit == "unknown_key":
            header["exploration_mode"] = "bernoulli"
        elif edit in ("extra_array", "stray_actor_array"):
            header["manifest"].append(["extra" if edit == "extra_array" else "actor.6", [2]])
            payload += struct.pack("<2d", 0.5, -0.5)
        elif edit == "unchained":
            assert header["manifest"][2] == ["actor.2", [64, 64]]
            header["manifest"][2][1] = [32, 128]
        elif edit == "renamed_key":
            train = header["train_config"]
            train["control_intervaX"] = train.pop("control_interval")
        elif edit == "removed_key":
            header["env_config"]["pad_obs_to_5d"] = "false"
        elif edit == "unquoted_value":
            header["train_config"]["eval_episodes"] = 20
        elif edit == "section_list":
            header["vehicle_params"] = list(header["vehicle_params"].items())
        elif edit == "negative_dim":
            header["manifest"][0][1] = [-1, 64]
        else:
            header["timesteps"] = 1e300
        bad = join(header, payload)
        with pytest.raises(CheckpointFormatError, match=self.HEADER_EDITS[edit]):
            load_checkpoint(bad)
        assert_cli_rejects(bad, tmp_path, capsys)

    NO_POLICY = r"arrays \[\[.*\]\] are no actor and critic over one input with 2 action heads"
    PAYLOAD_EDITS = {
        "nan_weight": "array 'actor.0' has non-finite values",
        "inf_weight": "array 'critic.2' has non-finite values",
        "inf_mean": "array 'norm.mean' has non-finite values",
        "negative_m2": "array 'norm.m2' has negative values",
        "fractional_count": r"array 'norm.count' must hold one whole number >= 0, got 2\.5",
        "negative_count": r"array 'norm.count' must hold one whole number >= 0, got -3\.0",
        "one_action_head": NO_POLICY,
        "critic_input": NO_POLICY,
        "log_std_shape": NO_POLICY,
    }

    @pytest.mark.parametrize("edit", PAYLOAD_EDITS)
    def test_payload_values(self, edit, tmp_path, capsys):
        # arrays no training run writes: a non-finite weight or statistic, a
        # negative sum of squares, a sample count that is no whole number
        # >= 0, an actor with one output, a critic over another input than
        # the actor's, a log_std of three values
        ckpt = make_checkpoint(ExplorationMode.CONTINUOUS_THRESHOLD if edit == "log_std_shape"
                               else ExplorationMode.BERNOULLI)
        params, norm = ckpt.params, ckpt.params.obs_normalizer
        if edit == "nan_weight":
            params.actor.params[0][1, 2] = np.nan
        elif edit == "inf_weight":
            params.critic.params[2][0, 0] = -np.inf
        elif edit == "inf_mean":
            norm.mean[3] = np.inf
        elif edit == "negative_m2":
            norm.m2[1] = -1e-3
        elif edit == "fractional_count":
            norm.count = 2.5
        elif edit == "negative_count":
            norm.count = -3
        elif edit == "one_action_head":
            params.actor.params[-2:] = [params.actor.params[-2][:, :1], np.zeros(1)]
        elif edit == "critic_input":
            params.critic.params[0] = np.vstack([params.critic.params[0], np.ones((1, 64))])
        else:
            params.log_std = np.zeros(3)
        bad = save_checkpoint(ckpt)
        with pytest.raises(CheckpointFormatError, match=f"^{self.PAYLOAD_EDITS[edit]}$"):
            load_checkpoint(bad)
        assert_cli_rejects(bad, tmp_path, capsys)


    LOG_STD_EDITS = {
        ExplorationMode.CONTINUOUS_THRESHOLD: r"schema: KeyError\('log_std'\)",
        ExplorationMode.BERNOULLI:
            r"manifest names \[.*'critic.5', 'log_std', 'norm.mean'.*\] are not those of "
            r"a bernoulli policy",
    }

    @pytest.mark.parametrize("mode", LOG_STD_EDITS)
    def test_log_std_follows_the_mode(self, mode, tmp_path, capsys):
        # the train config's exploration mode says whether a log_std is
        # stored: a continuous_threshold policy without one, or a Bernoulli
        # policy with one, is no policy a run writes
        ckpt = make_checkpoint(mode)
        other = make_checkpoint(next(m for m in ExplorationMode if m is not mode))
        ckpt.params.log_std = other.params.log_std
        bad = save_checkpoint(ckpt)
        with pytest.raises(CheckpointFormatError, match=self.LOG_STD_EDITS[mode]):
            load_checkpoint(bad)
        assert_cli_rejects(bad, tmp_path, capsys)


GOLDEN = save_checkpoint(golden())
HEADER_START = len(MAGIC) + 8
PAYLOAD_START = HEADER_START + struct.unpack_from("<I", GOLDEN, len(MAGIC) + 4)[0]
SECTIONS = {"train_config": TrainConfig, "env_config": EnvConfig, "vehicle_params": VehicleParams}

# random bytes mostly break the UTF-8 or the JSON, so draw JSON characters as well
header_edits = st.lists(
    st.tuples(st.integers(HEADER_START, PAYLOAD_START - 1),
              st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.eE+"{}[],: tfnul'))),
    min_size=1, max_size=3)
# random bytes are rarely a non-finite float64, so draw floats as well
payload_edit = st.tuples(
    st.integers(0, (len(GOLDEN) - PAYLOAD_START) // 8 - 1),
    st.one_of(st.binary(min_size=8, max_size=8),
              st.floats().map(lambda v: struct.pack("<d", v))))


@settings(max_examples=400, deadline=None)
@given(edit=st.one_of(header_edits, payload_edit))
def test_mutated_golden_checkpoint_loads_clean_or_raises_format_error(edit):
    # a byte-mutated checkpoint is rejected as such, or loads as one a run
    # could have written: finite arrays, normalizer statistics in range,
    # config sections with exactly their fields, the arrays its policy is
    # saved under, and a log_std exactly in continuous-threshold mode
    blob = bytearray(GOLDEN)
    if isinstance(edit, list):
        for at, value in edit:
            blob[at] = value
    else:
        at = PAYLOAD_START + 8 * edit[0]
        blob[at:at + 8] = edit[1]
    try:
        ckpt = load_checkpoint(bytes(blob))
    except CheckpointFormatError:
        return
    assert all(np.isfinite(a).all() for a in _collect_arrays(ckpt.params).values())
    norm = ckpt.params.obs_normalizer
    assert (norm.m2 >= 0.0).all() and norm.count >= 0
    header, _ = split(bytes(blob))
    for key, cls in SECTIONS.items():
        assert header[key].keys() == flatcfg.flatten(cls()).keys()
        assert getattr(ckpt, key) == flatcfg.unflatten(cls, header[key])
    assert [name for name, _ in header["manifest"]] == list(_collect_arrays(ckpt.params))
    continuous = ckpt.train_config.exploration_mode is ExplorationMode.CONTINUOUS_THRESHOLD
    assert (ckpt.params.log_std is not None) == continuous

