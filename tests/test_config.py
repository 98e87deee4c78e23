"""Config file parsing, digests, and flat encoding round trips."""

import pytest

from loader_rl.config import ConfigError, RunConfig, build_run_config, load_run_config, parse_config_text
from loader_rl.emulator import EmulationConfig
from loader_rl.env import EnvConfig, env_digest
from loader_rl.policy import ExplorationMode
from loader_rl.ppo import TrainConfig
from loader_rl.sim import BrakeModel, VehicleParams
from loader_rl import flatcfg


class TestFlatEncoding:
    def test_round_trip_defaults(self):
        run = RunConfig()
        flat = run.flat()
        entries = {k: (v, i) for i, (k, v) in enumerate(flat.items(), start=1)}
        back = build_run_config(entries)
        assert back == run

    def test_round_trip_non_defaults(self):
        run = RunConfig(
            env=EnvConfig(vicinity=2.0, lift_start_jitter=0.01),
            vehicle=VehicleParams(cruise_speed=1.5),
            train=TrainConfig(learning_rate=1e-3, exploration_mode=ExplorationMode.CONTINUOUS_THRESHOLD),
            emulation=EmulationConfig(position_delay=1.5, brake_model=BrakeModel.IDEAL,
                                      utm_origin=(1000.0, 2000.0)),
            seed=99,
        )
        entries = {k: (v, i) for i, (k, v) in enumerate(run.flat().items(), start=1)}
        assert build_run_config(entries) == run

    def test_digest_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert a.digest == b.digest
        c = RunConfig(env=EnvConfig(vicinity=2.0))
        assert c.digest != a.digest

    def test_env_digest_ignores_train_settings(self):
        a = RunConfig(train=TrainConfig(learning_rate=1.0))
        b = RunConfig()
        assert env_digest(a.env, a.vehicle) == env_digest(b.env, b.vehicle)
        assert a.digest != b.digest


class TestParseErrors:
    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_config_text("seed=1\nbogus.key=3\n", source="f.cfg")

    def test_not_key_value(self):
        with pytest.raises(ConfigError, match=":1"):
            parse_config_text("what even is this\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed=1\nseed=2\n")

    def test_comments_and_blanks_ignored(self):
        entries = parse_config_text("# a comment\n\nseed=5  # trailing\n")
        assert entries["seed"][0] == "5"

    def test_missing_seed_named(self):
        with pytest.raises(ConfigError, match="seed"):
            build_run_config({})

    def test_negative_seeds_rejected(self):
        entries = parse_config_text("seed=-1\n", source="f.cfg")
        with pytest.raises(ConfigError, match="^f.cfg:1: seed must be an integer >= 0, got -1$"):
            build_run_config(entries, source="f.cfg")
        with pytest.raises(ValueError, match="^seed must be >= 0, got -5$"):
            TrainConfig(seed=-5)

    def test_bad_value_names_key_and_line(self):
        entries = parse_config_text("seed=1\nenv.vicinity=soup\n", source="f.cfg")
        with pytest.raises(ConfigError, match=r"env.vicinity"):
            build_run_config(entries, source="f.cfg")

    def test_invariant_violation_reported(self):
        entries = parse_config_text("seed=1\nenv.vicinity=6.0\n")
        with pytest.raises(ConfigError, match="env"):
            build_run_config(entries)

    def test_override_wins(self):
        entries = parse_config_text("seed=1\n")
        run = build_run_config(entries, overrides={"seed": "42"})
        assert run.seed == 42

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override"):
            build_run_config({}, overrides={"nope": "1"})

    @pytest.mark.parametrize("key", ["env.bogus", "bogus"])
    def test_unknown_entry_rejected(self, key):
        # parse_config_text never returns one, but a direct caller may pass it
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            build_run_config({"seed": ("1", 1), key: ("1", 2)})


class TestLoadRunConfig:
    def test_file_round_trip(self, tmp_path):
        run = RunConfig(seed=7, env=EnvConfig(time_penalty_tc=0.0))
        p = tmp_path / "run.cfg"
        p.write_text(run.to_text())
        assert load_run_config(str(p)) == run

    def test_none_path_gives_defaults(self):
        run = load_run_config(None)
        assert run == RunConfig()


def checks_per_call(monkeypatch, call):
    """The classes ``flatcfg.check_fields`` validates, one entry per call,
    during ``call()``, after one warm-up call has read the schemas."""
    call()
    checked = []
    real = flatcfg.check_fields

    def counting(obj, *args, **kwargs):
        checked.append(type(obj).__name__)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(flatcfg, "check_fields", counting)
    call()
    return sorted(checked)


class TestOneBuildPerSettingsObject:
    def test_load_run_config_validates_each_object_once(self, tmp_path, monkeypatch):
        p = tmp_path / "run.cfg"
        p.write_text("seed=3\nenv.vicinity=1.4\nvehicle.taper.initial_pedal=0.5\n"
                     "emulation.pid.kp=0.7\ntrain.n_epochs=2\n")
        assert checks_per_call(monkeypatch, lambda: load_run_config(str(p))) == [
            "EmulationConfig", "EnvConfig", "PidGains", "TaperParams", "TrainConfig",
            "VehicleParams"]


class TestEnumAndTupleCodec:
    def test_enum_values(self):
        assert flatcfg.encode_value(BrakeModel.TAPERED) == "tapered"
        assert flatcfg.decode_value("ideal", BrakeModel) is BrakeModel.IDEAL
        with pytest.raises(ValueError):
            flatcfg.decode_value("granular", BrakeModel)

    def test_bool_codec(self):
        assert flatcfg.encode_value(True) == "true"
        assert flatcfg.decode_value("false", bool) is False
        with pytest.raises(ValueError):
            flatcfg.decode_value("maybe", bool)

    def test_tuple_codec(self):
        assert flatcfg.encode_value((1.5, 2.5)) == "1.5,2.5"
        assert flatcfg.decode_value("1.5,2.5", tuple[float, float]) == (1.5, 2.5)
        with pytest.raises(ValueError):
            flatcfg.decode_value("1.5", tuple[float, float])

    def test_float_round_trips_exactly(self):
        v = 0.1 + 0.2
        assert flatcfg.decode_value(flatcfg.encode_value(v), float) == v
