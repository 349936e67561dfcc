"""RunConfig validation, defaults, and JSON round-trips."""

import json

import pytest

from vidchain.config import ARCH_FIELDS, ConfigError, RunConfig
from vidchain.container import save_checkpoint


def test_defaults():
    cfg = RunConfig()
    assert cfg.t_c == 16
    assert cfg.r == 8                    # resolved to t_c // 2
    assert cfg.frame_shape == (16, 16, 1)
    assert cfg.frame_dim == 256
    assert (cfg.z_content, cfg.z_motion) == (64, 10)
    assert (cfg.lr, cfg.beta1, cfg.beta2) == (2e-4, 0.5, 0.999)
    assert cfg.batch == 8


def test_r_default_tracks_t_c():
    assert RunConfig(t_c=12).r == 6
    assert RunConfig(t_c=4).r == 2


def test_explicit_r_kept():
    assert RunConfig(t_c=16, r=4).r == 4


@pytest.mark.parametrize("bad", [
    dict(r=0), dict(r=16), dict(r=17), dict(t_c=1),
    dict(height=0), dict(batch=0), dict(lr=-1.0),
    dict(beta1=1.0), dict(eps=0.0), dict(uniform_fraction=1.5),
    dict(sample_step=4), dict(loss_variant="bogus"), dict(gen_mode="wild"),
    dict(bias_init=-0.1),
])
def test_rejects_invalid_values(bad):
    with pytest.raises(ConfigError):
        RunConfig(**bad)


@pytest.mark.parametrize("field,value", [
    ("hidden", 1.5), ("hidden", 96.0), ("t_c", "abc"), ("batch", True),
    ("r", 2.0), ("r", False), ("lr", "fast"), ("lr", True), ("ovi", "no"),
    ("ovi", 1), ("gen_mode", 1),
])
def test_rejects_wrong_field_types(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        RunConfig.from_dict({field: value})


def test_float_fields_take_ints_and_r_takes_none():
    cfg = RunConfig(lr=1, bias_init=0, r=None, t_c=6)
    assert (cfg.lr, cfg.bias_init, cfg.r) == (1, 0, 3)


def test_zero_lr_allowed():
    assert RunConfig(lr=0.0).lr == 0.0


def test_json_roundtrip():
    cfg = RunConfig(t_c=8, r=3, hidden=32, seed=99, gen_mode="mean", ovi=False)
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_json_output_is_deterministic(tmp_path):
    # the config echo of a checkpoint is JSON of to_dict()
    for name in ("a", "b"):
        save_checkpoint(tmp_path / name, RunConfig(seed=5).to_dict(), {})
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: learning_rate"):
        RunConfig.from_dict({"learning_rate": 1e-3})


def test_replace_revalidates():
    cfg = RunConfig()
    assert cfg.replace(seed=3).seed == 3
    with pytest.raises(ConfigError):
        cfg.replace(r=99)
    with pytest.raises(ConfigError):
        cfg.replace(nonsense=1)


def test_arch_compatibility_accepts_schedule_changes():
    cfg = RunConfig(seed=1, steps=100)
    stored = RunConfig(seed=2, steps=5000, lr=1e-3, batch=4).to_dict()
    cfg.ensure_arch_matches(stored)  # schedule fields may differ


def test_arch_compatibility_rejects_shape_changes():
    cfg = RunConfig(hidden=96)
    stored = RunConfig(hidden=64).to_dict()
    with pytest.raises(ConfigError, match="hidden"):
        cfg.ensure_arch_matches(stored)


def test_arch_fields_cover_model_shape_knobs():
    for name in ("t_c", "r", "z_content", "z_motion", "hidden",
                 "disable_content", "disable_motion", "disable_fusion"):
        assert name in ARCH_FIELDS
