"""Encoders, generator streams, discriminators, and checkpoint round-trips."""

import numpy as np
import pytest

import vidchain.autodiff as ad
from vidchain.autodiff import Tensor
from vidchain.config import ConfigError, RunConfig
from vidchain.layers import apply_mlp
from vidchain.model import (
    COMPONENTS, D_GROUP, ENC_GROUP, GEN_GROUP, ModelBundle, clip_diffs,
    clips_to_tensor,
)
from vidchain.rng import RandomStream

TINY = RunConfig(t_c=4, r=2, height=4, width=4, channels=1,
                 z_content=8, z_motion=4, hidden=16, batch=2, seed=5)


def tiny_bundle(seed=5):
    return ModelBundle.init(TINY.replace(seed=seed))


def random_clips(b=2, cfg=TINY, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (b, cfg.t_c) + cfg.frame_shape)


def encode(bundle, clips, ref_index=1):
    return bundle.encode_clips(clips_to_tensor(clips), ref_index)


def latents(bundle, b=2, seed=1):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((b, bundle.cfg.z_content))),
            Tensor(rng.standard_normal((b, bundle.cfg.z_motion))))


def content_frame(bundle, z_x):
    """The content stream's frame (B, D), as compose computes it."""
    return apply_mlp(bundle.components["g_c"], z_x)


def motion_steps(bundle, z_x, z_v):
    """The motion stream's differences (B, (T-1)*D), as compose computes them."""
    return apply_mlp(bundle.components["g_t"], ad.concat([z_v, z_x], axis=1))


# -- plumbing -------------------------------------------------------------------

def test_clips_to_tensor_shapes():
    assert clips_to_tensor(np.zeros((3, 4, 4, 4, 1))).shape == (3, 4, 16)
    for unbatched in (np.zeros((4, 4, 4, 1)), np.zeros((4, 4))):
        with pytest.raises(ValueError):
            clips_to_tensor(unbatched)


def test_clip_diffs_matches_numpy():
    clips = random_clips()
    t = clips_to_tensor(clips)
    want = np.diff(clips.reshape(2, 4, 16), axis=1).reshape(2, 3 * 16)
    assert np.allclose(clip_diffs(t).data, want)


# -- encoders --------------------------------------------------------------------

def test_encode_output_dims_default_config():
    cfg = RunConfig()  # 16x16x1, T=16, latents 64/10
    bundle = ModelBundle.init(cfg)
    q_x, q_v = encode(bundle, np.zeros((1, cfg.t_c) + cfg.frame_shape))
    assert q_x.mu.shape == (1, 64)
    assert q_v.mu.shape == (1, 10)


def test_encode_deterministic():
    bundle = tiny_bundle()
    clips = random_clips()
    a = encode(bundle, clips)
    b = encode(bundle, clips)
    assert np.array_equal(a[0].mu.data, b[0].mu.data)
    assert np.array_equal(a[1].mu.data, b[1].mu.data)


def test_encode_stream_separation():
    # same frame 0, different motion -> identical q_x, different q_v
    bundle = tiny_bundle()
    clips = random_clips(b=2)
    clips[1, 0] = clips[0, 0]
    q_x, q_v = encode(bundle, clips)
    assert np.array_equal(q_x.mu.data[0], q_x.mu.data[1])
    assert not np.array_equal(q_v.mu.data[0], q_v.mu.data[1])


def test_encode_rejects_wrong_shape():
    bundle = tiny_bundle()
    with pytest.raises(ValueError):
        encode(bundle, np.zeros((5, 4, 4, 1)))


def test_encode_ref_index_moves_content_input():
    bundle = tiny_bundle()
    clips = random_clips()
    q1, _ = encode(bundle, clips, ref_index=1)
    q2, _ = encode(bundle, clips, ref_index=2)
    assert not np.array_equal(q1.mu.data, q2.mu.data)
    with pytest.raises(ValueError, match="ref_index"):
        encode(bundle, clips, ref_index=5)


# -- generator ----------------------------------------------------------------------

def test_generate_shapes_and_range():
    bundle = tiny_bundle()
    z_x, z_v = latents(bundle)
    assert content_frame(bundle, z_x).shape == (2, 16)
    assert motion_steps(bundle, z_x, z_v).shape == (2, 3 * 16)
    raw, clip = bundle.compose(z_x, z_v)
    assert raw.shape == clip.shape == (2, 4, 16)
    assert np.all(np.abs(clip.data) <= 1.0)


def test_generate_clamp_on_100_random_latents():
    bundle = tiny_bundle()
    for i in range(100):
        z_x, z_v = latents(bundle, b=1, seed=i)
        clip = bundle.compose(z_x, z_v)[1]
        assert np.all(np.abs(clip.data) <= 1.0)


def test_generate_stream_separation():
    # fixed z_x, two different z_v -> bit-identical content frame
    bundle = tiny_bundle()
    z_x, z_v1 = latents(bundle, seed=1)
    _, z_v2 = latents(bundle, seed=2)
    c1, m1 = content_frame(bundle, z_x), motion_steps(bundle, z_x, z_v1)
    c2, m2 = content_frame(bundle, z_x), motion_steps(bundle, z_x, z_v2)
    assert np.array_equal(c1.data, c2.data)
    assert not np.array_equal(m1.data, m2.data)


def test_generate_recursion_follows_reference_frame():
    # without fusion, frame at ref_index equals the content frame exactly and
    # consecutive frame differences equal the motion stream output
    cfg = TINY.replace(disable_fusion=True)
    bundle = ModelBundle.init(cfg)
    z_x, z_v = latents(bundle)
    content, motion = content_frame(bundle, z_x), motion_steps(bundle, z_x, z_v)
    for ref in (1, 2, 4):
        raw = bundle.compose(z_x, z_v, ref_index=ref)[0]
        assert np.allclose(raw.data[:, ref - 1, :], content.data)
        diffs = np.diff(raw.data, axis=1).reshape(2, -1)
        assert np.allclose(diffs, motion.data, atol=1e-12)


def _recursive_raw(bundle, z_x, z_v, ref):
    """The pre-clamp clip built frame by frame: content at the reference,
    then one subtraction per earlier frame and one addition per later one."""
    cfg = bundle.cfg
    b, d, t = z_x.shape[0], cfg.frame_dim, cfg.t_c
    content = content_frame(bundle, z_x)
    steps = ad.reshape(motion_steps(bundle, z_x, z_v), (b, t - 1, d))
    frames = [None] * t
    frames[ref - 1] = content
    for k in range(ref - 1, 0, -1):
        frames[k - 1] = frames[k] - steps[:, k - 1, :]
    for k in range(ref - 1, t - 1):
        frames[k + 1] = frames[k] + steps[:, k, :]
    raw = ad.concat([ad.reshape(f, (b, 1, d)) for f in frames], axis=1)
    residual = apply_mlp(bundle.components["fusion"], ad.concat([z_x, z_v], axis=1))
    return raw + ad.reshape(residual, (b, t, d))


def test_compose_matches_frame_recursion_bit_for_bit():
    cfg = TINY.replace(t_c=6, r=3)
    bundle = ModelBundle.init(cfg)
    z_x, z_v = latents(bundle, b=3)
    w = Tensor(np.random.default_rng(7).standard_normal((3, 6, cfg.frame_dim)))
    params = bundle.params(GEN_GROUP)
    for ref in range(1, cfg.t_c + 1):
        results = []
        for build in (lambda: bundle.compose(z_x, z_v, ref_index=ref)[0],
                      lambda: _recursive_raw(bundle, z_x, z_v, ref)):
            with ad.GradTape():
                raw = build()
                grads = ad.backward(ad.sum(ad.mul(ad.tanh(raw), w)), params)
            results.append((raw.data, grads))
        (raw, grads), (want_raw, want_grads) = results
        assert np.array_equal(raw, want_raw), ref
        for g, want in zip(grads, want_grads, strict=True):
            assert np.array_equal(g, want), ref


def test_generate_motion_disabled_constant_clip():
    cfg = TINY.replace(disable_motion=True, disable_fusion=True)
    bundle = ModelBundle.init(cfg)
    z_x, z_v = latents(bundle)
    raw = bundle.compose(z_x, z_v)[0]
    assert np.all(np.diff(raw.data, axis=1) == 0.0)     # the motion is zero
    for k in range(cfg.t_c):
        assert np.array_equal(raw.data[:, k, :], content_frame(bundle, z_x).data)


def test_generate_content_disabled_zero_content():
    cfg = TINY.replace(disable_content=True)
    bundle = ModelBundle.init(cfg)
    z_x, z_v = latents(bundle)
    raw = bundle.compose(z_x, z_v)[0]
    # the reference frame is content + fusion residual; with content zero it
    # is exactly the residual
    residual = apply_mlp(bundle.components["fusion"], ad.concat([z_x, z_v], axis=1))
    assert np.array_equal(raw.data[:, 0, :], residual.data[:, :cfg.frame_dim])


def test_generate_fusion_changes_clip():
    bundle = tiny_bundle()
    z_x, z_v = latents(bundle)
    raw_with = bundle.compose(z_x, z_v)[0]
    bundle_no = ModelBundle.init(TINY.replace(disable_fusion=True))
    # same seed -> same g_c/g_t parameters, so the difference is the residual
    raw_without = bundle_no.compose(z_x, z_v)[0]
    assert not np.allclose(raw_with.data, raw_without.data)


def test_generate_rejects_bad_latent_dims():
    bundle = tiny_bundle()
    with pytest.raises(ValueError, match="latent"):
        bundle.compose(Tensor(np.zeros((2, 7))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ValueError, match="latent"):
        bundle.compose(Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 5))))


# -- discriminators ---------------------------------------------------------------

def test_discriminator_outputs_strictly_inside_unit_interval():
    bundle = tiny_bundle()
    frames = Tensor(np.random.default_rng(3).uniform(-50, 50, (8, 16)))
    p = bundle.d_image_prob(frames).data
    assert np.all(p > 0.0) and np.all(p < 1.0)
    clips = clips_to_tensor(random_clips(b=8))
    p = bundle.d_video_prob(clips).data
    assert np.all(p > 0.0) and np.all(p < 1.0)
    assert p.shape == (8, 1)


def test_discriminator_logit_clamp_saturates_not_explodes():
    bundle = tiny_bundle()
    huge = Tensor(np.full((1, 16), 1e6))
    p = bundle.d_image_prob(huge).data
    sig15 = 1.0 / (1.0 + np.exp(-15.0))
    assert 1.0 - sig15 <= p[0, 0] <= sig15 or (1 - sig15) <= 1 - p[0, 0]
    assert (1.0 / (1.0 + np.exp(15.0))) <= p[0, 0] <= sig15


# -- bundle / checkpointing ---------------------------------------------------------

def test_param_groups_cover_all_components():
    bundle = tiny_bundle()
    assert set(D_GROUP) | set(ENC_GROUP) | set(GEN_GROUP) == set(COMPONENTS)
    total = sum(len(v) for v in bundle.components.values())
    assert (len(bundle.params(D_GROUP)) + len(bundle.params(ENC_GROUP))
            + len(bundle.params(GEN_GROUP))) == total


def test_set_params_roundtrip():
    bundle = tiny_bundle()
    params = bundle.params(GEN_GROUP)
    doubled = [Tensor(p.data * 2, requires_grad=True) for p in params]
    bundle.set_params(GEN_GROUP, doubled)
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(bundle.params(GEN_GROUP), doubled))


def test_init_deterministic_per_seed():
    a, b = tiny_bundle(seed=9), tiny_bundle(seed=9)
    c = tiny_bundle(seed=10)
    for name in COMPONENTS:
        for pa, pb in zip(a.components[name], b.components[name]):
            assert np.array_equal(pa.data, pb.data)
    assert not np.array_equal(a.components["g_c"][0].data,
                              c.components["g_c"][0].data)


def test_bias_init_nonzero_by_default():
    bundle = tiny_bundle()
    biases = [bundle.components[n][1] for n in COMPONENTS]
    assert all(np.any(b.data != 0) for b in biases)


def _trained_checkpoint(tmp_path):
    """A saved bundle whose generator took one Adam step, so its moments
    are nontrivial."""
    bundle = tiny_bundle()
    _generator_step(bundle)
    path = tmp_path / "bundle.ckpt"
    bundle.save(path)
    return bundle, path


def _generator_step(bundle):
    """One Adam step of the generator group on a fixed loss."""
    from vidchain.autodiff import GradTape, backward
    from vidchain.optim import adam_step
    params = bundle.params(GEN_GROUP)
    with GradTape():
        z_x, z_v = latents(bundle)
        clip = bundle.compose(z_x, z_v)[1]
        loss = ad.mean(clip * clip)
    grads = backward(loss, params)
    bundle.set_params(GEN_GROUP, adam_step(bundle.opts["opt_gen"], params, grads))


def _snapshot(bundle):
    return {k: (a.shape, a.tobytes()) for k, a in bundle.state_arrays().items()}


def test_checkpoint_roundtrip_bit_exact(tmp_path, monkeypatch):
    bundle, path = _trained_checkpoint(tmp_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("a restored bundle must not draw fresh weights")

    monkeypatch.setattr("vidchain.model.init_mlp", no_draws)
    back = ModelBundle.load(path)
    assert back.cfg == bundle.cfg
    for name in COMPONENTS:
        for pa, pb in zip(bundle.components[name], back.components[name]):
            assert np.array_equal(pa.data.view(np.uint64), pb.data.view(np.uint64))
        for pb in back.components[name]:
            assert pb.requires_grad
    assert back.opts["opt_gen"].step == 1
    mine, theirs = bundle.opts["opt_gen"], back.opts["opt_gen"]
    for m1, m2 in zip(mine.m + mine.v, theirs.m + theirs.v, strict=True):
        assert np.array_equal(m1, m2)
    assert back.opts["opt_d"].step == 0 and back.opts["opt_d"].m is None


def test_load_resolves_once_then_holds_what_runs(tmp_path, monkeypatch):
    """`ModelBundle.load(path, resolve, runs)` calls `resolve` once, on the
    stored config, before any array is read, and holds exactly the stacks
    `runs(cfg)` names with fresh optimizers; the other arrays are seeked
    past.  With the defaults it holds every array, bit for bit."""
    import vidchain.container as container
    bundle, path = _trained_checkpoint(tmp_path)
    events = []
    read = container._read_array

    def spy_read(fh, size, name, skip=False):
        events.append(("read", name.rsplit(":", 1)[1], skip))
        return read(fh, size, name, skip)

    def resolve(stored):
        events.append(("resolve", stored))
        return RunConfig.from_dict(stored).replace(steps=9)

    def runs(cfg):
        events.append(("runs", cfg))
        return ("g_t", "content_enc")

    monkeypatch.setattr(container, "_read_array", spy_read)
    lean = ModelBundle.load(path, resolve, runs)
    assert events[0] == ("resolve", bundle.cfg.to_dict())
    assert events[1] == ("runs", lean.cfg) and lean.cfg == bundle.cfg.replace(steps=9)
    reads = events[2:]
    assert len(reads) == len(bundle.state_arrays())
    assert all(kind == "read" for kind, *_ in reads)
    assert [name for _, name, skip in reads if not skip] == [
        f"{name}.{i}" for name in ("content_enc", "g_t") for i in range(4)]
    assert list(lean.components) == ["content_enc", "g_t"]
    for name, params in lean.components.items():
        assert [p.data.tobytes() for p in params] == [
            p.data.tobytes() for p in bundle.components[name]]
    assert all(opt.step == 0 and opt.m is None for opt in lean.opts.values())

    full = ModelBundle.load(path)
    assert full.cfg == bundle.cfg
    assert _snapshot(full) == _snapshot(bundle)


def test_checkpoint_keeps_its_step_after_further_steps(tmp_path):
    # moments are updated in place and state_arrays() returns live views of
    # them: a saved checkpoint must still hold the state of its own step
    from vidchain.training import train_step
    bundle = tiny_bundle()
    for step in range(2):
        train_step(bundle, random_clips(seed=step), RandomStream.from_seed(step))
    at_k = {k: v.copy() for k, v in bundle.state_arrays().items()}
    path = tmp_path / "k.ckpt"
    bundle.save(path)
    for step in range(2, 4):
        train_step(bundle, random_clips(seed=step), RandomStream.from_seed(step))
    assert not np.array_equal(bundle.opts["opt_d"].m[0], at_k["opt_d.m0"])
    back = ModelBundle.load(path).state_arrays()
    assert back.keys() == at_k.keys()
    for key, arr in at_k.items():
        assert np.array_equal(back[key], arr), key


def test_checkpoint_load_rejects_conflicting_arch(tmp_path):
    from vidchain.container import load_checkpoint
    bundle = tiny_bundle()
    path = tmp_path / "bundle.ckpt"
    bundle.save(path)
    stored, arrays = load_checkpoint(path)
    wide = TINY.replace(hidden=32)
    with pytest.raises(ConfigError, match="conflicts"):
        wide.ensure_arch_matches(stored)
    # the arrays themselves refuse a config of another shape
    with pytest.raises(ConfigError):
        ModelBundle.init(wide, arrays)
    # schedule changes are fine and the passed config wins
    cfg = TINY.replace(steps=7, seed=123)
    cfg.ensure_arch_matches(stored)
    got = ModelBundle.init(cfg, arrays)
    assert got.cfg.steps == 7 and got.cfg.seed == 123


def test_checkpoint_untrained_roundtrip_then_trainable(tmp_path):
    from vidchain.autodiff import GradTape, backward
    from vidchain.optim import adam_step
    bundle = tiny_bundle()
    path = tmp_path / "u.ckpt"
    bundle.save(path)
    back = ModelBundle.load(path)
    params = back.params(D_GROUP)
    with GradTape():
        p = back.d_image_prob(Tensor(np.ones((2, 16))))
        loss = ad.mean(p)
    grads = backward(loss, params)
    back.set_params(D_GROUP, adam_step(back.opts["opt_d"], params, grads))  # no error
    assert back.opts["opt_d"].step == 1


@pytest.mark.parametrize("damage", ["missing", "wrong-shape"])
def test_checkpoint_load_rejects_damaged_parameter(tmp_path, damage):
    from vidchain.container import load_checkpoint, save_checkpoint
    _, path = _trained_checkpoint(tmp_path)
    cfg, arrays = load_checkpoint(path)
    if damage == "missing":
        del arrays["d_video.1"]
        match = "missing parameter d_video.1"
    else:
        arrays["d_video.1"] = np.zeros((3, 16))
        match = "d_video.1 has shape"
    save_checkpoint(path, cfg, arrays)
    with pytest.raises(ConfigError, match=match):
        ModelBundle.load(path)


def test_load_adopts_the_arrays_it_reads(tmp_path, monkeypatch):
    from vidchain.container import load_checkpoint
    _, path = _trained_checkpoint(tmp_path)
    loaded = {}

    def spy(*args):
        stored, arrays = load_checkpoint(*args)
        loaded.update(arrays)
        return stored, arrays

    monkeypatch.setattr("vidchain.model.load_checkpoint", spy)
    state = ModelBundle.load(path).state_arrays()
    assert "opt_gen.m0" in state and "opt_gen.v0" in state
    for key, arr in state.items():
        if not key.endswith(".step"):    # the counter is rebuilt as a fresh array
            assert np.shares_memory(arr, loaded[key]), key


def test_bundles_restored_from_one_live_bundle_train_independently(tmp_path):
    source, _ = _trained_checkpoint(tmp_path)
    state = source.state_arrays()
    before = _snapshot(source)
    first, second = (ModelBundle.init(TINY, state) for _ in range(2))
    _generator_step(first)
    assert _snapshot(first) != before
    assert _snapshot(second) == before
    assert _snapshot(source) == before
    after_first = _snapshot(first)
    _generator_step(second)
    assert _snapshot(first) == after_first
    assert _snapshot(source) == before


def test_checkpoint_save_load_save_same_bytes(tmp_path):
    _, path = _trained_checkpoint(tmp_path)
    again = tmp_path / "again.ckpt"
    ModelBundle.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()


def test_state_roundtrip_through_arrays(tmp_path):
    """A bundle restored from another's state_arrays() holds the same
    moments and takes the same next Adam step."""
    source, _ = _trained_checkpoint(tmp_path)
    clone = ModelBundle.init(TINY, source.state_arrays())
    assert _snapshot(clone) == _snapshot(source)
    for bundle in (source, clone):
        _generator_step(bundle)
    assert clone.opts["opt_gen"].step == 2
    assert _snapshot(clone) == _snapshot(source)


def test_state_arrays_are_read_only_views_of_live_moments(tmp_path):
    bundle, _ = _trained_checkpoint(tmp_path)
    state = bundle.state_arrays()
    for key in ("opt_gen.m0", "opt_gen.v0"):
        with pytest.raises(ValueError):
            state[key][0, 0] = 5.0
    assert np.shares_memory(state["opt_gen.m0"], bundle.opts["opt_gen"].m[0])
    before = state["opt_gen.m0"].copy()
    _generator_step(bundle)
    assert not np.array_equal(state["opt_gen.m0"], before)   # the view is live


def test_init_holds_only_the_named_components():
    """A bundle of a few stacks, restored or fresh, holds those stacks as a
    full bundle does, in COMPONENTS order, and checks each one complete."""
    full = tiny_bundle()
    state = {k: v.copy() for k, v in full.state_arrays().items()}
    names = ("fusion", "content_enc", "g_c")
    for lean in (ModelBundle.init(TINY, state, names),
                 ModelBundle.init(TINY, components=names)):
        assert list(lean.components) == ["content_enc", "g_c", "fusion"]
        for name in names:
            assert all(np.array_equal(a.data, b.data) for a, b
                       in zip(lean.components[name], full.components[name], strict=True))
        assert [k for k in lean.state_arrays() if not k.startswith("opt_")] == [
            f"{name}.{i}" for name in lean.components for i in range(4)]
    del state["d_image.0"]
    ModelBundle.init(TINY, state, names)
    with pytest.raises(ConfigError, match=r"d_image\.0"):
        ModelBundle.init(TINY, state)
    del state["g_c.3"]
    with pytest.raises(ConfigError, match=r"g_c\.3"):
        ModelBundle.init(TINY, state, names)
