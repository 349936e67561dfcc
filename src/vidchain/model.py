"""The two-stream clip model: encoders, generator, discriminators, bundle.

Layout (all dense stacks over flattened 16x16x1 frames):

* ``content_enc``: frame -> Gaussian posterior over the content code z_x.
* ``motion_enc``: flattened frame-difference sequence -> posterior over z_v.
* Generator, three streams: ``g_c`` maps z_x to a content frame; ``g_t`` maps
  (z_v, z_x) to a difference sequence; ``fusion`` maps (z_x, z_v) to
  per-frame residual corrections added after the frame recursion.  Any stream
  can be disabled (emits zeros) for ablations.
* ``d_image`` / ``d_video``: frame / whole-clip discriminators; logits are
  clamped to [-15, 15] before the sigmoid so probabilities stay strictly
  inside (0, 1) and log terms stay finite.

A clip batch travels as a Tensor of shape (B, T, D) with D = H*W*C.  The
generator composes a clip by placing the content frame at a 1-based
reference index and integrating differences backward and forward from it;
``compose`` then adds fusion residuals and clamps to the pixel range.

A ``ModelBundle`` owns its parameter stacks in ``components`` (all seven,
or those a generation command calls) and three Adam states in ``opts``,
keyed by the ``OPT_GROUPS`` names that pair each with its group
(discriminators, encoders, generator).  It draws the prior latents, and
round-trips through a checkpoint file bit-exactly, config echo included.
It owns the checkpoint layout: every array's name and shape follow from
the config.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ConfigError, RunConfig
from .container import load_checkpoint, save_checkpoint
from .gaussian import GaussianParams
from .layers import apply_mlp, init_mlp
from .optim import AdamState
from .rng import RandomStream

__all__ = ["ModelBundle", "COMPONENTS", "D_GROUP", "ENC_GROUP", "GEN_GROUP",
           "LOGIT_LIMIT", "OPT_NAMES", "clips_to_tensor", "clip_diffs"]

COMPONENTS = ("content_enc", "motion_enc", "g_c", "g_t", "fusion",
              "d_image", "d_video")
D_GROUP = ("d_image", "d_video")
ENC_GROUP = ("content_enc", "motion_enc")
GEN_GROUP = ("g_c", "g_t", "fusion")
LOGIT_LIMIT = 15.0
OPT_GROUPS = {"opt_d": D_GROUP, "opt_enc": ENC_GROUP, "opt_gen": GEN_GROUP}
OPT_NAMES = tuple(OPT_GROUPS)   # checkpoint key prefixes


def clips_to_tensor(clips: np.ndarray) -> Tensor:
    """(B,T,H,W,C) numpy pixels -> constant Tensor (B, T, D).  An empty
    batch is refused."""
    clips = np.asarray(clips, dtype=np.float64)
    if clips.size == 0:
        raise ValueError("empty batch")
    if clips.ndim != 5:
        raise ValueError(f"expected a clip batch, got shape {clips.shape}")
    b, t = clips.shape[:2]
    return Tensor(clips.reshape(b, t, -1))


def clip_diffs(clips: Tensor) -> Tensor:
    """Adjacent-frame differences of a (B, T, D) clip, flattened to
    (B, (T-1)*D) — the motion encoder's input."""
    b, t, d = clips.shape
    diffs = clips[:, 1:, :] - clips[:, :-1, :]
    return ad.reshape(diffs, (b, (t - 1) * d))


def _sizes(cfg: RunConfig) -> dict:
    d, t = cfg.frame_dim, cfg.t_c
    return {
        "content_enc": [d, cfg.hidden, 2 * cfg.z_content],
        "motion_enc": [(t - 1) * d, cfg.hidden, 2 * cfg.z_motion],
        "g_c": [cfg.z_content, cfg.hidden, d],
        "g_t": [cfg.z_motion + cfg.z_content, cfg.hidden, (t - 1) * d],
        "fusion": [cfg.z_content + cfg.z_motion, cfg.hidden, t * d],
        "d_image": [d, cfg.hidden, 1],
        "d_video": [t * d, cfg.hidden, 1],
    }


def _take(state: dict, entries, kind: str) -> list[np.ndarray]:
    """The arrays of `state` named by `entries` [(name, shape), ...], each
    checked and then adopted or copied (see `ModelBundle.init`).  All names
    are looked up first, so a damaged name reports the array it removed."""
    for key, _ in entries:
        if key not in state:
            raise ConfigError(f"checkpoint is missing {kind} {key}")
    for key, shape in entries:
        if state[key].shape != shape:
            raise ConfigError(f"checkpoint {kind} {key} has shape "
                              f"{state[key].shape}, expected {shape}")
    return [np.require(state[key], np.float64, "CW") for key, _ in entries]


class ModelBundle:
    def __init__(self, cfg: RunConfig, components: dict, opts: dict):
        self.cfg = cfg
        self.components = components
        self.opts = opts

    @classmethod
    def init(cls, cfg: RunConfig, state: dict | None = None,
             components=COMPONENTS) -> "ModelBundle":
        """A fresh bundle drawn from the config seed or, given a
        state_arrays() dict, one restored from it without drawing anything.
        It holds the `components` named, in COMPONENTS order: all seven by
        default, which training needs, or fewer for a bundle that only
        generates.  Each stack draws from its own named stream, so a fresh
        stack is the same whichever others are drawn beside it.

        Every parameter of each named component must be present with its
        shape.  An optimizer with none of its arrays in `state` starts fresh;
        otherwise its `step` must be present and, above 0, each `m{i}`/`v{i}`
        with the shape of the group's parameter i.  A violation raises
        ConfigError naming the array.

        A restored bundle owns `state`'s arrays: each one that is writable,
        C-contiguous float64 (as `load_checkpoint` returns them) is adopted
        as it is, a parameter as the read-only data of its Tensor after the
        same finite check `Tensor()` runs, a moment as the live accumulator
        the next Adam step updates in place.  The caller must not write to
        such an array afterwards.  Any other array, such as the read-only
        views of another bundle's `state_arrays()`, is copied, so bundles
        restored from one live bundle train independently of it and of
        each other."""
        sizes = _sizes(cfg)
        opts = {name: AdamState(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
                for name in OPT_NAMES}
        names = [name for name in COMPONENTS if name in components]
        if state is None:
            stream = RandomStream.from_seed(cfg.seed, "model-init")
            return cls(cfg, {name: init_mlp(stream.split(name), sizes[name],
                                            cfg.bias_init)
                             for name in names}, opts)
        # each component's W0, b0, W1, b1 as init_mlp draws them
        shapes = {name: [(i, h), (h,), (h, o), (o,)]
                  for name, (i, h, o) in sizes.items()}
        stacks = {}
        for name in names:
            stacks[name] = []
            for arr in _take(state, [(f"{name}.{i}", shape) for i, shape
                                     in enumerate(shapes[name])], "parameter"):
                ad._check_finite("tensor", arr)
                param = Tensor._wrap(arr)
                param.requires_grad = True
                stacks[name].append(param)
        for opt_name, opt in opts.items():
            if not any(key.startswith(opt_name + ".") for key in state):
                continue        # fresh, as `load` with `runs` leaves it
            step = float(_take(state, [(f"{opt_name}.step", (1,))],
                               "optimizer array")[0][0])
            if not (step >= 0 and step.is_integer()):
                raise ConfigError(f"checkpoint {opt_name}.step holds {step}")
            opt.step = int(step)
            if opt.step:        # step 0 has not sized its moments yet
                group = [shape for name in OPT_GROUPS[opt_name]
                         for shape in shapes[name]]
                moments = _take(state, [(f"{opt_name}.{mv}{i}", shape)
                                        for i, shape in enumerate(group)
                                        for mv in "mv"], "optimizer array")
                opt.m, opt.v = moments[0::2], moments[1::2]
        return cls(cfg, stacks, opts)

    # -- parameter groups -----------------------------------------------------
    def params(self, group) -> list[Tensor]:
        return [p for name in group for p in self.components[name]]

    def set_params(self, group, tensors) -> None:
        tensors = list(tensors)
        pos = 0
        for name in group:
            n = len(self.components[name])
            self.components[name] = tensors[pos:pos + n]
            pos += n
        if pos != len(tensors):
            raise ValueError("parameter count mismatch for group")

    # -- encoders ---------------------------------------------------------------
    def content_posterior(self, frames: Tensor) -> GaussianParams:
        """Content-code posterior from a frame batch (B, D)."""
        zx = self.cfg.z_content
        out = apply_mlp(self.components["content_enc"], frames)
        return GaussianParams(out[:, :zx], out[:, zx:])

    def motion_posterior(self, diffs: Tensor) -> GaussianParams:
        """Motion-code posterior from flattened difference sequences
        (B, (T-1)*D)."""
        zv = self.cfg.z_motion
        out = apply_mlp(self.components["motion_enc"], diffs)
        return GaussianParams(out[:, :zv], out[:, zv:])

    def encode_clips(self, clips: Tensor, ref_index: int = 1):
        """Posteriors from a (B, T, D) clip batch; the content encoder reads
        the frame at 1-based `ref_index`, the motion encoder all differences."""
        t = clips.shape[1]
        if not 1 <= ref_index <= t:
            raise ValueError(f"ref_index {ref_index} outside 1..{t}")
        return (self.content_posterior(clips[:, ref_index - 1, :]),
                self.motion_posterior(clip_diffs(clips)))

    # -- generator ------------------------------------------------------------
    def prior_latents(self, b: int, stream: RandomStream):
        """`b` content and motion latents drawn from the standard-normal
        prior, as (b, z_content) and (b, z_motion) Tensors."""
        return (Tensor(stream.split("prior_x").normal((b, self.cfg.z_content))),
                Tensor(stream.split("prior_v").normal((b, self.cfg.z_motion))))

    def compose(self, z_x: Tensor, z_v: Tensor, ref_index: int = 1):
        """Full generator pass from latents (B, z_content) and (B, z_motion),
        the content frame placed at 1-based `ref_index`.  Returns the raw
        clip (B,T,D) before clamping, which reconstruction terms compare,
        and the clamped clip (B,T,D), which generation emits and the
        discriminators score."""
        cfg = self.cfg
        if z_x.ndim != 2 or z_x.shape[1] != cfg.z_content:
            raise ValueError(f"content latent shape {z_x.shape} != "
                             f"(batch, {cfg.z_content})")
        if z_v.ndim != 2 or z_v.shape[1] != cfg.z_motion:
            raise ValueError(f"motion latent shape {z_v.shape} != "
                             f"(batch, {cfg.z_motion})")
        if not 1 <= ref_index <= cfg.t_c:
            raise ValueError(f"ref_index {ref_index} outside 1..{cfg.t_c}")
        b, d, t = z_x.shape[0], cfg.frame_dim, cfg.t_c

        if cfg.disable_content:
            content = Tensor(np.zeros((b, d)))
        else:
            content = apply_mlp(self.components["g_c"], z_x)
        if cfg.disable_motion:
            motion = Tensor(np.zeros((b, (t - 1) * d)))
        else:
            motion = apply_mlp(self.components["g_t"], ad.concat([z_v, z_x], axis=1))

        # Integrate the differences outward from the reference frame as two
        # running sums.  The reference frame itself is taken from the forward
        # half, so its gradient meets the later frames' before the earlier
        # frames', the same float64 order as a frame-by-frame recursion.
        k = ref_index - 1
        if k == 0:      # ref 1 (every clip-phase compose): the forward sum alone
            raw = ad.cumsum(ad.reshape(ad.concat([content, motion], axis=1),
                                       (b, t, d)), axis=1)
        else:           # frames k, k-1, ..., 0, then back into frame order
            steps = ad.reshape(motion, (b, t - 1, d))
            start = ad.reshape(content, (b, 1, d))
            back = ad.cumsum(ad.concat([start, -steps[:, k - 1::-1, :]], axis=1),
                             axis=1)
            raw = ad.concat([back[:, :0:-1, :],
                             ad.cumsum(ad.concat([start, steps[:, k:, :]], axis=1),
                                       axis=1)], axis=1)

        if not cfg.disable_fusion:
            residual = apply_mlp(self.components["fusion"],
                                 ad.concat([z_x, z_v], axis=1))
            raw = raw + ad.reshape(residual, (b, t, d))
        return raw, ad.clip(raw, -1.0, 1.0)

    # -- discriminators -----------------------------------------------------------
    def d_image_prob(self, frames: Tensor) -> Tensor:
        """P(real) for a frame batch (B, D), strictly inside (0, 1)."""
        logit = apply_mlp(self.components["d_image"], frames)
        return ad.sigmoid(ad.clip(logit, -LOGIT_LIMIT, LOGIT_LIMIT))

    def d_video_prob(self, clips: Tensor) -> Tensor:
        """P(real) for a clip batch (B, T, D)."""
        b, t, d = clips.shape
        logit = apply_mlp(self.components["d_video"], ad.reshape(clips, (b, t * d)))
        return ad.sigmoid(ad.clip(logit, -LOGIT_LIMIT, LOGIT_LIMIT))

    # -- checkpointing -----------------------------------------------------------
    def state_arrays(self) -> dict:
        """Every array by checkpoint name: the parameters of each held
        component in COMPONENTS order, then per optimizer step, m0, v0, m1,
        v1, ...  The moments are read-only views of the live accumulators,
        which the next Adam step overwrites: write them out or copy them
        before stepping again."""
        arrays = {f"{name}.{i}": p.data for name, params in self.components.items()
                  for i, p in enumerate(params)}
        for opt_name, opt in self.opts.items():
            arrays[f"{opt_name}.step"] = np.array([float(opt.step)])
            for i, pair in enumerate(zip(opt.m or (), opt.v or ())):
                for mv, moment in zip("mv", pair):
                    arrays[f"{opt_name}.{mv}{i}"] = view = moment.view()
                    view.flags.writeable = False
        return arrays

    def save(self, path) -> None:
        save_checkpoint(path, self.cfg.to_dict(), self.state_arrays())

    @classmethod
    def load(cls, path, resolve=RunConfig.from_dict, runs=None) -> "ModelBundle":
        """A bundle from one read of a checkpoint.  `resolve(stored)` makes
        its config from the stored config dict before any array is read; what
        it raises propagates.  With `runs`, a function of that config naming
        the components the caller calls, the bundle holds just those stacks
        and fresh optimizers, and the rest stays on disk; by default it holds
        every array, bit for bit."""
        held = {}

        def skip(stored: dict) -> tuple[str, ...]:
            cfg = held["cfg"] = resolve(stored)
            names = held["names"] = COMPONENTS if runs is None else runs(cfg)
            return () if runs is None else OPT_NAMES + tuple(
                f"{name}." for name in COMPONENTS if name not in names)

        _, arrays = load_checkpoint(path, skip)
        return cls.init(held["cfg"], arrays, held["names"])
