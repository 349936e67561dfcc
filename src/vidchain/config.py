"""Run configuration: one validated record that pins every knob of a run.

A ``RunConfig`` plus a seed fully determines every byte a run produces, so
the config is embedded in checkpoints and echoed into reports.  Architecture
fields (clip geometry, latent/hidden sizes, ablation switches) must match
when resuming from a checkpoint — schedule fields (steps, batch, learning
rate, sampling) may differ between phases.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["ConfigError", "RunConfig", "ARCH_FIELDS", "FRAME_FIELDS"]

LOSS_VARIANTS = ("frame", "diff")
GEN_MODES = ("sampled", "mean", "seeded")

# Fields that fix the parameter shapes / wiring of a model.  A checkpoint
# can only be loaded under a config that agrees on all of these.
ARCH_FIELDS = (
    "t_c", "r", "height", "width", "channels",
    "z_content", "z_motion", "hidden", "bias_init",
    "disable_content", "disable_motion", "disable_fusion",
)

FRAME_FIELDS = ("height", "width", "channels")    # frame_shape, fixed by the data


# The values each field's annotation admits.  bool is an int to Python, so
# the int and float fields refuse it by name; a float field takes an int.
_KINDS = {
    "int": ((int,), "an int"),
    "int | None": ((int, type(None)), "an int or null"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


class ConfigError(ValueError):
    """Invalid, unknown, or conflicting configuration values."""


@dataclass(frozen=True)
class RunConfig:
    # clip geometry
    t_c: int = 16                # frames per short clip
    r: int | None = None         # chaining stride / reference index; None -> t_c // 2
    height: int = 16
    width: int = 16
    channels: int = 1
    # model sizes
    z_content: int = 64
    z_motion: int = 10
    hidden: int = 96
    bias_init: float = 0.05      # std-dev of bias initialization noise
    # generator ablation switches (disabled streams emit zeros)
    disable_content: bool = False
    disable_motion: bool = False
    disable_fusion: bool = False
    # optimizer
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    # schedule
    batch: int = 8
    steps: int = 2000
    seed: int = 0
    uniform_fraction: float = 0.1   # first fraction of steps samples frames uniformly
    sample_step: int = 2            # stride of step-sampling afterwards (1, 2, or 3)
    # long-video training / generation modes
    ovi: bool = True             # overlapping training pairs (stride r) vs disjoint
    mgv: bool = True             # merged-pair video-discriminator loss vs per-clip
    loss_variant: str = "frame"  # "frame": per-frame recursion term; "diff": diff-map term
    gen_mode: str = "sampled"    # chain generation latents: sampled | mean | seeded

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            types, kind = _KINDS[f.type]
            _check(isinstance(value, types)
                   and (f.type == "bool" or not isinstance(value, bool)),
                   f"{f.name} must be {kind}, got {value!r}")
        if self.r is None:
            object.__setattr__(self, "r", self.t_c // 2)
        _check(self.t_c >= 2, f"t_c must be >= 2, got {self.t_c}")
        _check(1 <= self.r < self.t_c, f"need 1 <= r < t_c, got r={self.r}, t_c={self.t_c}")
        for name in ("height", "width", "channels", "z_content", "z_motion",
                     "hidden", "batch"):
            _check(getattr(self, name) >= 1, f"{name} must be positive")
        _check(self.steps >= 0, "steps must be >= 0")
        _check(self.lr >= 0, "lr must be >= 0")
        _check(0 < self.beta1 < 1 and 0 < self.beta2 < 1, "betas must lie in (0, 1)")
        _check(self.eps > 0, "eps must be positive")
        _check(self.bias_init >= 0, "bias_init must be >= 0")
        _check(0.0 <= self.uniform_fraction <= 1.0, "uniform_fraction must be in [0, 1]")
        _check(self.sample_step in (1, 2, 3), f"sample_step must be 1, 2, or 3, "
                                              f"got {self.sample_step}")
        _check(self.loss_variant in LOSS_VARIANTS,
               f"loss_variant must be one of {LOSS_VARIANTS}, got {self.loss_variant!r}")
        _check(self.gen_mode in GEN_MODES,
               f"gen_mode must be one of {GEN_MODES}, got {self.gen_mode!r}")

    # -- shapes derived from the config ------------------------------------
    @property
    def frame_shape(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.channels)

    @property
    def frame_dim(self) -> int:
        return self.height * self.width * self.channels

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def replace(self, **changes) -> "RunConfig":
        return self.from_dict({**self.to_dict(), **changes})

    def ensure_arch_matches(self, stored: dict) -> None:
        """Refuse to pair this config with a checkpoint built under another
        architecture.  `stored` is the config dict echoed in the checkpoint."""
        mine = self.to_dict()
        bad = [f"{k}: checkpoint={stored.get(k)!r} current={mine[k]!r}"
               for k in ARCH_FIELDS if stored.get(k) != mine[k]]
        if bad:
            raise ConfigError("checkpoint config conflicts with current config: "
                              + "; ".join(bad))


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)
