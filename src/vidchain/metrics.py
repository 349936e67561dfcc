"""Deterministic stand-in metrics for generated video: a frozen random
feature projection, Gaussian feature fits compared by Fréchet distance,
the segment-wise long-video protocol with its 16f/128f degradation ratio,
an entropy-based diversity score, and a small probe classifier supplying
class distributions for it.

Conventions
-----------
* Features: a clip's flattened frames and flattened difference maps are
  concatenated, projected through a frozen random matrix, and squashed with
  tanh.  Identical seed ⇒ identical features forever.
* Gaussian fits use the 1/N covariance estimator plus a `RIDGE` of 1e-6, so
  a fit exists for any sample count ≥ 1.  The ridge lives in `from_samples`;
  `frechet_distance` itself adds nothing, keeping hand-built fits exact.
* Segment-wise scores group non-overlapping segments by position across the
  generated set.  The reference is segmented the same way and each position
  is scored against the reference's matching group; positions beyond the
  reference's depth fall back to the fit of all reference segments pooled.
  Reference sets of single-segment clips therefore score every position
  against one fixed reference fit (the degradation protocol), while
  evaluating a set against itself is exactly zero at every position.
  `segment_features` cuts and featurizes a set once; `reference_fits` and
  `score_segments` fit its rows by position.  The reference fits depend on
  the reference alone, so a caller may fit them once and score many sets
  against them.
* The diversity score is exp(inter_entropy - intra_entropy), algebraically
  equal to exp(mean KL(p_i || mean p)); computing it from the entropy
  decomposition keeps the reported identity exact.
* The probe runs in plain numpy: one `_probe_forward`, op for op as
  `autodiff.mlp2` then the row-max shift and `exp`, serves `predict_proba`
  and `train_probe`, so a fit and its probabilities are a taped run's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import GradientError, Tensor
from .container import write_table
from .layers import init_mlp
from .optim import AdamState, adam_step
from .rng import RandomStream
from .video import segment_nonoverlapping

__all__ = [
    "FeatureExtractor", "GaussianFit", "frechet_distance", "SegmentScores",
    "SegmentRows", "segment_features", "reference_fits", "score_segments",
    "segmentwise_scores", "fvd_ratio", "inception_score", "ProbeClassifier",
    "train_probe", "write_metric_report", "read_metric_report",
]

PSD_TOL = 1e-8
RIDGE = 1e-6


# -- feature extraction ---------------------------------------------------------------

class FeatureExtractor:
    """Frozen random projection of a clip onto F features.

    The input vector concatenates the clip's flattened frames with its
    flattened frame-to-frame differences; the projection matrix and bias are
    drawn once from the seed at construction and never change.
    """

    def __init__(self, clip_len: int, frame_dim: int, out_dim: int = 32,
                 seed: int = 0):
        if clip_len < 2:
            raise ValueError(f"need clips of at least 2 frames, got {clip_len}")
        if frame_dim < 1 or out_dim < 1:
            raise ValueError("frame_dim and out_dim must be positive")
        self.clip_len = clip_len
        self.frame_dim = frame_dim
        in_dim = clip_len * frame_dim + (clip_len - 1) * frame_dim
        stream = RandomStream.from_seed(seed, "features")
        self.projection = stream.split("projection").normal(
            (in_dim, out_dim), scale=1.0 / np.sqrt(in_dim))
        self.bias = stream.split("bias").normal((out_dim,), scale=0.25)

    def features(self, clips: np.ndarray) -> np.ndarray:
        """(B, clip_len, ...) -> (B, out_dim) in (-1, 1)."""
        x = np.asarray(clips, dtype=np.float64)
        if x.ndim < 3:
            raise ValueError(f"expected a batch of clips, got shape {x.shape}")
        b, t = x.shape[0], x.shape[1]
        if t != self.clip_len:
            raise ValueError(f"extractor is fixed to {self.clip_len}-frame "
                             f"clips, got {t}")
        flat = x.reshape(b, t, -1)
        if flat.shape[2] != self.frame_dim:
            raise ValueError(f"expected {self.frame_dim} pixels per frame, "
                             f"got {flat.shape[2]}")
        stacked = np.empty((b, 2 * t - 1, self.frame_dim))
        stacked[:, :t] = flat
        np.subtract(flat[:, 1:], flat[:, :-1], out=stacked[:, t:])
        return np.tanh(stacked.reshape(b, -1) @ self.projection + self.bias)


# -- Gaussian fits and the Fréchet distance ------------------------------------------

def _symmetrize_psd(cov: np.ndarray) -> np.ndarray:
    """Validate symmetry and near-PSD-ness; clip tiny negative eigenvalues."""
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2]:
        raise ValueError(f"covariance must be square, got {cov.shape}")
    t = np.swapaxes(cov, -1, -2)
    gap = np.abs(cov - t)
    # np.allclose's verdict: NaN fails, and equal infinities (a NaN gap) pass
    if not (gap.max() <= PSD_TOL or ((gap <= PSD_TOL) | (cov == t)).all()):
        raise ValueError("covariance is not symmetric")
    w, v = np.linalg.eigh(0.5 * (cov + t))
    if w.min() < -PSD_TOL:
        raise ValueError(f"covariance has eigenvalue {w.min():.3e} below -{PSD_TOL:g}")
    return (v * np.clip(w, 0.0, None)[..., None, :]) @ np.swapaxes(v, -1, -2)


def _moments(samples) -> tuple:
    """Mean and 1/N covariance plus RIDGE*I of an (N, F) sample matrix."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"need an (N, F) sample matrix with N >= 1, "
                         f"got shape {x.shape}")
    mean = x.mean(axis=0)
    centered = x - mean
    return mean, (centered.T @ centered) / x.shape[0] + RIDGE * np.eye(x.shape[1])


@dataclass(frozen=True)
class GaussianFit:
    """Mean and symmetric PSD covariance of a feature cloud, or a stack of P
    of them, mean (P, F) and cov (P, F, F), with the bits of P single fits;
    `moments` keeps the input, so `GaussianFit(*fit.moments)` is bit-exact."""
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.cov, dtype=np.float64)
        mean = np.asarray(self.mean, dtype=np.float64).reshape(*given.shape[:-2], -1)
        cov = _symmetrize_psd(given)
        if mean.shape != cov.shape[:-1]:
            raise ValueError(f"mean dim {mean.shape[-1]} vs covariance {cov.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "moments", (mean, given))

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    def __getitem__(self, index) -> "GaussianFit":
        """The fits at `index` of a stack, taken without validating again."""
        fit = object.__new__(GaussianFit)
        fit.__dict__.update(mean=self.mean[index], cov=self.cov[index],
                            moments=tuple(m[index] for m in self.moments))
        return fit

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "GaussianFit":
        """1/N covariance estimate plus RIDGE*I (rank-safe at any N >= 1)."""
        return cls(*_moments(samples))


def frechet_distance(a: GaussianFit, b: GaussianFit):
    """||mean_a - mean_b||^2 + Tr(cov_a + cov_b - 2 (cov_a cov_b)^(1/2)),
    the cross term evaluated through the symmetric eigendecomposition of
    cov_a^(1/2) cov_b cov_a^(1/2).  Stacks of P fits give P distances."""
    if a.dim != b.dim:
        raise ValueError(f"fit dims differ: {a.dim} vs {b.dim}")
    if a.mean.shape != b.mean.shape:
        raise ValueError(f"fit stacks differ: {a.mean.shape} vs {b.mean.shape}")
    wa, va = np.linalg.eigh(a.cov)
    root_a = (va * np.sqrt(np.clip(wa, 0.0, None))[..., None, :]) @ np.swapaxes(va, -1, -2)
    product = root_a @ b.cov @ root_a
    wm = np.linalg.eigvalsh(0.5 * (product + np.swapaxes(product, -1, -2)))
    if wm.min() < -PSD_TOL:
        raise ValueError(f"cross-covariance product has eigenvalue "
                         f"{wm.min():.3e} below -{PSD_TOL:g}")
    delta, roots = a.mean - b.mean, np.sqrt(np.clip(wm, 0.0, None))
    # each distance in the float64 order of a single pair
    values = [float(delta[i] @ delta[i]) + float(np.trace(a.cov[i]) + np.trace(b.cov[i]))
              - 2.0 * float(np.sum(roots[i])) for i in np.ndindex(delta.shape[:-1])]
    if min(values) < -1e-6:
        raise ValueError(f"distance evaluated to {min(values):.3e}; fits are "
                         "numerically inconsistent")
    values = [max(v, 0.0) for v in values]
    return values[0] if delta.ndim == 1 else np.reshape(values, delta.shape[:-1])


# -- segment-wise long-video protocol -----------------------------------------------

class SegmentScores(NamedTuple):
    """Per-segment-position Fréchet scores of a generated set."""
    scores: list            # one score per segment position
    average: float
    excluded: list          # too-short video indices


class SegmentRows(NamedTuple):
    """`segment_features` of a video set: row k is segment `position[k]` of
    video `video[k]`; `excluded` lists the videos shorter than a segment."""
    features: np.ndarray
    video: np.ndarray
    position: np.ndarray
    excluded: list

    def fits(self, *extra) -> GaussianFit:
        """The stacked `from_samples` fits of the rows at each segment
        position, shallowest first, then of each `extra` sample matrix."""
        groups = [self.features[self.position == j] for j in range(self.position.max() + 1)]
        return GaussianFit(*map(np.stack, zip(*map(_moments, groups + list(extra)))))


def segment_features(videos, extractor: FeatureExtractor, seg_len: int = 16,
                     side: str = "generated") -> SegmentRows:
    """Every non-overlapping segment of the set, featurized in one
    `extractor.features` call, video-major; `side` names the set in errors.
    The segments are views of the videos as held, widened to float64 as they
    are concatenated: the one float64 copy of the set this makes."""
    cut = {i: segment_nonoverlapping(v, seg_len)
           for i, v in enumerate(videos) if len(v) >= seg_len}
    if not cut:
        raise ValueError(f"no {side} video reaches {seg_len} frames")
    segments = np.concatenate(list(cut.values()), dtype=np.float64)
    return SegmentRows(extractor.features(segments),
                       np.concatenate([[i] * len(c) for i, c in cut.items()]),
                       np.concatenate([np.arange(len(c)) for c in cut.values()]),
                       [i for i in range(len(videos)) if i not in cut])


def reference_fits(rows: SegmentRows) -> GaussianFit:
    """The stacked fit of each segment position of the reference rows, then
    of all of them pooled (see the module notes)."""
    return rows.fits(rows.features)


def score_segments(rows: SegmentRows, fits: GaussianFit) -> SegmentScores:
    """Fréchet score of each generated segment position against that
    position's `reference_fits` entry; deeper positions take the pooled one."""
    generated = rows.fits()
    pairs = np.minimum(np.arange(len(generated.mean)), len(fits.mean) - 1)
    scores = frechet_distance(generated, fits[pairs]).tolist()
    return SegmentScores(scores, float(np.mean(scores)), rows.excluded)


def segmentwise_scores(generated, reference, extractor: FeatureExtractor,
                       seg_len: int = 16) -> SegmentScores:
    """Fréchet score of each segment position of the generated set against
    the reference set (see the module notes for the reference pairing)."""
    fits = reference_fits(segment_features(reference, extractor, seg_len, "reference"))
    return score_segments(segment_features(generated, extractor, seg_len), fits)


def fvd_ratio(score_short: float, score_long: float) -> float:
    """Degradation ratio of a short-segment score to a long-segment score."""
    if score_short < 0 or score_long < 0:
        raise ValueError("scores must be nonnegative")
    if score_long == 0:
        raise ValueError("long-segment score is zero; ratio undefined")
    return float(score_short) / float(score_long)


# -- diversity score over class distributions ------------------------------------------

def _entropy(p: np.ndarray) -> float:
    """Shannon entropy with the 0·log 0 = 0 convention."""
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


def inception_score(probs: np.ndarray) -> tuple[float, float, float]:
    """(exp(inter - intra), inter_entropy, intra_entropy) for per-sample
    class distributions; equals exp of the mean KL divergence of each row
    against the mean distribution."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
        raise ValueError(f"expected an (N, K) matrix, got shape {p.shape}")
    if p.min() < -1e-9 or not np.allclose(p.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("rows must be probability distributions")
    p = np.clip(p, 0.0, None)
    inter = _entropy(p.mean(axis=0))
    intra = float(np.mean([_entropy(row) for row in p]))
    return float(np.exp(inter - intra)), inter, intra


# -- probe classifier --------------------------------------------------------------

def _probe_forward(params, x: np.ndarray):
    """The probe stack [W0, b0, W1, b1] on rows `x`, op for op as
    `autodiff.mlp2`, then the row-max shift and `exp`: the tanh hidden
    layer, the shifted logits and their exponentials."""
    w0, b0, w1, b1 = params
    h = x @ w0 + b0
    ad._check_finite("mlp2", h)
    np.tanh(h, out=h)
    logits = h @ w1 + b1
    ad._check_finite("mlp2", logits)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    return h, shifted, np.exp(shifted)


class ProbeClassifier:
    """Dense feature -> class-distribution head used for the diversity score;
    `params` are the float64 [W0, b0, W1, b1] that `train_probe` fits."""

    def __init__(self, params):
        self.params = list(params)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Row-wise class distributions: exp of the log-softmax."""
        x = np.require(features, np.float64, "C")
        ad._check_finite("tensor", x)
        _, shifted, e = _probe_forward(self.params, x)
        return np.exp(shifted - np.log(e.sum(axis=(1,), keepdims=True)))


def train_probe(features: np.ndarray, labels: np.ndarray,
                stream: RandomStream, *, hidden: int = 24, epochs: int = 60,
                batch: int = 32, lr: float = 5e-3) -> ProbeClassifier:
    """Fit a ProbeClassifier to labeled feature rows by cross-entropy, in plain
    numpy op for op as the tape's primitives and VJPs run, with Adam (which is
    elementwise) on the parameters as one flat array: a taped fit's bits."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("features must be (N, F) with one label per row")
    classes = sorted(set(y.tolist()))     # np.unique would import numpy.ma
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes, got {len(classes)}")
    ad._check_finite("tensor", x)
    class_index = {int(c): i for i, c in enumerate(classes)}
    onehot = np.zeros((len(y), len(classes)))
    onehot[np.arange(len(y)), [class_index[int(v)] for v in y]] = 1.0

    init = RandomStream.from_seed(int(stream.integers(0, 2**31, ())), "probe-init")
    params = [p.data for p in init_mlp(init, (x.shape[1], hidden, len(classes)),
                                       bias_init=0.05)]
    flat = Tensor(np.concatenate([p.ravel() for p in params]), requires_grad=True)
    ends = np.cumsum([p.size for p in params])
    opt = AdamState(lr=lr)

    def unflat():
        return [flat.data[end - p.size:end].reshape(p.shape)
                for p, end in zip(params, ends)]

    for epoch in range(epochs):
        order = stream.split(f"epoch{epoch}").permutation(len(x))
        for lo in range(0, len(x), batch):
            rows = order[lo:lo + batch]
            xb = x[rows]
            stack = unflat()
            h, _, e = _probe_forward(stack, xb)
            total = e.sum(axis=(1,), keepdims=True)
            # VJPs of mean, sum, mul, sub, log, sum, exp, sub in `backward`'s order
            g_logp = (1.0 / len(rows)) * -onehot[rows]
            g = g_logp + (-g_logp).sum(axis=(1,), keepdims=True) / total * e
            pre = (g @ stack[2].T) * (1.0 - h * h)      # back through W1 and tanh
            grad = np.concatenate([(xb.T @ pre).ravel(), pre.sum(axis=0),
                                   (h.T @ g).ravel(), g.sum(axis=0)])
            if not np.isfinite(grad).all():
                raise GradientError("non-finite gradient in the probe fit")
            flat, = adam_step(opt, [flat], [grad])
    return ProbeClassifier(unflat())


# -- metric report files -----------------------------------------------------------

def write_metric_report(path, rows) -> None:
    """Write (metric, segment_index, value) rows as a table (see
    `container.write_table`); use a segment index of '-' for whole-run
    metrics."""
    write_table(path, ("metric", "segment", "value"), rows)


def read_metric_report(path) -> list:
    """Parse a report back into (metric, segment, value) tuples."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            metric, segment, value = line.split("\t")
            rows.append((metric, segment, float(value)))
    return rows
