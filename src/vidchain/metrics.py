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
* Gaussian fits use the 1/N covariance estimator plus a 1e-6 ridge, so a
  fit exists for any sample count ≥ 1.  The ridge lives in `from_samples`;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .container import write_table
from .layers import apply_mlp, init_mlp
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
        diffs = flat[:, 1:, :] - flat[:, :-1, :]
        stacked = np.concatenate(
            [flat.reshape(b, -1), diffs.reshape(b, -1)], axis=1)
        return np.tanh(stacked @ self.projection + self.bias)


# -- Gaussian fits and the Fréchet distance ------------------------------------------

def _symmetrize_psd(cov: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Validate symmetry and near-PSD-ness; clip tiny negative eigenvalues."""
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=tol, rtol=0.0):
        raise ValueError("covariance is not symmetric")
    sym = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(sym)
    if w.min() < -tol:
        raise ValueError(f"covariance has eigenvalue {w.min():.3e} below "
                         f"-{tol:g}")
    return (v * np.clip(w, 0.0, None)) @ v.T


@dataclass(frozen=True)
class GaussianFit:
    """Mean and symmetric PSD covariance of a feature cloud; `moments` keeps
    the unsymmetrized input, so `GaussianFit(*fit.moments)` is bit-exact."""
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        given = np.asarray(self.cov, dtype=np.float64)
        cov = _symmetrize_psd(given)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(f"mean dim {mean.shape[0]} vs covariance "
                             f"{cov.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "moments", (mean, given))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_samples(cls, samples: np.ndarray, ridge: float = 1e-6) -> "GaussianFit":
        """1/N covariance estimate plus ridge*I (rank-safe at any N >= 1)."""
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"need an (N, F) sample matrix with N >= 1, "
                             f"got shape {x.shape}")
        mean = x.mean(axis=0)
        centered = x - mean
        cov = (centered.T @ centered) / x.shape[0]
        return cls(mean, cov + ridge * np.eye(x.shape[1]))


def frechet_distance(a: GaussianFit, b: GaussianFit) -> float:
    """||mean_a - mean_b||^2 + Tr(cov_a + cov_b - 2 (cov_a cov_b)^(1/2)),
    the cross term evaluated through the symmetric eigendecomposition of
    cov_a^(1/2) cov_b cov_a^(1/2)."""
    if a.dim != b.dim:
        raise ValueError(f"fit dims differ: {a.dim} vs {b.dim}")
    wa, va = np.linalg.eigh(a.cov)
    root_a = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.T
    product = root_a @ b.cov @ root_a
    wm = np.linalg.eigvalsh(0.5 * (product + product.T))
    if wm.min() < -PSD_TOL:
        raise ValueError(f"cross-covariance product has eigenvalue "
                         f"{wm.min():.3e} below -{PSD_TOL:g}")
    delta = a.mean - b.mean
    value = (float(delta @ delta) + float(np.trace(a.cov) + np.trace(b.cov))
             - 2.0 * float(np.sum(np.sqrt(np.clip(wm, 0.0, None)))))
    if value < -1e-6:
        raise ValueError(f"distance evaluated to {value:.3e}; fits are "
                         "numerically inconsistent")
    return max(value, 0.0)


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

    def position_fits(self) -> list:
        """The fit of the rows at each segment position, shallowest first."""
        return [GaussianFit.from_samples(self.features[self.position == j])
                for j in range(self.position.max() + 1)]


def segment_features(videos, extractor: FeatureExtractor, seg_len: int = 16,
                     side: str = "generated") -> SegmentRows:
    """Every non-overlapping segment of the set, featurized in one
    `extractor.features` call, video-major; `side` names the set in errors."""
    cut = {i: segment_nonoverlapping(np.asarray(v, dtype=np.float64), seg_len)
           for i, v in enumerate(videos) if len(v) >= seg_len}
    if not cut:
        raise ValueError(f"no {side} video reaches {seg_len} frames")
    return SegmentRows(extractor.features(np.concatenate(list(cut.values()))),
                       np.concatenate([[i] * len(c) for i, c in cut.items()]),
                       np.concatenate([np.arange(len(c)) for c in cut.values()]),
                       [i for i in range(len(videos)) if i not in cut])


def reference_fits(rows: SegmentRows) -> list:
    """The fit of each segment position of the reference rows, then the fit
    of all of them pooled (see the module notes)."""
    return rows.position_fits() + [GaussianFit.from_samples(rows.features)]


def score_segments(rows: SegmentRows, fits: list) -> SegmentScores:
    """Fréchet score of each generated segment position against that
    position's `reference_fits` entry; deeper positions take the pooled one."""
    scores = [frechet_distance(fit, fits[min(j, len(fits) - 1)])
              for j, fit in enumerate(rows.position_fits())]
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

class ProbeClassifier:
    """Dense feature -> class-distribution head used for the diversity score."""

    def __init__(self, in_dim: int, n_classes: int, hidden: int = 24,
                 seed: int = 0):
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        stream = RandomStream.from_seed(seed, "probe-init")
        self.params = init_mlp(stream, (in_dim, hidden, n_classes),
                               bias_init=0.05)

    @classmethod
    def from_params(cls, arrays) -> "ProbeClassifier":
        """The probe whose `params` hold `arrays`, [W0, b0, W1, b1]."""
        probe = cls.__new__(cls)
        probe.params = [Tensor(a, requires_grad=True) for a in arrays]
        return probe

    def log_probs(self, features: Tensor) -> Tensor:
        """Differentiable row-wise log of the class distribution."""
        logits = apply_mlp(self.params, features)
        shift = np.max(logits.data, axis=1, keepdims=True)  # constant offset
        shifted = logits - Tensor(shift)
        lse = ad.log(ad.sum(ad.exp(shifted), axis=1, keepdims=True))
        return shifted - lse

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return np.exp(self.log_probs(Tensor(features)).data)


def train_probe(features: np.ndarray, labels: np.ndarray,
                stream: RandomStream, *, hidden: int = 24, epochs: int = 60,
                batch: int = 32, lr: float = 5e-3) -> ProbeClassifier:
    """Fit a ProbeClassifier to labeled feature rows by cross-entropy."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("features must be (N, F) with one label per row")
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes, got {len(classes)}")
    class_index = {int(c): i for i, c in enumerate(classes)}
    onehot = np.zeros((len(y), len(classes)))
    onehot[np.arange(len(y)), [class_index[int(v)] for v in y]] = 1.0

    probe = ProbeClassifier(x.shape[1], len(classes),
                            hidden=hidden, seed=int(stream.integers(0, 2**31, ())))
    opt = AdamState(lr=lr)
    n = len(x)
    for epoch in range(epochs):
        order = stream.split(f"epoch{epoch}").permutation(n)
        for lo in range(0, n, batch):
            rows = order[lo:lo + batch]
            with ad.GradTape():
                logp = probe.log_probs(Tensor(x[rows]))
                loss = ad.mean(ad.sum(ad.mul(Tensor(-onehot[rows]), logp),
                                      axis=1))
                grads = backward(loss, probe.params)
            probe.params = adam_step(opt, probe.params, grads)
    return probe


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
