"""Output checks of the long-video stages, computed apart from the program.

The container is parsed from its documented byte layout rather than through
vidchain.container, and the Fréchet distance is computed from the
eigenvalues of cov_a @ cov_b instead of the symmetric square root that
vidchain.metrics uses.  Only the frozen feature extractor is the program's
own: its features are the input being scored.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

FID_RIDGE = 1e-6           # the documented ridge of every Gaussian fit
FID_RTOL = 1e-6
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def read_rcg1(path) -> np.ndarray:
    """An RCG1 container: magic, u32 version, u32 dtype tag, u32 ndim,
    ndim u64 dims, then the row-major little-endian payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RCG1" or len(blob) < 16:
        raise ValueError(f"{path}: not an RCG1 container")
    _, tag, ndim = struct.unpack("<III", blob[4:16])
    dims = struct.unpack(f"<{ndim}Q", blob[16:16 + 8 * ndim])
    dtype = _DTYPES[tag]
    payload = blob[16 + 8 * ndim:]
    if len(payload) != int(np.prod(dims)) * dtype.itemsize:
        raise ValueError(f"{path}: payload does not match dims {dims}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims)


def sha256(path) -> str:
    """Digest of a file, printed so that two runs can show identical bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def container_checks(frames: np.ndarray, clips: int, cfg) -> dict:
    want = (clips - 1) * cfg.r + cfg.t_c
    shape_ok = frames.shape == (want,) + cfg.frame_shape
    in_range = bool(np.all(np.abs(frames) <= 1.0))
    return {
        "container_frames": [shape_ok, f"shape={frames.shape} want {want} frames "
                                       f"of {cfg.frame_shape}"],
        "container_pixels_in_range": [in_range, ""],
    }


def _fit(features: np.ndarray):
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / len(features)
    return mean, cov + FID_RIDGE * np.eye(features.shape[1])


def frechet(a, b) -> float:
    """||mu_a - mu_b||^2 + tr(A) + tr(B) - 2 sum sqrt(eig(A B)).  The
    eigenvalues of a product of two SPD matrices are real and positive."""
    (mu_a, cov_a), (mu_b, cov_b) = a, b
    eig = np.linalg.eigvals(cov_a @ cov_b).real
    delta = mu_a - mu_b
    return float(delta @ delta + np.trace(cov_a) + np.trace(cov_b)
                 - 2.0 * np.sqrt(np.clip(eig, 0.0, None)).sum())


def fid_checks(frames: np.ndarray, reference, rows: dict, seg_len: int,
               seed: int) -> dict:
    """Each reported fid_segment against an independent computation: the
    generated video's segment j is fitted alone and compared with the fit of
    every reference video's segment j, or of all reference segments pooled
    where the reference is shorter."""
    from vidchain.metrics import FeatureExtractor

    frame_shape = frames.shape[1:]
    extractor = FeatureExtractor(seg_len, int(np.prod(frame_shape)), seed=seed)
    n_gen = len(frames) // seg_len
    gen = np.asarray(frames[:n_gen * seg_len], dtype=np.float64)
    gen_feats = extractor.features(gen.reshape((n_gen, seg_len) + frame_shape))

    depth = min(len(v) for v in reference) // seg_len
    ref_feats = [extractor.features(np.stack([v[j * seg_len:(j + 1) * seg_len]
                                              for v in reference]))
                 for j in range(depth)]
    ref_fits = [_fit(f) for f in ref_feats]
    pooled = _fit(np.concatenate(ref_feats))

    reported = {int(seg): v for (metric, seg), v in rows.items()
                if metric == "fid_segment"}
    worst = 0.0
    ok = sorted(reported) == list(range(n_gen))
    for j in range(n_gen):
        want = frechet(_fit(gen_feats[j:j + 1]), ref_fits[j] if j < depth else pooled)
        err = abs(reported.get(j, np.nan) - want) / max(1.0, abs(want))
        worst = max(worst, err)
        ok = ok and err <= FID_RTOL
    return {"fid_segments_match_independent": [bool(ok), f"{n_gen} segments, "
                                                         f"max rel err {worst:.2e}"]}
