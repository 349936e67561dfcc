"""Metric stack: frozen features, Gaussian fits, Fréchet distance with
independent oracles, segment-wise protocol, diversity score, probe."""

import numpy as np
import pytest

from vidchain.metrics import (
    FeatureExtractor, GaussianFit, ProbeClassifier, frechet_distance,
    fvd_ratio, inception_score, read_metric_report, segment_features,
    segmentwise_scores, train_probe, write_metric_report,
)
from vidchain.rng import RandomStream

LN4 = np.log(4.0)


def extractor(clip_len=16, frame_dim=4, out_dim=8, seed=0):
    return FeatureExtractor(clip_len, frame_dim, out_dim=out_dim, seed=seed)


def random_fit(dim=6, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return GaussianFit(rng.standard_normal(dim) * scale, a @ a.T + np.eye(dim))


# -- feature extractor ------------------------------------------------------------

def test_features_shape_and_range():
    ex = extractor()
    clips = np.random.default_rng(0).uniform(-1, 1, (5, 16, 2, 2, 1))
    feats = ex.features(clips)
    assert feats.shape == (5, 8)
    assert np.all(np.abs(feats) < 1.0)


def test_features_frozen_by_seed():
    clips = np.random.default_rng(0).uniform(-1, 1, (3, 16, 2, 2, 1))
    a = extractor(seed=4).features(clips)
    b = extractor(seed=4).features(clips)
    c = extractor(seed=5).features(clips)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_features_see_motion_order():
    # same multiset of frames, different order -> different diffs -> features
    rng = np.random.default_rng(1)
    clip = rng.uniform(-1, 1, (1, 16, 2, 2, 1))
    ex = extractor()
    assert not np.array_equal(ex.features(clip), ex.features(clip[:, ::-1]))


def test_features_reject_wrong_geometry():
    ex = extractor()
    with pytest.raises(ValueError, match="fixed"):
        ex.features(np.zeros((2, 8, 2, 2, 1)))
    with pytest.raises(ValueError, match="pixels"):
        ex.features(np.zeros((2, 16, 3, 3, 1)))
    with pytest.raises(ValueError):
        FeatureExtractor(1, 4)


# -- Gaussian fits -----------------------------------------------------------------

def test_fit_matches_moment_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 5))
    fit = GaussianFit.from_samples(x)
    assert np.allclose(fit.mean, x.mean(0), atol=1e-12)
    centered = x - x.mean(0)
    expected = centered.T @ centered / 40 + 1e-6 * np.eye(5)
    assert np.allclose(fit.cov, expected, atol=1e-10)


def test_fit_single_sample_is_ridge_only():
    fit = GaussianFit.from_samples(np.ones((1, 3)))
    assert np.allclose(fit.cov, 1e-6 * np.eye(3))
    assert fit.dim == 3


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GaussianFit.from_samples(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        GaussianFit(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="eigenvalue"):
        GaussianFit(np.zeros(1), np.array([[-1.0]]))
    with pytest.raises(ValueError, match="dim"):
        GaussianFit(np.zeros(3), np.eye(2))


def test_fit_clips_tiny_negative_eigenvalues():
    fit = GaussianFit(np.zeros(1), np.array([[-1e-9]]))
    assert fit.cov[0, 0] == 0.0


# -- Fréchet distance --------------------------------------------------------------

def test_frechet_identical_fits_zero():
    fit = random_fit()
    assert frechet_distance(fit, fit) == 0.0


def test_frechet_one_dimensional_closed_forms():
    n01 = GaussianFit(np.zeros(1), np.eye(1))
    n11 = GaussianFit(np.ones(1), np.eye(1))
    n04 = GaussianFit(np.zeros(1), 4.0 * np.eye(1))
    assert abs(frechet_distance(n01, n11) - 1.0) < 1e-9
    assert abs(frechet_distance(n01, n04) - 1.0) < 1e-9


def test_frechet_diagonal_closed_form():
    sa = np.array([1.0, 4.0, 0.25])
    sb = np.array([9.0, 1.0, 1.0])
    mu = np.array([1.0, -2.0, 0.5])
    a = GaussianFit(np.zeros(3), np.diag(sa))
    b = GaussianFit(mu, np.diag(sb))
    expected = float(mu @ mu + ((np.sqrt(sa) - np.sqrt(sb)) ** 2).sum())
    assert abs(frechet_distance(a, b) - expected) < 1e-9


def test_frechet_symmetric():
    a, b = random_fit(seed=1), random_fit(seed=2, scale=2.0)
    assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-8


def test_frechet_trace_term_against_general_eigenvalue_oracle():
    # independent route: tr((cov_a cov_b)^(1/2)) = sum of sqrt eigenvalues of
    # the (non-symmetric) product, which are real for SPD factors
    a, b = random_fit(seed=3), random_fit(seed=4)
    cross = np.linalg.eigvals(a.cov @ b.cov)
    assert np.abs(cross.imag).max() < 1e-8
    oracle = (float((a.mean - b.mean) @ (a.mean - b.mean))
              + float(np.trace(a.cov) + np.trace(b.cov))
              - 2.0 * float(np.sqrt(np.clip(cross.real, 0, None)).sum()))
    assert abs(frechet_distance(a, b) - oracle) < 1e-8


def test_frechet_rotation_invariant():
    a, b = random_fit(seed=5), random_fit(seed=6)
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))
    ra = GaussianFit(q @ a.mean, q @ a.cov @ q.T)
    rb = GaussianFit(q @ b.mean, q @ b.cov @ q.T)
    assert abs(frechet_distance(a, b) - frechet_distance(ra, rb)) < 1e-8


def test_frechet_dim_mismatch():
    with pytest.raises(ValueError, match="dims"):
        frechet_distance(random_fit(dim=3), random_fit(dim=4))


# -- segment-wise protocol ---------------------------------------------------------

def seg_videos(n, length, seed, loc=0.0):
    rng = np.random.default_rng(seed)
    return [loc + rng.uniform(-0.5, 0.5, (length, 2, 2, 1)) for _ in range(n)]


def test_segmentwise_self_evaluation_is_zero():
    videos = seg_videos(6, 48, seed=0)
    ex = extractor()
    out = segmentwise_scores(videos, videos, ex, seg_len=16)
    assert len(out.scores) == 3
    assert all(s < 1e-6 for s in out.scores)
    assert out.average < 1e-6
    assert out.excluded == []


def test_segmentwise_score_count_matches_segments():
    videos = seg_videos(4, 160, seed=1)
    out = segmentwise_scores(videos, seg_videos(4, 16, seed=2), extractor())
    assert len(out.scores) == 10


def test_segmentwise_excludes_short_videos():
    videos = seg_videos(3, 48, seed=3) + [np.zeros((8, 2, 2, 1))]
    out = segmentwise_scores(videos, videos[:3], extractor(), seg_len=16)
    assert out.excluded == [3]


def test_segment_features_rows_are_video_major():
    ex = extractor()
    videos = [seg_videos(1, n, seed=n)[0] for n in (48, 8, 35, 16)]
    rows = segment_features(videos, ex, seg_len=16)
    assert rows.video.tolist() == [0, 0, 0, 2, 2, 3]
    assert rows.position.tolist() == [0, 1, 2, 0, 1, 0]
    assert rows.excluded == [1]
    segments = [videos[i][j * 16:(j + 1) * 16]
                for i, j in zip(rows.video, rows.position)]
    assert np.array_equal(rows.features, ex.features(np.stack(segments)))


def test_one_long_video_against_a_shallow_reference():
    """Every generated position holds one row; positions past the
    reference's depth score against the pooled fit."""
    ex = extractor()
    long = seg_videos(1, 16 * 9 + 5, seed=10)[0]    # 9 positions, 1 row each
    reference = seg_videos(5, 48, seed=11)         # 3 positions
    out = segmentwise_scores([long], reference, ex)
    ref_segments = [[v[j * 16:(j + 1) * 16] for v in reference]
                    for j in range(3)]
    ref_fits = [GaussianFit.from_samples(ex.features(np.stack(g)))
                for g in ref_segments + [sum(ref_segments, [])]]
    want = []
    for j in range(9):
        fit = GaussianFit.from_samples(ex.features(long[None, j * 16:(j + 1) * 16]))
        want.append(frechet_distance(fit, ref_fits[min(j, 3)]))
    assert len(out.scores) == 9
    np.testing.assert_allclose(out.scores, want, rtol=1e-12, atol=0)
    assert out.average == pytest.approx(np.mean(want), rel=1e-12)


def test_segmentwise_short_reference_falls_back_to_pool():
    generated = seg_videos(4, 48, seed=4)          # 3 segment positions
    reference = seg_videos(8, 16, seed=5)          # 1 segment position
    out = segmentwise_scores(generated, reference, extractor())
    assert len(out.scores) == 3
    assert all(np.isfinite(s) and s >= 0 for s in out.scores)


def test_segmentwise_separates_matched_from_noise():
    reference = seg_videos(120, 16, seed=6)
    matched = seg_videos(120, 16, seed=7)          # same distribution
    rng = np.random.default_rng(100)
    noise = [np.sign(rng.standard_normal((16, 2, 2, 1)))
             for _ in range(120)]                  # saturated binary pixels
    ex = extractor()
    self_score = segmentwise_scores(matched, reference, ex).average
    noise_score = segmentwise_scores(noise, reference, ex).average
    assert noise_score > 10 * self_score


def test_segmentwise_error_paths():
    ex = extractor()
    with pytest.raises(ValueError, match="reference"):
        segmentwise_scores(seg_videos(2, 16, 0), [], ex)
    with pytest.raises(ValueError, match="no reference video reaches 16 frames"):
        segmentwise_scores(seg_videos(2, 16, 0), [np.zeros((4, 2, 2, 1))], ex)
    with pytest.raises(ValueError, match="no generated video reaches 16 frames"):
        segmentwise_scores([np.zeros((4, 2, 2, 1))], seg_videos(2, 16, 0), ex)


def test_segmentwise_deterministic():
    videos = seg_videos(4, 48, seed=8)
    ref = seg_videos(4, 16, seed=9)
    a = segmentwise_scores(videos, ref, extractor())
    b = segmentwise_scores(videos, ref, extractor())
    assert a.scores == b.scores


# -- degradation ratio ----------------------------------------------------------------

def test_fvd_ratio_values():
    assert fvd_ratio(5.0, 5.0) == 1.0
    assert abs(fvd_ratio(113.5, 145.9) - 0.778) < 1e-3
    assert abs(fvd_ratio(114.6, 228.6) - 0.501) < 1e-3


def test_fvd_ratio_rejects_bad_scores():
    with pytest.raises(ValueError, match="zero"):
        fvd_ratio(1.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        fvd_ratio(-1.0, 2.0)


# -- diversity score ---------------------------------------------------------------

def test_diversity_uniform_rows():
    value, inter, intra = inception_score(np.full((5, 4), 0.25))
    assert abs(value - 1.0) < 1e-12
    assert abs(inter - LN4) < 1e-12
    assert abs(intra - LN4) < 1e-12


def test_diversity_balanced_one_hot():
    value, inter, intra = inception_score(np.eye(4)[np.arange(8) % 4])
    assert abs(value - 4.0) < 1e-12
    assert abs(inter - LN4) < 1e-12
    assert intra == 0.0


def test_diversity_single_sample_is_one():
    value, inter, intra = inception_score(np.array([[0.7, 0.2, 0.1]]))
    assert abs(value - 1.0) < 1e-12
    assert abs(inter - intra) < 1e-12


def test_diversity_identity_and_kl_oracle():
    rng = np.random.default_rng(10)
    p = rng.dirichlet(np.ones(4) * 0.7, size=50)
    value, inter, intra = inception_score(p)
    assert abs(np.log(value) - (inter - intra)) < 1e-9
    mean = p.mean(axis=0)
    kl = np.mean([(row[row > 0] * np.log(row[row > 0] / mean[row > 0])).sum()
                  for row in p])
    assert abs(np.log(value) - kl) < 1e-9
    assert 1.0 - 1e-12 <= value <= 4.0 + 1e-12


def test_diversity_rejects_invalid_rows():
    with pytest.raises(ValueError, match="probability"):
        inception_score(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError, match="probability"):
        inception_score(np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError):
        inception_score(np.zeros((0, 4)))


# -- probe classifier --------------------------------------------------------------

def blob_data(n_per_class=50, k=4, dim=8, spread=0.4, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim)) * 2.0
    feats, labels = [], []
    for c in range(k):
        feats.append(centers[c] + spread * rng.standard_normal((n_per_class, dim)))
        labels.append(np.full(n_per_class, c))
    order = rng.permutation(k * n_per_class)
    return np.concatenate(feats)[order], np.concatenate(labels)[order]


def accuracy(probe, features, labels):
    return float(np.mean(probe.predict_proba(features).argmax(axis=1) == labels))


def test_probe_outputs_are_distributions():
    probe = ProbeClassifier(8, 4)
    probs = probe.predict_proba(np.random.default_rng(0).standard_normal((9, 8)))
    assert probs.shape == (9, 4)
    assert probs.min() >= 0.0
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_probe_learns_separable_blobs():
    feats, labels = blob_data()
    train_x, hold_x = feats[:160], feats[160:]
    train_y, hold_y = labels[:160], labels[160:]
    probe = train_probe(train_x, train_y, RandomStream.from_seed(0, "probe"),
                        epochs=30)
    assert accuracy(probe, hold_x, hold_y) >= 0.9


def test_probe_deterministic_per_stream():
    feats, labels = blob_data(n_per_class=20)
    a = train_probe(feats, labels, RandomStream.from_seed(3, "p"), epochs=5)
    b = train_probe(feats, labels, RandomStream.from_seed(3, "p"), epochs=5)
    assert all(np.array_equal(x.data, y.data)
               for x, y in zip(a.params, b.params))


def test_probe_label_permutation_hits_chance():
    feats, labels = blob_data()
    rng = np.random.default_rng(5)
    shuffled = labels.copy()
    rng.shuffle(shuffled)
    probe = train_probe(feats[:160], shuffled[:160],
                        RandomStream.from_seed(1, "perm"), epochs=30)
    assert accuracy(probe, feats[160:], labels[160:]) < 0.5


def test_probe_rejects_single_class():
    with pytest.raises(ValueError, match="class"):
        train_probe(np.zeros((10, 4)), np.zeros(10),
                    RandomStream.from_seed(0, "x"))
    with pytest.raises(ValueError, match="class"):
        ProbeClassifier(4, 1)


# -- report files --------------------------------------------------------------------

def test_metric_report_roundtrip(tmp_path):
    path = tmp_path / "report.tsv"
    rows = [("fid", 0, 1.25), ("fid", 1, 2.5), ("is", "-", 3.75)]
    write_metric_report(path, rows)
    back = read_metric_report(path)
    assert back == [("fid", "0", 1.25), ("fid", "1", 2.5), ("is", "-", 3.75)]
    text = path.read_text()
    assert text.startswith("# metric\tsegment\tvalue\n")


def test_metric_report_reads_back_numpy_scalar(tmp_path):
    """A numpy float64 is written as its shortest repr, like a Python float,
    so both read back exactly."""
    path = tmp_path / "report.tsv"
    value = 0.1 + 0.2
    write_metric_report(path, [("a", "-", np.float64(value)), ("b", "-", value)])
    assert read_metric_report(path) == [("a", "-", value), ("b", "-", value)]
    assert path.read_text().count(repr(value)) == 2


# -- probe on the shapes dataset -----------------------------------------------------

def test_probe_recovers_shapes_direction_classes(tmp_path):
    """Features of real dataset clips carry enough signal to classify the
    four motion directions: 400 training videos, 100 held out, >= 90%."""
    import os
    from vidchain.container import load_dataset
    from vidchain.datasets import gen_shapes_dataset

    gen_shapes_dataset(tmp_path, 500, 48, 0)
    videos, labels = load_dataset(os.path.join(tmp_path, "manifest.tsv"))
    clips = np.stack([v[:16] for v in videos])
    feats = FeatureExtractor(16, 256, seed=0).features(clips)
    probe = train_probe(feats[:400], labels[:400],
                        RandomStream.from_seed(0, "shapes-probe"))
    acc = accuracy(probe, feats[400:], labels[400:])
    assert acc >= 0.9, f"holdout accuracy {acc}"
