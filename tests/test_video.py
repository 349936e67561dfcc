import numpy as np
import pytest

from vidchain.rng import RandomStream
from vidchain.video import (LongVideo, decompose, reconstruct,
                            reconstruct_from_reference, segment_nonoverlapping,
                            segment_overlapping, stitch)


def random_clip(stream, t=16, h=4, w=4, c=1):
    """Random clip on the float32 grid: differences and running sums are then
    exactly representable at 64-bit, making roundtrips bit-exact."""
    return stream.normal((t, h, w, c)).astype(np.float32).astype(np.float64)


def pix(*values):
    """1-pixel clip from scalars."""
    return np.array(values, dtype=np.float64).reshape(-1, 1, 1, 1)


# -- decompose / reconstruct ----------------------------------------------------

def test_constant_clip_has_zero_motion():
    clip = np.ones((5, 2, 2, 1)) * 0.25
    content, motion = decompose(clip)
    assert np.array_equal(content, clip[0])
    assert np.array_equal(motion, np.zeros((4, 2, 2, 1)))


def test_decompose_hand_example():
    content, motion = decompose(pix(0.0, 0.5, 0.3))
    assert content.reshape(()) == 0.0
    assert np.allclose(motion.reshape(-1), [0.5, -0.2])


def test_reconstruct_zero_motion_repeats_content():
    content = np.full((3, 3, 1), 0.7)
    clip = reconstruct(content, np.zeros((9, 3, 3, 1)))
    assert clip.shape == (10, 3, 3, 1)
    assert np.array_equal(clip, np.broadcast_to(content, clip.shape))


def test_reconstruct_hand_example():
    content = np.full((1, 1, 1), 0.1)
    motion = pix(0.2, 0.2)[:2]
    clip = reconstruct(content, motion)
    assert np.allclose(clip.reshape(-1), [0.1, 0.3, 0.5])


def test_roundtrip_exact_on_100_random_clips():
    r = RandomStream.from_seed(42)
    for _ in range(100):
        clip = random_clip(r)
        content, motion = decompose(clip)
        assert np.array_equal(reconstruct(content, motion), clip)


def test_inverse_roundtrip_recovers_content_and_motion_exactly():
    r = RandomStream.from_seed(43)
    for _ in range(100):
        content = r.normal((4, 4, 1)).astype(np.float32).astype(np.float64)
        motion = r.normal((7, 4, 4, 1)).astype(np.float32).astype(np.float64)
        c2, m2 = decompose(reconstruct(content, motion))
        assert np.array_equal(c2, content)
        assert np.array_equal(m2, motion)


def test_decompose_rejects_short_or_misshaped_clips():
    with pytest.raises(ValueError):
        decompose(np.zeros((1, 2, 2, 1)))
    with pytest.raises(ValueError):
        decompose(np.zeros((4, 2, 2)))


def test_reconstruct_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        reconstruct(np.zeros((2, 2, 1)), np.zeros((3, 2, 3, 1)))


# -- reconstruct_from_reference ---------------------------------------------------

def test_reference_at_one_equals_reconstruct():
    r = RandomStream.from_seed(44)
    content = random_clip(r, t=1)[0]
    motion = random_clip(r, t=8)[:7]
    assert np.array_equal(reconstruct_from_reference(content, 1, motion),
                          reconstruct(content, motion))


def test_reference_hand_example():
    ref = np.full((1, 1, 1), 5.0)
    motion = pix(2.0, -1.0)[:2]
    clip = reconstruct_from_reference(ref, 2, motion)
    assert np.allclose(clip.reshape(-1), [3.0, 5.0, 4.0])


def test_reference_roundtrip_motion_exact_for_every_r():
    r = RandomStream.from_seed(45)
    t_c = 8
    ref = r.normal((4, 4, 1)).astype(np.float32).astype(np.float64)
    motion = r.normal((t_c - 1, 4, 4, 1)).astype(np.float32).astype(np.float64)
    for ridx in range(1, t_c + 1):
        clip = reconstruct_from_reference(ref, ridx, motion)
        assert np.array_equal(clip[ridx - 1], ref)
        assert np.array_equal(decompose(clip)[1], motion)


def test_reference_invariance_chain_consistency():
    # Pinning any frame of the first result at its own index must rebuild the
    # same clip.
    r = RandomStream.from_seed(46)
    motion = r.normal((7, 2, 2, 1)).astype(np.float32).astype(np.float64)
    ref = r.normal((2, 2, 1)).astype(np.float32).astype(np.float64)
    base = reconstruct_from_reference(ref, 3, motion)
    for s in range(1, 9):
        again = reconstruct_from_reference(base[s - 1], s, motion)
        assert np.array_equal(again, base)


def _walk_from_reference(ref, r, motion):
    """The frame-by-frame recursion: subtract diffs backward from the
    reference, add them forward."""
    out = np.empty((len(motion) + 1,) + ref.shape, np.result_type(ref, motion))
    out[r - 1] = ref
    for i in range(r - 2, -1, -1):
        out[i] = out[i + 1] - motion[i]
    for i in range(r, len(out)):
        out[i] = out[i - 1] + motion[i - 1]
    return out


@pytest.mark.parametrize("ref_dtype,motion_dtype", [
    (np.float32, np.float32), (np.float64, np.float64),
    (np.float32, np.float64), (np.float64, np.float32)])
def test_reference_running_sums_equal_the_walk_bit_for_bit(ref_dtype,
                                                           motion_dtype):
    # off the float32 grid, so every addition rounds
    rng = np.random.default_rng(47)
    for _ in range(40):
        t_c = int(rng.integers(1, 10))
        ref = rng.standard_normal((3, 2, 1)).astype(ref_dtype)
        motion = (rng.standard_normal((t_c - 1, 3, 2, 1))
                  * 10.0 ** rng.integers(-3, 4)).astype(motion_dtype)
        for ridx in range(1, t_c + 1):
            got = reconstruct_from_reference(ref, ridx, motion)
            want = _walk_from_reference(ref, ridx, motion)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_reference_index_out_of_range():
    motion = np.zeros((3, 2, 2, 1))
    for bad in (0, 5):
        with pytest.raises(ValueError):
            reconstruct_from_reference(np.zeros((2, 2, 1)), bad, motion)


# -- stitch -----------------------------------------------------------------------

def test_stitch_single_clip_is_identity():
    clip = random_clip(RandomStream.from_seed(47), t=6)
    video = stitch([clip], r=3)
    assert len(video) == 6
    assert np.array_equal(video.frames, clip)


def test_stitch_hand_example():
    a = pix(*range(1, 5))
    b = pix(*range(11, 15))
    video = stitch([a, b], r=2)
    assert len(video) == 6
    assert np.allclose(video.frames.reshape(-1), [1, 2, 11, 12, 13, 14])


def test_stitch_three_sixteen_frame_clips_at_stride_eight():
    clips = [random_clip(RandomStream.from_seed(i), t=16) for i in range(3)]
    assert len(stitch(clips, r=8)) == 32


def test_stitch_length_formula_on_200_random_geometries():
    r = RandomStream.from_seed(48)
    for _ in range(200):
        t_c = int(r.integers(2, 33))
        stride = int(r.integers(1, t_c))
        n = int(r.integers(1, 11))
        clips = [np.full((t_c, 1, 1, 1), float(j)) for j in range(n)]
        assert len(stitch(clips, stride)) == (n - 1) * stride + t_c


def test_every_stitched_frame_comes_from_an_input_clip():
    r = RandomStream.from_seed(49)
    clips = [random_clip(r, t=5, h=2, w=2) for _ in range(4)]
    video = stitch(clips, r=2)
    pool = np.concatenate(clips)
    for frame in video.frames:
        assert any(np.array_equal(frame, f) for f in pool)


def test_stitch_errors():
    with pytest.raises(ValueError):
        stitch([], r=2)
    with pytest.raises(ValueError):
        stitch([np.zeros((4, 2, 2, 1)), np.zeros((5, 2, 2, 1))], r=2)
    with pytest.raises(ValueError):
        stitch([np.zeros((4, 2, 2, 1))], r=4)


def test_long_video_geometry_validated():
    with pytest.raises(ValueError):
        LongVideo(np.zeros((10, 1, 1, 1)), clip_count=2, stride=8, clip_len=16)


# -- segmentation -------------------------------------------------------------------

def test_overlapping_segmentation_offsets():
    video = np.arange(32, dtype=np.float64).reshape(32, 1, 1, 1)
    clips = segment_overlapping(video, t_c=16, r=8)
    assert len(clips) == 3
    for k, clip in enumerate(clips):
        assert clip[0].reshape(()) == 8.0 * k


def test_video_of_exactly_one_clip():
    video = np.zeros((16, 2, 2, 1))
    assert len(segment_overlapping(video, 16, 8)) == 1


def test_segmentation_inverts_stitch_for_overlap_consistent_clips():
    # Clips cut from one long video are overlap-consistent by construction;
    # stitching them back and re-segmenting returns them bit-exactly.
    r = RandomStream.from_seed(50)
    video = r.normal((40, 2, 2, 1)).astype(np.float32).astype(np.float64)
    clips = segment_overlapping(video, t_c=16, r=8)
    back = segment_overlapping(stitch(clips, 8).frames, t_c=16, r=8)
    assert len(back) == len(clips)
    for a, b in zip(clips, back):
        assert np.array_equal(a, b)


def test_overlapping_segmentation_errors():
    with pytest.raises(ValueError):
        segment_overlapping(np.zeros((8, 1, 1, 1)), t_c=16, r=8)


def test_nonoverlapping_counts():
    assert len(segment_nonoverlapping(np.zeros((160, 1, 1, 1)), 16)) == 10
    assert len(segment_nonoverlapping(np.zeros((30, 1, 1, 1)), 16)) == 1


def test_nonoverlapping_partition_property():
    video = np.arange(45, dtype=np.float64).reshape(45, 1, 1, 1)
    segs = segment_nonoverlapping(video, 16)
    assert np.array_equal(np.concatenate(segs), video[:32])


def test_nonoverlapping_is_one_view_of_the_video():
    video = np.arange(45 * 4, dtype=np.float64).reshape(45, 2, 2, 1)
    segs = segment_nonoverlapping(video, 16)
    assert segs.shape == (2, 16, 2, 2, 1)
    assert np.shares_memory(segs, video)
    assert np.array_equal(segs[1], video[16:32])


def test_nonoverlapping_too_short():
    with pytest.raises(ValueError):
        segment_nonoverlapping(np.zeros((15, 1, 1, 1)), 16)
