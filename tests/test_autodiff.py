import threading

import numpy as np
import pytest

from oracle_utils import H, REL_TOL, fd_grad, rel_err
from vidchain import autodiff as ad
from vidchain.autodiff import (GradientError, GradTape, NumericsError, Tensor,
                               backward)
from vidchain.chain import (loss_d_image_r, loss_d_video_merged, loss_d_video_r1,
                            loss_rencg)
from vidchain.losses import loss_d_image, loss_d_video, loss_enc, loss_enc_v, loss_gen
from vidchain.model import COMPONENTS, D_GROUP, ENC_GROUP, GEN_GROUP, ModelBundle
from vidchain.rng import RandomStream

from test_chain import tiny_pairs
from test_losses import TINY, random_clips


def grad_of(build, x0):
    """Autodiff gradient of a scalar-building function w.r.t. one array input."""
    x = Tensor(x0, requires_grad=True)
    with GradTape():
        loss = build(x)
    return backward(loss, [x])[0]


def check_primitive(build, x0):
    """Full-entry finite-difference check of one primitive wrapped in a scalar."""
    an = grad_of(build, x0)
    fd = fd_grad(lambda v: build(Tensor(v, requires_grad=True)).item(), x0)
    assert rel_err(an, fd) < REL_TOL


# -- elementwise primitives ----------------------------------------------------

RS = RandomStream.from_seed(2024)


def weighted(prim):
    """Scalarize a primitive through a fixed random weighting (full Jacobian)."""
    w = Tensor(RS.split(prim.__name__).normal((3, 4)))
    return lambda x: ad.sum(ad.mul(prim(x), w))


def away_from(points, x, margin=0.05):
    """Nudge samples so no entry sits within `margin` of a kink point."""
    for p in points:
        near = np.abs(x - p) < margin
        x = np.where(near, p + 2 * margin, x)
    return x


@pytest.mark.parametrize("prim,sampler", [
    (ad.neg, lambda r: r.normal((3, 4))),
    (ad.square, lambda r: r.normal((3, 4))),
    (ad.tanh, lambda r: r.normal((3, 4), scale=2.0)),
    (ad.sigmoid, lambda r: r.normal((3, 4), scale=3.0)),
    (ad.exp, lambda r: r.normal((3, 4))),
    (ad.log, lambda r: r.uniform((3, 4), 0.5, 3.0)),
])
def test_elementwise_gradients(prim, sampler):
    x0 = sampler(RandomStream.from_seed(11).split(prim.__name__))
    check_primitive(weighted(prim), x0)


def test_clip_gradient_away_from_boundaries():
    x0 = away_from([-1.5, 1.5], RandomStream.from_seed(12).normal((3, 4), scale=3.0))
    check_primitive(weighted(lambda t: ad.clip(t, -1.5, 1.5)), x0)


def test_clip_zeroes_gradient_outside_range():
    g = grad_of(lambda x: ad.sum(ad.clip(x, -1.0, 1.0)), np.array([-2.0, 0.5, 3.0]))
    assert np.array_equal(g, [0.0, 1.0, 0.0])


def test_add_sub_mul_gradients_both_args_with_broadcast():
    r = RandomStream.from_seed(13)
    a0 = r.normal((3, 4))
    b0 = r.normal((1, 4))  # broadcast across rows
    for op in (ad.add, ad.sub, ad.mul):
        w = Tensor(r.normal((3, 4)))
        for side in (0, 1):
            def build(x, side=side, op=op, w=w):
                args = [Tensor(a0), Tensor(b0)]
                args[side] = x
                return ad.sum(ad.mul(op(*args), w))
            x0 = (a0, b0)[side]
            check_primitive(build, x0)


def test_affine_gradients():
    r = RandomStream.from_seed(14)
    x0, w0, b0 = r.normal((5, 3)), r.normal((3, 2)), r.normal(2)
    s = Tensor(r.normal((5, 2)))
    check_primitive(lambda t: ad.sum(ad.mul(ad.affine(t, Tensor(w0), Tensor(b0)), s)), x0)
    check_primitive(lambda t: ad.sum(ad.mul(ad.affine(Tensor(x0), t, Tensor(b0)), s)), w0)
    check_primitive(lambda t: ad.sum(ad.mul(ad.affine(Tensor(x0), Tensor(w0), t), s)), b0)


def mlp2_arrays(seed):
    """x, w0, b0, w1, b1 of a (5, 3) -> 4 -> 2 stack, and an output weighting."""
    r = RandomStream.from_seed(seed)
    return ([r.normal((5, 3)), r.normal((3, 4)), r.normal(4), r.normal((4, 2)),
             r.normal(2)], Tensor(r.normal((5, 2))))


def test_mlp2_gradients():
    arrays, s = mlp2_arrays(18)
    for i in range(5):
        def build(t, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = t
            return ad.sum(ad.mul(ad.mlp2(*args), s))
        check_primitive(build, arrays[i])


@pytest.mark.parametrize("wanted", [range(5), [0], [1, 2, 3, 4], [3]],
                         ids=["all", "x", "weights", "w1"])
def test_mlp2_equals_its_composition_byte_for_byte(wanted):
    """One mlp2 record forms the bytes of affine, tanh, affine: the forward
    output and every requested gradient, whichever inputs are pruned, and
    again in a second backward pass over the same tape."""
    arrays, s = mlp2_arrays(19)
    results, records = [], []
    for stack in (ad.mlp2, lambda x, w0, b0, w1, b1:
                  ad.affine(ad.tanh(ad.affine(x, w0, b0)), w1, b1)):
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        with GradTape() as tape:
            out = stack(*ts)
            losses = ad.sum(ad.mul(out, s)), ad.sum(ad.square(out))
        records.append(len(tape.records))
        results.append([out.data] + [g for loss in losses for g in
                                     backward(loss, [ts[i] for i in wanted])])
    assert records == [5, 7]
    fused, composed = results
    assert all(np.array_equal(a, b) for a, b in zip(fused, composed))


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
def test_reduction_gradients(axis, keepdims):
    r = RandomStream.from_seed(15)
    x0 = r.normal((4, 3))
    for red in (ad.sum, ad.mean):
        def build(t, red=red):
            out = red(t, axis=axis, keepdims=keepdims)
            w = Tensor(np.linspace(0.5, 1.5, out.size).reshape(out.shape))
            return ad.sum(ad.mul(out, w))
        check_primitive(build, x0)


def test_reshape_concat_slice_gradients():
    r = RandomStream.from_seed(16)
    x0 = r.normal((2, 6))
    w = Tensor(r.normal((3, 4)))
    check_primitive(lambda t: ad.sum(ad.mul(ad.reshape(t, (3, 4)), w)), x0)

    a0, b0 = r.normal((2, 3)), r.normal((2, 3))
    wc = Tensor(r.normal((4, 3)))
    check_primitive(lambda t: ad.sum(ad.mul(ad.concat([t, Tensor(b0)], axis=0), wc)), a0)
    check_primitive(lambda t: ad.sum(ad.mul(ad.concat([Tensor(a0), t], axis=0), wc)), b0)

    z0 = r.normal((4, 5))
    ws = Tensor(r.normal((2, 3)))
    check_primitive(lambda t: ad.sum(ad.mul(t[1:3, ::2], ws)), z0)
    check_primitive(lambda t: ad.sum(ad.square(t[2])), z0)


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_cumsum_gradient(axis):
    r = RandomStream.from_seed(17)
    x0 = r.normal((3, 4))
    w = Tensor(r.normal((3, 4)))
    check_primitive(lambda t: ad.sum(ad.mul(ad.cumsum(t, axis), w)), x0)


def test_advanced_index_slice_gradient():
    r = RandomStream.from_seed(18)
    x0 = r.normal((3, 4, 2))
    w = Tensor(r.normal((3, 2)))
    rows, cols = np.arange(3), np.array([2, 0, 3])
    check_primitive(lambda t: ad.sum(ad.mul(t[rows, cols], w)), x0)


@pytest.mark.parametrize("idx", [np.array([0, 0]), [2, 0, 2],
                                 (np.array([1, 1]), np.array([3, 3]))])
def test_advanced_index_selecting_a_position_twice_has_no_gradient(idx):
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with GradTape():
        picked = x[idx]                   # the forward pass still selects
        loss = ad.sum(picked)
    assert np.array_equal(picked.data, x.data[idx])
    with pytest.raises(GradientError, match="slice"):
        backward(loss, [x])


def test_advanced_index_selecting_distinct_positions_keeps_its_gradient():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with GradTape():
        loss = ad.sum(x[np.array([0, 2, 1]), np.array([1, 1, 1])])
    expected = np.zeros((3, 4))
    expected[:, 1] = 1.0
    assert np.array_equal(backward(loss, [x])[0], expected)


# -- the finite invariant ---------------------------------------------------------

BIG, TINY_SUBNORMAL = 1.7e308, 5e-324
EXTREMES = np.array([[BIG, -BIG, TINY_SUBNORMAL, -TINY_SUBNORMAL],
                     [-BIG, TINY_SUBNORMAL, BIG, 0.0],
                     [1.0, -TINY_SUBNORMAL, -BIG, BIG]])

# primitives that skip the output check: finite inputs give finite outputs
FINITE_PRESERVING = {
    "neg": ad.neg,
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
    "clip": lambda t: ad.clip(t, -1.0, 1.0),
    "clip-extreme-bounds": lambda t: ad.clip(t, -BIG, BIG),
    "reshape": lambda t: ad.reshape(t, (4, 3)),
    "concat": lambda t: ad.concat([t, ad.neg(t)], axis=1),
    "slice": lambda t: t[1:, ::-2],
    "slice-advanced": lambda t: t[np.array([2, 0]), np.array([3, 1])],
}


@pytest.mark.parametrize("name", sorted(FINITE_PRESERVING))
def test_unchecked_primitives_keep_extreme_finite_inputs_finite(name):
    x = Tensor(EXTREMES, requires_grad=True)
    with np.errstate(under="ignore"):
        with GradTape():
            out = FINITE_PRESERVING[name](x)
            loss = ad.sum(ad.mul(out, 0.0))
        grad = backward(loss, [x])[0]
    assert np.isfinite(out.data).all()
    assert np.isfinite(grad).all()


# primitives that check their output: each input is finite, the result is not
OVERFLOWING = {
    "add": lambda: ad.add(Tensor([BIG]), Tensor([BIG])),
    "sub": lambda: ad.sub(Tensor([BIG]), Tensor([-BIG])),
    "mul": lambda: ad.mul(Tensor([BIG]), 2.0),
    "square": lambda: ad.square(Tensor([-BIG])),
    "mean": lambda: ad.mean(Tensor([BIG, BIG])),
    "sum": lambda: ad.sum(Tensor([BIG, BIG])),
    "cumsum": lambda: ad.cumsum(Tensor([BIG, 1.0, BIG]), axis=0),
    "affine": lambda: ad.affine(Tensor([[BIG, BIG]]), Tensor(np.ones((2, 1))),
                                Tensor([0.0])),
    # the output overflows; then only the hidden pre-activation, which tanh
    # alone would turn into a finite ±1
    "mlp2": lambda: ad.mlp2(Tensor([[1.0]]), Tensor([[1.0, 1.0]]),
                            Tensor([0.0, 0.0]), Tensor([[BIG], [BIG]]),
                            Tensor([0.0])),
    "mlp2-hidden": lambda: ad.mlp2(Tensor([[BIG, BIG]]), Tensor(np.ones((2, 1))),
                                   Tensor([0.0]), Tensor([[1.0]]), Tensor([0.0])),
    "exp": lambda: ad.exp(Tensor([710.0])),
    "log": lambda: ad.log(Tensor([0.0])),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_checked_primitives_raise_on_overflow(name):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match=f"'{name.split('-')[0]}'"):
            OVERFLOWING[name]()


def test_python_float_constants():
    x = Tensor([2.0, -4.0])
    assert np.array_equal((0.5 * x).data, [1.0, -2.0])
    assert np.array_equal((1.0 - x).data, [-1.0, 5.0])
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(NumericsError, match="tensor"):
            ad.mul(bad, x)


# -- backward semantics ---------------------------------------------------------

def test_polynomial_derivative():
    g = grad_of(lambda x: ad.sum(ad.square(x)), np.array([3.0]))
    assert abs(g[0] - 6.0) < 1e-12


def test_sigmoid_net_matches_finite_differences():
    r = RandomStream.from_seed(17)
    w0 = r.normal((4, 4))
    v = Tensor(r.normal((4, 1)))
    build = lambda W: ad.sum(ad.sigmoid(ad.affine(W, v, Tensor(np.zeros(1)))))
    an = grad_of(build, w0)
    fd = fd_grad(lambda W: build(Tensor(W, requires_grad=True)).item(), w0, h=H)
    assert rel_err(an, fd) < REL_TOL


def test_untouched_parameter_gets_zero_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor(np.ones((3, 3)), requires_grad=True)
    with GradTape():
        loss = ad.sum(ad.square(x))
    gx, gu = backward(loss, [x, unused])
    assert np.array_equal(gu, np.zeros((3, 3)))
    assert np.array_equal(gx, [2.0, 4.0])


def test_gradient_accumulates_across_multiple_uses():
    # loss = sum((x + x) * x) = 2 * sum(x^2)  =>  grad 4x
    x = Tensor([1.0, -2.0], requires_grad=True)
    with GradTape():
        loss = ad.sum(ad.mul(ad.add(x, x), x))
    g = backward(loss, [x])[0]
    assert np.allclose(g, [4.0, -8.0])


def test_gradient_accumulation_never_writes_into_a_returned_gradient():
    # t = u + v hands its upstream gradient to u and to v as one array; u's
    # later contributions, from w1 and w2, must not land in v's gradient.
    # With the third, u's sum is added into in place.
    x = Tensor([1.0, -2.0], requires_grad=True)
    c, d, e = np.array([3.0, 5.0]), np.array([7.0, 11.0]), np.array([13.0, 17.0])
    with GradTape():
        u, v = ad.mul(x, 2.0), ad.mul(x, 3.0)
        w1, w2 = ad.mul(u, d), ad.mul(u, e)
        t = ad.add(u, v)
        loss = ad.add(ad.add(ad.sum(ad.mul(t, c)), ad.sum(w1)), ad.sum(w2))
    g = backward(loss, [x])[0]
    assert np.array_equal(g, 2.0 * (c + e + d) + 3.0 * c)


def test_weight_reached_by_three_mlp2_records_sums_in_replay_order():
    # w1's first contribution, a fresh GEMM output, becomes the accumulator;
    # the sum must still be the one formed by hand, last record first
    arrays, _ = mlp2_arrays(20)
    r = RandomStream.from_seed(21)
    xs = [r.normal((5, 3)) for _ in range(3)]
    ss = [r.normal((5, 2)) for _ in range(3)]
    w0, b0, w1, b1 = arrays[1:]
    w1_t = Tensor(w1, requires_grad=True)
    with GradTape():
        outs = [ad.sum(ad.mul(ad.mlp2(Tensor(x), Tensor(w0), Tensor(b0), w1_t,
                                      Tensor(b1)), Tensor(s)))
                for x, s in zip(xs, ss)]
        loss = ad.add(ad.add(outs[0], outs[1]), outs[2])
    g = backward(loss, [w1_t])[0]
    parts = [np.tanh(x @ w0 + b0).T @ s for x, s in zip(xs, ss)]
    assert np.array_equal(g, (parts[2] + parts[1]) + parts[0])


def test_upstream_arrays_and_views_are_summed_but_never_written():
    # x gets, in replay order, a view of s's upstream array from reshape and
    # then t's upstream array itself from add, twice.  Writing into the view
    # would change y's gradient, which q reads from s's upstream array last.
    r = RandomStream.from_seed(22)
    a, b, e = r.normal((2, 3)), r.normal((3, 2)), r.normal((3, 2))
    x = Tensor(r.normal((2, 3)), requires_grad=True)
    y = Tensor(r.normal((3, 2)), requires_grad=True)
    with GradTape():
        q = ad.mul(y, Tensor(e))
        via_add = ad.sum(ad.mul(ad.add(x, x), Tensor(a)))
        s = ad.add(ad.reshape(x, (3, 2)), q)
        loss = ad.add(via_add, ad.sum(ad.mul(s, Tensor(b))))
    gx, gy = backward(loss, [x, y])
    ga, gb = np.ones((2, 3)) * a, np.ones((3, 2)) * b
    assert np.array_equal(gx, (gb.reshape(2, 3) + ga) + ga)
    assert np.array_equal(gy, gb * e)


def test_non_scalar_loss_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape():
        out = ad.square(x)
    with pytest.raises(GradientError, match="scalar"):
        backward(out, [x])


def test_non_parameter_rejected():
    x = Tensor([1.0], requires_grad=True)
    c = Tensor([1.0])
    with GradTape():
        loss = ad.sum(x)
    with pytest.raises(GradientError):
        backward(loss, [x, c])


def test_forward_nonfinite_is_an_error_naming_the_primitive():
    with pytest.raises(NumericsError, match="log"):
        ad.log(Tensor([0.0]))
    with pytest.raises(NumericsError, match="exp"):
        ad.exp(Tensor([1000.0]))


def test_backward_nonfinite_reports_producing_primitive():
    # exp(x)^3 at x=236.4: forward stays below the float64 ceiling, but the
    # gradient 3*exp(3x) overflows while replaying the exp record.
    x = Tensor([236.4], requires_grad=True)
    with GradTape():
        e = ad.exp(x)
        loss = ad.sum(ad.mul(ad.mul(e, e), e))
    with pytest.raises(GradientError, match="exp"):
        backward(loss, [x])


def test_backward_skips_nonfinite_branch_reaching_no_parameter():
    # the exp branch overflows on replay (as above), but only y depends on it
    x = Tensor([1.5, -0.5], requires_grad=True)
    y = Tensor([236.4], requires_grad=True)
    with GradTape():
        e = ad.exp(y)
        loss = ad.add(ad.sum(ad.square(x)), ad.sum(ad.mul(ad.mul(e, e), e)))
        gx = backward(loss, [x])[0]
        with pytest.raises(GradientError, match="exp"):
            backward(loss, [x, y])
    assert np.array_equal(gx, [3.0, -1.0])


def test_backward_runs_only_vjps_of_live_inputs():
    x = Tensor(RS.split("vjp-x").normal((4, 3)))
    w = Tensor(RS.split("vjp-w").normal((3, 2)), requires_grad=True)
    b = Tensor(RS.split("vjp-b").normal(2), requires_grad=True)
    y = Tensor(RS.split("vjp-y").normal((4, 2)), requires_grad=True)
    with GradTape() as tape:
        loss = ad.sum(ad.mul(ad.affine(x, w, b), y))
    called = []

    def spy(op, i, vjp):
        def wrapped(g):
            called.append((op, i))
            return vjp(g)
        return wrapped

    for rec in tape.records:
        rec.vjps = tuple(spy(rec.op, i, f) for i, f in enumerate(rec.vjps))
    (gw,) = backward(loss, [w])
    # x is a constant, and neither b nor y is requested
    assert sorted(called) == [("affine", 1), ("mul", 0), ("sum", 0)]
    assert np.array_equal(gw, x.data.T @ y.data)


def _total(*losses):
    """A loss builder summing the totals of `losses`, each on its own stream."""
    def build(bundle, batch, stream):
        totals = [fn(bundle, batch, stream.split(fn.__name__)).total
                  for fn in losses]
        return totals[0] if len(totals) == 1 else ad.add(*totals)
    return build


# every loss a training step differentiates: (builder, batch of clips or pairs)
STEP_LOSSES = {
    "clip-d": (_total(loss_d_image, loss_d_video), "clips"),
    "clip-enc": (_total(loss_enc), "clips"),
    "clip-enc-diff": (_total(loss_enc_v), "clips"),
    "clip-gen": (_total(loss_gen), "clips"),
    "recall-d-merged": (_total(loss_d_image_r, loss_d_video_merged), "pairs"),
    "recall-d-r1": (_total(loss_d_image_r, loss_d_video_r1), "pairs"),
    "recall-joint": (_total(loss_rencg), "pairs"),
}


@pytest.mark.parametrize("name", sorted(STEP_LOSSES))
def test_group_backward_equals_slice_of_full_backward(name):
    build, kind = STEP_LOSSES[name]
    bundle = ModelBundle.init(TINY)
    batch = random_clips() if kind == "clips" else tiny_pairs()[:TINY.batch]
    everything = bundle.params(COMPONENTS)
    with GradTape():
        loss = build(bundle, batch, RandomStream.from_seed(7, name))
        full = dict(zip(map(id, everything), backward(loss, everything)))
        for group in (D_GROUP, ENC_GROUP, GEN_GROUP, ENC_GROUP + GEN_GROUP):
            params = bundle.params(group)
            for p, g in zip(params, backward(loss, params), strict=True):
                assert np.array_equal(g, full[id(p)])
    assert any(np.any(g != 0) for g in full.values())


def test_tensors_are_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_constructor_rejects_nonfinite():
    with pytest.raises(NumericsError):
        Tensor([np.nan])
    with pytest.raises(NumericsError):
        Tensor([np.inf])


def test_ops_outside_tape_are_not_recorded():
    x = Tensor([1.0], requires_grad=True)
    y = ad.square(x)  # no active tape
    assert y._tape is None
    with GradTape() as tape:
        z = ad.square(x)
    assert len(tape.records) == 1 and z._tape is tape


def test_tape_is_confined_to_its_thread():
    x = Tensor([1.0], requires_grad=True)
    seen = []

    def other():
        seen.append(ad.square(x)._tape)

    with GradTape() as tape:
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=10)
        z = ad.square(x)
    assert not worker.is_alive()
    assert seen == [None]
    assert len(tape.records) == 1 and z._tape is tape


def test_tape_released_on_exit_after_backward():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        loss = ad.sum(ad.square(x))
        first = backward(loss, [x])[0]
        again = backward(loss, [x])[0]      # still open: replays again
    assert np.array_equal(first, again)
    assert tape.records is None
    with pytest.raises(GradientError, match="released"):
        backward(loss, [x])


def test_loss_with_no_tracked_path_gives_zeros():
    x = Tensor([1.0], requires_grad=True)
    with GradTape():
        loss = ad.sum(ad.square(Tensor([3.0])))
    assert np.array_equal(backward(loss, [x])[0], [0.0])
