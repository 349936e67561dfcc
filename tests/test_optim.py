import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from vidchain import optim
from vidchain.autodiff import NumericsError, Tensor
from vidchain.config import RunConfig
from vidchain.model import OPT_GROUPS, ModelBundle
from vidchain.optim import BLOCK, AdamState, adam_step
from vidchain.rng import RandomStream


def reference_adam(p0, grads, lr=2e-4, b1=0.5, b2=0.999, eps=1e-8):
    """Independent textbook Adam loop used as the second route."""
    p = np.array(p0, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return p


def allocating_adam(p0, grads, lr, b1, b2, eps):
    """Per step (p, m, v) from fresh-array expressions in the float64 order
    adam_step's in-place arithmetic must reproduce bit for bit."""
    p = np.array(p0, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        yield p, m, v


def test_first_step_closed_form():
    state = AdamState(lr=2e-4, beta1=0.5, beta2=0.999, eps=1e-8)
    (p,) = adam_step(state, [Tensor([0.0], requires_grad=True)], [np.array([1.0])])
    expected = -2e-4 * (1.0 / (1.0 + 1e-8))
    assert abs(p.data[0] - expected) < 1e-18
    assert state.step == 1


def test_zero_gradient_leaves_parameters_and_moments_untouched():
    state = AdamState()
    p = Tensor([0.3, -0.7], requires_grad=True)
    for _ in range(5):
        (p,) = adam_step(state, [p], [np.zeros(2)])
    assert np.array_equal(p.data, [0.3, -0.7])
    assert np.array_equal(state.m[0], np.zeros(2))
    assert np.array_equal(state.v[0], np.zeros(2))
    assert state.step == 5


def test_identical_gradients_give_identical_updates():
    state = AdamState()
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([1.0], requires_grad=True)
    g = np.array([0.37])
    a2, b2 = adam_step(state, [a, b], [g, g.copy()])
    assert np.array_equal(a2.data, b2.data)


def test_bit_identical_across_runs():
    r = RandomStream.from_seed(99)
    p0 = r.normal((4, 3))
    gs = [r.normal((4, 3)) for _ in range(7)]

    def run():
        state = AdamState(lr=1e-2)
        p = Tensor(p0, requires_grad=True)
        for g in gs:
            (p,) = adam_step(state, [p], [g])
        return p.data

    assert np.array_equal(run(), run())


def test_matches_reference_implementation():
    r = RandomStream.from_seed(5)
    p0 = r.normal(6)
    gs = [r.normal(6) for _ in range(10)]
    state = AdamState(lr=3e-3, beta1=0.9, beta2=0.98, eps=1e-7)
    p = Tensor(p0, requires_grad=True)
    for g in gs:
        (p,) = adam_step(state, [p], [g])
    want = reference_adam(p0, gs, lr=3e-3, b1=0.9, b2=0.98, eps=1e-7)
    assert np.allclose(p.data, want, rtol=0, atol=1e-15)


def test_shape_mismatch_rejected():
    state = AdamState()
    with pytest.raises(ValueError):
        adam_step(state, [Tensor([0.0], requires_grad=True)], [np.zeros(2)])


def test_in_place_update_equals_allocating_expressions_bit_for_bit():
    r = RandomStream.from_seed(8)
    # the large shapes are split between the two threads: (3, BLOCK//2 + 5)
    # and BLOCK + 1 into a full block and a partial one, 2*BLOCK into two
    # full blocks, and the odd 5*BLOCK + 12345 elements into three full
    # blocks and two full blocks and a partial one
    shapes = [(5, 3), (3,), (2, 4), (3, BLOCK // 2 + 5), (BLOCK + 1,),
              (2 * BLOCK,), (5, (5 * BLOCK + 12345) // 5)]
    p0 = [r.split(f"p{i}").normal(s) for i, s in enumerate(shapes)]
    gs = [[r.split(f"g{t}.{i}").normal(s, scale=10.0 ** (t % 5 - 2))
           for i, s in enumerate(shapes)] for t in range(12)]
    state = AdamState(lr=3e-3, beta1=0.5, beta2=0.999, eps=1e-8)
    params = [Tensor(p, requires_grad=True) for p in p0]
    refs = [allocating_adam(p0[i], [g[i] for g in gs], 3e-3, 0.5, 0.999, 1e-8)
            for i in range(len(shapes))]
    for g in gs:
        params = adam_step(state, params, g)
        for i, (p, m, v) in enumerate(next(ref) for ref in refs):
            assert params[i].requires_grad
            assert np.array_equal(params[i].data, p)
            assert np.array_equal(state.m[i], m)
            assert np.array_equal(state.v[i], v)


def test_non_finite_in_the_second_threads_share_raises_and_later_calls_match():
    r = RandomStream.from_seed(9)
    p0 = r.split("p").normal(2 * BLOCK)
    g = np.zeros(2 * BLOCK)
    g[-1] = np.nan      # past the cut at BLOCK: only the second thread sees it
    with pytest.raises(NumericsError, match="adam_step"):
        adam_step(AdamState(), [Tensor(p0, requires_grad=True)], [g])

    gs = [r.split(f"g{t}").normal(2 * BLOCK) for t in range(3)]
    state = AdamState(lr=3e-3)
    p = Tensor(p0, requires_grad=True)
    for g, (want, m, v) in zip(gs, allocating_adam(p0, gs, 3e-3, 0.5, 0.999, 1e-8)):
        (p,) = adam_step(state, [p], [g])
        assert np.array_equal(p.data, want)
        assert np.array_equal(state.m[0], m)
        assert np.array_equal(state.v[0], v)


def test_second_thread_holds_no_array_after_the_call():
    # the second half's block views would keep the gradient and the old
    # parameter alive: about one parameter group's size in every training step
    g = np.ones(2 * BLOCK)
    p = Tensor(np.zeros(2 * BLOCK), requires_grad=True)
    refs = weakref.ref(g), weakref.ref(p.data)
    adam_step(AdamState(), [p], [g])
    del g, p
    assert [ref() for ref in refs] == [None, None]


def test_a_call_that_splits_leaves_no_thread_behind():
    # in a fresh process, so that no earlier call has started anything
    code = ("import threading, numpy as np\n"
            "from vidchain.autodiff import Tensor\n"
            "from vidchain.optim import BLOCK, AdamState, adam_step\n"
            "before = threading.enumerate()\n"
            "adam_step(AdamState(), [Tensor(np.zeros(2 * BLOCK))],"
            " [np.ones(2 * BLOCK)])\n"
            "print(threading.enumerate() == before)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True"]


def test_a_call_of_at_most_one_block_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("started a thread for one block's elements")

    monkeypatch.setattr(optim.threading, "Thread", refuse)
    # two parameters whose elements together fill one block
    params = [Tensor(np.zeros(BLOCK - 8), requires_grad=True),
              Tensor(np.zeros((2, 4)), requires_grad=True)]
    adam_step(AdamState(), params, [np.ones(BLOCK - 8), np.ones((2, 4))])


@pytest.mark.parametrize("opt_name", list(OPT_GROUPS))
def test_each_thread_updates_half_of_a_groups_elements(monkeypatch, opt_name):
    """The two threads' shares of a default-model optimizer group differ by
    at most one block."""
    shares = {}
    kernel = optim._update

    def counting(blocks, coef):
        ident = threading.get_ident()
        shares[ident] = shares.get(ident, 0) + sum(b[4].size for b in blocks)
        kernel(blocks, coef)

    monkeypatch.setattr(optim, "_update", counting)
    params = ModelBundle.init(RunConfig()).params(OPT_GROUPS[opt_name])
    adam_step(AdamState(), params, [np.ones(p.shape) for p in params])
    assert len(shares) == 2
    assert sum(shares.values()) == sum(p.data.size for p in params)
    mine, theirs = shares.pop(threading.get_ident()), shares.popitem()[1]
    assert abs(mine - theirs) <= BLOCK, (mine, theirs)
