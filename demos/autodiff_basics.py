"""A tour of the tensor engine: taped operations, gradients, and Adam.

The package trains its models with a small reverse-mode engine built on
float64 numpy arrays.  This script walks through the three moves every
training loop makes — record, differentiate, update — on a problem tiny
enough to verify by hand: fitting a line to noisy points.
"""

import numpy as np

from vidchain import Tensor, backward
from vidchain import autodiff as ad
from vidchain.optim import AdamState, adam_step


def gradient_by_hand():
    """d/dw of sum((w*x - y)^2) has the textbook form 2*x'(w*x - y)."""
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([[2.0], [4.0], [6.0]])
    w = Tensor(np.array([[0.5]]), requires_grad=True)
    with ad.GradTape():
        pred = ad.affine(Tensor(x), w, Tensor(np.zeros(1)))
        loss = ad.sum(ad.square(ad.sub(pred, Tensor(y))))
        grads = backward(loss, [w])
    manual = 2.0 * x.T @ (x @ w.data - y)
    print(f"taped gradient   {grads[0].ravel()}")
    print(f"manual gradient  {manual.ravel()}")
    assert np.allclose(grads[0], manual)


def fit_a_line():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 1))
    y = 3.0 * x - 1.0 + 0.05 * rng.normal(size=(64, 1))

    w = Tensor(np.zeros((1, 1)), requires_grad=True)
    b = Tensor(np.zeros((1,)), requires_grad=True)
    opt = AdamState(lr=0.1)
    for step in range(200):
        with ad.GradTape():
            pred = ad.affine(Tensor(x), w, b)
            loss = ad.mean(ad.square(ad.sub(pred, Tensor(y))))
            grads = backward(loss, [w, b])
        w, b = adam_step(opt, [w, b], grads)
        if step % 50 == 0 or step == 199:
            print(f"step {step:3d}  mse={loss.item():8.5f}  "
                  f"w={w.item():6.3f}  b={b.item():6.3f}")
    assert abs(w.item() - 3.0) < 0.05
    assert abs(b.item() + 1.0) < 0.05


def finite_difference_check():
    """The same check the test suite leans on: nudge a parameter along a
    random direction and compare the taped directional derivative against
    (f(p+h) - f(p-h)) / 2h."""
    rng = np.random.default_rng(1)
    p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = rng.normal(size=(5, 4))
    zero_bias = Tensor(np.zeros(3))

    def f(param):
        with ad.GradTape():
            out = ad.sum(ad.tanh(ad.affine(Tensor(x), param, zero_bias)))
            return out

    with ad.GradTape():
        loss = ad.sum(ad.tanh(ad.affine(Tensor(x), p, zero_bias)))
        (grad,) = backward(loss, [p])
    direction = rng.normal(size=p.data.shape)
    direction /= np.linalg.norm(direction)
    h = 1e-6
    plus = f(Tensor(p.data + h * direction)).item()
    minus = f(Tensor(p.data - h * direction)).item()
    numeric = (plus - minus) / (2 * h)
    analytic = float(np.sum(grad * direction))
    print(f"directional derivative: taped={analytic:.10f} "
          f"numeric={numeric:.10f}")
    assert abs(numeric - analytic) < 1e-6


if __name__ == "__main__":
    print("-- gradient against the hand-derived formula --")
    gradient_by_hand()
    print("\n-- fitting y = 3x - 1 with Adam --")
    fit_a_line()
    print("\n-- central finite-difference agreement --")
    finite_difference_check()
    print("\nall checks passed")
