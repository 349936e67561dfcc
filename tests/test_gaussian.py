import math

import numpy as np
import pytest

from oracle_utils import REL_TOL, fd_grad, rel_err
from vidchain.autodiff import GradTape, Tensor, backward
from vidchain.gaussian import GaussianParams, gaussian_kl, reparameterize
from vidchain.rng import RandomStream


def kl_value(mu, log_var):
    return gaussian_kl(GaussianParams(Tensor(mu), Tensor(log_var))).item()


def test_prior_equals_posterior_gives_zero():
    assert kl_value([0.0], [0.0]) == 0.0
    assert kl_value(np.zeros(64), np.zeros(64)) == 0.0


def test_unit_mean_closed_form():
    assert abs(kl_value([1.0], [0.0]) - 0.5) < 1e-9


def test_unit_log_variance_closed_form():
    assert abs(kl_value([0.0], [1.0]) - 0.5 * (math.e - 2.0)) < 1e-9


def test_kl_nonnegative_and_zero_only_at_prior():
    r = RandomStream.from_seed(21)
    for _ in range(50):
        mu = r.normal(8, scale=2.0)
        lv = r.normal(8, scale=2.0)
        val = kl_value(mu, lv)
        assert val >= 0.0
        if abs(val) < 1e-12:
            assert np.allclose(mu, 0) and np.allclose(lv, 0)


def test_batched_kl_is_mean_over_batch():
    single_a = kl_value([1.0, 0.0], [0.0, 0.0])
    single_b = kl_value([0.0, 0.5], [0.3, -0.2])
    batched = kl_value([[1.0, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.3, -0.2]])
    assert abs(batched - 0.5 * (single_a + single_b)) < 1e-12


def test_log_var_clamped_at_construction():
    q = GaussianParams(Tensor([0.0]), Tensor([-50.0]))
    assert q.log_var.data[0] == -10.0
    q = GaussianParams(Tensor([0.0]), Tensor([50.0]))
    assert q.log_var.data[0] == 10.0


def test_variance_collapse_returns_mu():
    # clamped log_var of -10 gives std exp(-5) ~ 0.0067 < 0.01
    mu = np.array([0.3, -1.2, 0.0])
    q = GaussianParams(Tensor(mu), Tensor(np.full(3, -1e9)))
    z = reparameterize(q, RandomStream.from_seed(4))
    eps = RandomStream.from_seed(4).normal(3)
    assert np.all(np.abs(z.data - mu) <= 0.01 * np.abs(eps) + 1e-12)


def test_reparameterize_deterministic_under_fixed_stream():
    q = GaussianParams(Tensor([0.1, 0.2]), Tensor([0.3, -0.3]))
    z1 = reparameterize(q, RandomStream.from_seed(7))
    z2 = reparameterize(q, RandomStream.from_seed(7))
    assert np.array_equal(z1.data, z2.data)


def test_reparameterize_statistics():
    q = GaussianParams(Tensor(np.zeros(100000)), Tensor(np.zeros(100000)))
    z = reparameterize(q, RandomStream.from_seed(123)).data
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_gradient_flows_to_mu_and_log_var_not_eps():
    r = RandomStream.from_seed(31)
    mu0 = r.normal(5)
    lv0 = r.normal(5, scale=0.5)

    def loss_of(mu_arr, lv_arr):
        mu = Tensor(mu_arr, requires_grad=True)
        lv = Tensor(lv_arr, requires_grad=True)
        from vidchain import autodiff as ad
        with GradTape():
            q = GaussianParams(mu, lv)
            z = reparameterize(q, RandomStream.from_seed(55))
            loss = ad.sum(ad.square(z)) + gaussian_kl(q)
        return mu, lv, loss

    mu, lv, loss = loss_of(mu0, lv0)
    g_mu, g_lv = backward(loss, [mu, lv])
    fd_mu = fd_grad(lambda m: loss_of(m, lv0)[2].item(), mu0)
    fd_lv = fd_grad(lambda l: loss_of(mu0, l)[2].item(), lv0)
    assert rel_err(g_mu, fd_mu) < REL_TOL
    assert rel_err(g_lv, fd_lv) < REL_TOL
    assert np.any(g_mu != 0) and np.any(g_lv != 0)


def test_posterior_clamp_recorded_once():
    """The log-variance clamp is one tape record, made when the posterior is
    built, however many times a loss reads `log_var`."""
    mu = Tensor(np.zeros(3), requires_grad=True)
    lv = Tensor([-50.0, 0.0, 50.0], requires_grad=True)
    with GradTape() as tape:
        q = GaussianParams(mu, lv)
        first, second = q.log_var, q.log_var
    assert [rec.op for rec in tape.records] == ["clip"]
    assert first is second
    assert first.data.tolist() == [-10.0, 0.0, 10.0]


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GaussianParams(Tensor([0.0, 1.0]), Tensor([0.0]))
