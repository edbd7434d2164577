import numpy as np
import pytest

from fraudsig.nnet import GeneratorNet, ParamSpec
from fraudsig.sghmc import AdamState, GlorotPrior, adam_sghmc_step

from oracles import fd_grad, glorot_neg_log_density, reference_adam_step


def _toy(rng, n=3):
    return [rng.normal(size=(4, 3)), rng.normal(size=(5,))][:n]


def test_zero_noise_adam_matches_reference(rng):
    params = _toy(rng)
    ours = [p.copy() for p in params]
    ref_p = [p.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in params]
    ref_v = [np.zeros_like(p) for p in params]
    state = AdamState.for_params(ours)
    lr = 1e-2
    for step in range(100):
        grads = [np.cos(p * (1 + step % 3)) for p in ours]
        ours, state = adam_sghmc_step(ours, grads, state, lr=lr, friction=0.0, rng=rng)
        grads_ref = [np.cos(p * (1 + step % 3)) for p in ref_p]
        for i in range(len(ref_p)):
            ref_p[i], ref_m[i], ref_v[i] = reference_adam_step(
                ref_p[i], grads_ref[i], ref_m[i], ref_v[i], step + 1, lr
            )
        for a, b in zip(ours, ref_p):
            np.testing.assert_array_equal(a, b)  # bit-identical


@pytest.mark.parametrize("stepper", ["adam"])
def test_injected_noise_variance_is_2_friction_lr(stepper):
    """With zero gradient the parameter increment is pure noise (zero
    gradients keep mhat = 0); its variance must be 2*friction*lr within 3
    standard errors."""
    friction, lr, n = 0.1, 0.01, 100_000
    rng = np.random.default_rng(99)
    p = [np.zeros(n)]
    g = [np.zeros(n)]
    new_p, _ = adam_sghmc_step(p, g, AdamState.for_params(p), lr, friction, rng)
    noise = new_p[0]
    target = 2.0 * friction * lr
    # var of the sample variance of N(0, s^2) is ~ 2 s^4 / n
    se = np.sqrt(2.0 / n) * target
    assert abs(noise.var() - target) < 3.0 * se


def test_prior_variances_follow_fans():
    specs = [
        ParamSpec("a.W", (8, 4), 4, 8),
        ParamSpec("a.b", (8,), 4, 8),
    ]
    prior = GlorotPrior.for_specs(specs)
    assert prior.sigma2 == (2.0 / 12.0, 2.0 / 12.0)
    prior_g = GlorotPrior.for_specs(specs, gain=2.0)
    assert prior_g.sigma2[0] == pytest.approx(4.0 * 2.0 / 12.0)


def test_prior_gradient_matches_fd(rng):
    gen = GeneratorNet(latent_dim=2, emb_cards=(2,), out_dim=2, width=3, n_residual=1)
    params = gen.init_params(rng)
    prior = GlorotPrior.for_specs(gen.param_specs)
    grads = prior.neg_log_grad(params)
    for k, p in enumerate(params):
        def f(pv):
            trial = list(params)
            trial[k] = pv
            return glorot_neg_log_density(prior, trial)

        np.testing.assert_allclose(grads[k], fd_grad(f, p.copy()), rtol=1e-6, atol=1e-8)


def test_init_samples_from_prior_scale(rng):
    """Network initialisation draws from the same fan-balanced prior."""
    gen = GeneratorNet(latent_dim=32, emb_cards=(3,), out_dim=32, width=128, n_residual=1)
    prior = GlorotPrior.for_specs(gen.param_specs)
    params = gen.init_params(rng)
    for spec, s2, p in zip(gen.param_specs, prior.sigma2, params):
        if p.size < 2000:
            continue
        assert p.var() == pytest.approx(s2, rel=0.2), spec.name
