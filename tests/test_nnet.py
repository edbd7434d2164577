import numpy as np
import pytest

from fraudsig.nnet import (
    Dense,
    DiscriminatorNet,
    GeneratorNet,
    ResidualTanh,
    TanhAct,
    critic_head,
    critic_head_vector,
    restricted_softmax,
    zeros_like_params,
)

from oracles import (
    critic_input_gradient_reference,
    fd_grad,
    penalty_param_grads_reference,
    trunk_backward,
    trunk_forward,
)


def _layer_params(layer, rng):
    return [rng.normal(size=s.shape) * 0.5 for s in layer.specs]


@pytest.mark.parametrize(
    "make",
    [
        lambda: Dense(4, 3, "d"),
        lambda: TanhAct(),
        lambda: ResidualTanh(4, "r"),
    ],
    ids=["dense", "tanh", "residual"],
)
def test_layer_backward_matches_fd(make, rng):
    layer = make()
    ps = _layer_params(layer, rng)
    x = rng.normal(size=(5, 4))
    y, cache = layer.forward(ps, x)
    c = rng.normal(size=y.shape)
    grads, dx = layer.backward(ps, cache, c)

    def loss_x(xv):
        return float((layer.forward(ps, xv)[0] * c).sum())

    np.testing.assert_allclose(dx, fd_grad(loss_x, x.copy()), rtol=1e-6, atol=1e-8)
    for k, p in enumerate(ps):
        def loss_p(pv):
            trial = list(ps)
            trial[k] = pv
            return float((layer.forward(trial, x)[0] * c).sum())

        np.testing.assert_allclose(
            grads[k], fd_grad(loss_p, p.copy()), rtol=1e-6, atol=1e-8
        )


@pytest.mark.parametrize(
    "make",
    [
        lambda: Dense(4, 3, "d"),
        lambda: TanhAct(),
        lambda: ResidualTanh(4, "r"),
    ],
    ids=["dense", "tanh", "residual"],
)
def test_layer_tangent_is_directional_derivative(make, rng):
    layer = make()
    ps = _layer_params(layer, rng)
    x = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    _, cache = layer.forward(ps, x)
    ydot, _ = layer.tangent(ps, cache, v)
    h = 1e-6
    up, _ = layer.forward(ps, x + h * v)
    dn, _ = layer.forward(ps, x - h * v)
    np.testing.assert_allclose(ydot, (up - dn) / (2 * h), rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Dense(4, 4, "d"),
        lambda: TanhAct(),
        lambda: ResidualTanh(4, "r"),
    ],
    ids=["dense", "tanh", "residual"],
)
def test_layer_second_backward_matches_fd(make, rng):
    """Parameter gradient of G = sum(c * J_layer(x) v) where J v is the
    tangent output; checked against finite differences over parameters."""
    layer = make()
    ps = _layer_params(layer, rng)
    if not ps:
        pytest.skip("parameter-free layer")
    x = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    _, cache = layer.forward(ps, x)
    ydot, tcache = layer.tangent(ps, cache, v)
    c = rng.normal(size=ydot.shape)
    grads, _ = layer.second_backward(ps, cache, tcache, np.zeros_like(c), c)

    for k, p in enumerate(ps):
        def g_of_p(pv):
            trial = list(ps)
            trial[k] = pv
            _, cc = layer.forward(trial, x)
            yd, _ = layer.tangent(trial, cc, v)
            return float((c * yd).sum())

        np.testing.assert_allclose(
            grads[k], fd_grad(g_of_p, p.copy()), rtol=1e-5, atol=1e-7
        )


@pytest.mark.parametrize(
    "make",
    [
        lambda: Dense(4, 3, "d"),
        lambda: TanhAct(),
        lambda: ResidualTanh(4, "r"),
    ],
    ids=["dense", "tanh", "residual"],
)
def test_layer_second_backward_lam_x_matches_fd(make, rng):
    """lam_x is the gradient over the input x of
    G = sum(lam * y(x)) + sum(mu * J_layer(x) v), the tangent direction v
    held fixed; checked against finite differences over x."""
    layer = make()
    ps = _layer_params(layer, rng)
    x = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    y, cache = layer.forward(ps, x)
    _, tcache = layer.tangent(ps, cache, v)
    lam = rng.normal(size=y.shape)
    mu = rng.normal(size=y.shape)
    _, lam_x = layer.second_backward(ps, cache, tcache, lam, mu)

    def g_of_x(xv):
        yv, cc = layer.forward(ps, xv)
        return float((lam * yv).sum() + (mu * layer.tangent(ps, cc, v)[0]).sum())

    np.testing.assert_allclose(lam_x, fd_grad(g_of_x, x.copy()), rtol=1e-5, atol=1e-7)


def test_generator_backward_matches_fd(rng):
    gen = GeneratorNet(latent_dim=3, emb_cards=(3, 2), out_dim=4, width=6, n_residual=1)
    params = gen.init_params(rng)
    z = rng.normal(size=(4, 3))
    codes = np.column_stack([rng.integers(0, 3, 4), rng.integers(0, 2, 4)])
    y, cache = gen.forward(params, z, codes)
    c = rng.normal(size=y.shape)
    grads, _ = gen.backward(params, cache, c)
    for k, p in enumerate(params):
        def loss(pv):
            trial = list(params)
            trial[k] = pv
            return float((gen.forward(trial, z, codes)[0] * c).sum())

        np.testing.assert_allclose(grads[k], fd_grad(loss, p.copy()), rtol=1e-5, atol=1e-7)


def test_discriminator_backward_and_input_gradient_match_fd(rng):
    disc = DiscriminatorNet(
        feat_dim=4, emb_cards=(3, 2), n_classes=2, width=6, n_residual=1, head_widths=(5,)
    )
    params = disc.init_params(rng)
    feat = rng.normal(size=(4, 4))
    codes = np.column_stack([rng.integers(0, 3, 4), rng.integers(0, 2, 4)])
    scores, cache = disc.forward(params, feat, codes)
    c = rng.normal(size=scores.shape)
    grads, dfeat = disc.backward(params, cache, c)

    def loss_feat(fv):
        return float((disc.forward(params, fv, codes)[0] * c).sum())

    np.testing.assert_allclose(dfeat, fd_grad(loss_feat, feat.copy()), rtol=1e-5, atol=1e-7)
    for k, p in enumerate(params):
        def loss(pv):
            trial = list(params)
            trial[k] = pv
            return float((disc.forward(trial, feat, codes)[0] * c).sum())

        np.testing.assert_allclose(grads[k], fd_grad(loss, p.copy()), rtol=1e-5, atol=1e-7)


def _assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("need_param_grads", [True, False], ids=["params", "input-only"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: GeneratorNet(latent_dim=5, emb_cards=(3, 2, 4), out_dim=7, width=6, n_residual=2),
        lambda: DiscriminatorNet(
            feat_dim=11, emb_cards=(3, 2, 4), n_classes=2, width=6, n_residual=2,
            head_widths=(5, 4),
        ),
    ],
    ids=["generator", "discriminator"],
)
def test_forward_backward_match_whole_trunk_reference(make, need_param_grads, rng):
    """The projection-level passes equal the concatenated trunk input run
    through `proj` as an ordinary dense layer, for either input layout."""
    net = make()
    params = net.init_params(rng)
    x = rng.normal(size=(9, net.free_dim))
    codes = np.column_stack([rng.integers(0, c, 9) for c in net.emb.cards])
    y, cache = net.forward(params, x, codes)
    y_ref, cache_ref = trunk_forward(net, params, x, codes)
    _assert_rel_close(y, y_ref)
    dy = rng.normal(size=y.shape)
    grads, dx = net.backward(params, cache, dy, need_param_grads)
    grads_ref, dx_ref = trunk_backward(net, params, cache_ref, dy, need_param_grads)
    _assert_rel_close(dx, dx_ref)
    if not need_param_grads:
        assert grads is None
        return
    assert len(grads) == len(grads_ref) == len(net.param_specs)
    for g, g_ref, spec in zip(grads, grads_ref, net.param_specs):
        assert g.shape == spec.shape, spec.name
        _assert_rel_close(g, g_ref)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GeneratorNet(latent_dim=5, emb_cards=(3, 2, 4), out_dim=7, width=6, n_residual=2),
        lambda: DiscriminatorNet(
            feat_dim=11, emb_cards=(3, 2, 4), width=6, n_residual=2, head_widths=(5, 4)
        ),
    ],
    ids=["generator", "discriminator"],
)
def test_output_is_the_forward_output_bit_for_bit(make, rng):
    """The cache-free pass gives `forward`'s output, and checks its input
    the same way."""
    net = make()
    params = net.init_params(rng)
    x = rng.normal(size=(9, net.free_dim))
    codes = np.column_stack([rng.integers(0, c, 9) for c in net.emb.cards])
    assert net.output(params, x, codes).tobytes() == net.forward(params, x, codes)[0].tobytes()
    with pytest.raises(ValueError):
        net.output(params, x[:, :-1], codes)
    with pytest.raises(ValueError):
        net.output(params, x, codes[:, :-1])


def test_generator_passes_below_gen_out_compose_to_forward_and_backward(rng):
    """`hidden` and `hidden_forward` give gen.out's input, which gen.out's
    forward takes to `forward`'s output, and `hidden_backward` from the
    gradient at it and gen.out's own gradients gives `backward`'s, all bit
    for bit."""
    net = GeneratorNet(latent_dim=5, emb_cards=(3, 2, 4), out_dim=7, width=6, n_residual=2)
    params = net.init_params(rng)
    z = rng.normal(size=(9, 5))
    codes = np.column_stack([rng.integers(0, c, 9) for c in net.emb.cards])
    w_out, b_out = net.out_params(params)
    fake, cache = net.forward(params, z, codes)
    hidden, hcache = net.hidden_forward(params, z, codes)
    assert hidden.shape == (9, 6)
    assert net.hidden(params, z, codes).tobytes() == hidden.tobytes()
    assert (hidden @ w_out.T + b_out).tobytes() == fake.tobytes()
    dy = rng.normal(size=fake.shape)
    want, _ = net.backward(params, cache, dy)
    got = net.hidden_backward(params, hcache, dy @ w_out, [dy.T @ hidden, dy.sum(axis=0)])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_penalty_param_grads_match_fd(rng):
    """The second-order path: gradient of sum(coeffs * (g . v)) over
    parameters, where g is the critic's input gradient."""
    disc = DiscriminatorNet(
        feat_dim=3, emb_cards=(2,), n_classes=2, width=5, n_residual=1, head_widths=(4,)
    )
    params = disc.init_params(rng)
    feat = rng.normal(size=(3, 3))
    codes = rng.integers(0, 2, (3, 1))
    coeffs = rng.normal(size=3)

    g, cache = critic_input_gradient_reference(disc, params, feat, codes)
    grads = penalty_param_grads_reference(disc, params, cache, g, coeffs)

    # d/dp sum(coeffs * |g|^2) = 2 * penalty_param_grads_reference with v = g;
    # use the helper's own contract: it differentiates sum(coeffs * (g . v))
    # at fixed v, so FD must hold v fixed too.
    v = g.copy()

    def scalar_fixed_v(pv):
        gg, _ = critic_input_gradient_reference(disc, pv, feat, codes)
        return float((coeffs[:, None] * gg * v).sum())

    for k, p in enumerate(params):
        def f(pv):
            trial = list(params)
            trial[k] = pv
            return scalar_fixed_v(trial)

        np.testing.assert_allclose(grads[k], fd_grad(f, p.copy()), rtol=1e-4, atol=1e-7)


def test_out_of_range_codes_raise(rng):
    disc = DiscriminatorNet(feat_dim=2, emb_cards=(2,), n_classes=2, width=4, n_residual=1)
    params = disc.init_params(rng)
    with pytest.raises(ValueError):
        disc.forward(params, np.zeros((1, 2)), np.array([[2]]))
    with pytest.raises(ValueError):
        disc.forward(params, np.zeros((1, 2)), np.array([[-1]]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: GeneratorNet(latent_dim=3, emb_cards=(2,), out_dim=4, width=5, n_residual=1),
        lambda: DiscriminatorNet(feat_dim=3, emb_cards=(2,), width=5, n_residual=1),
    ],
    ids=["generator", "discriminator"],
)
def test_forward_rejects_wrong_input_width_and_param_count(make, rng):
    net = make()
    params = net.init_params(rng)
    codes = np.zeros((2, 1), dtype=np.int64)
    net.forward(params, np.zeros((2, 3)), codes)
    with pytest.raises(ValueError):
        net.forward(params, np.zeros((2, 4)), codes)
    with pytest.raises(ValueError):
        net.forward(params, np.zeros(3), codes)
    with pytest.raises(ValueError):
        net.forward(params[:-1], np.zeros((2, 3)), codes)


def test_critic_head_values():
    assert critic_head(np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(1 / np.sqrt(3))
    assert critic_head(np.array([[0.0, 1.0, 1.0]]))[0] == pytest.approx(-2 / np.sqrt(3))
    tvec = critic_head_vector(2)
    np.testing.assert_allclose(tvec, np.array([1.0, -1.0, -1.0]) / np.sqrt(3))
    assert np.linalg.norm(tvec) == pytest.approx(1.0)


def test_restricted_softmax_values():
    p = restricted_softmax(np.array([[5.0, 0.0, 0.0]]))
    np.testing.assert_allclose(p[0], [0.5, 0.5])
    p = restricted_softmax(np.array([[-1.0, np.log(3.0), 0.0]]))
    np.testing.assert_allclose(p[0], [0.75, 0.25])
    # class-0 score never participates
    p1 = restricted_softmax(np.array([[100.0, 1.0, 2.0]]))
    p2 = restricted_softmax(np.array([[-100.0, 1.0, 2.0]]))
    np.testing.assert_allclose(p1, p2)
    # stable at large scores
    p = restricted_softmax(np.array([[0.0, 1000.0, 999.0]]))
    assert np.isfinite(p).all()


def test_init_variance_follows_fan_sum(rng):
    gen = GeneratorNet(latent_dim=8, emb_cards=(3,), out_dim=8, width=64, n_residual=1)
    params = gen.init_params(rng)
    for spec, p in zip(gen.param_specs, params):
        if p.size < 1000 or not spec.name.endswith(".W"):
            continue
        target = 2.0 / (spec.fan_in + spec.fan_out)
        assert p.var() == pytest.approx(target, rel=0.25)


def test_zeros_like_params(rng):
    gen = GeneratorNet(latent_dim=2, emb_cards=(2,), out_dim=3, width=4, n_residual=1)
    params = gen.init_params(rng)
    zs = zeros_like_params(params)
    assert all(z.shape == p.shape and not z.any() for z, p in zip(zs, params))
