import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fraudsig.lyndon import LyndonBasis, TopPositions
from fraudsig.signatures import (
    TensorSeries,
    augment,
    augment_leadlag,
    augment_time,
    augment_visibility_reset,
    augmented_dim,
    chen_prefix_products,
    chen_product,
    encode,
    lyndon_project,
    path_signature,
    segment_signature,
    tensor_log,
)

from oracles import iterated_integral, tensor_exp, word_logsig_coords, word_path_sig


def paths(max_n=7, max_d=3):
    return st.integers(2, max_n).flatmap(
        lambda n: st.integers(1, max_d).flatmap(
            lambda d: arrays(
                np.float64,
                (n, d),
                elements=st.floats(-2, 2, allow_nan=False, width=32),
            )
        )
    )


def test_level_shapes_and_scalar():
    sig = path_signature(np.array([[0.0, 0.0], [1.0, 2.0], [0.5, 1.0]]), 3)
    assert [lvl.shape for lvl in sig.levels] == [(1,), (2,), (4,), (8,)]
    assert sig.levels[0][0] == 1.0


def test_single_segment_is_tensor_exponential():
    inc = np.array([0.3, -1.2])
    sig = path_signature(np.array([[0.0, 0.0], [0.3, -1.2]]), 4)
    seg = segment_signature(inc, 4)
    for a, b in zip(sig.levels, seg.levels):
        np.testing.assert_allclose(a, b, atol=1e-15)
    # level m = inc^{tensor m} / m!
    np.testing.assert_allclose(
        sig.levels[2], np.outer(inc, inc).ravel() / 2.0, atol=1e-15
    )


@given(paths(max_n=7).filter(lambda p: p.shape[0] >= 3))
def test_chen_identity(pts):
    n = pts.shape[0]
    cut = n // 2
    full = path_signature(pts, 3)
    prod = chen_product(path_signature(pts[: cut + 1], 3), path_signature(pts[cut:], 3))
    for a, b in zip(full.levels, prod.levels):
        np.testing.assert_allclose(a, b, atol=1e-9)


@given(paths())
def test_shuffle_instance_diagonal(pts):
    """S^(i,i) = (S^(i))^2 / 2 for every channel."""
    d = pts.shape[1]
    sig = path_signature(pts, 2)
    lvl2 = sig.levels[2].reshape(d, d)
    for i in range(d):
        assert lvl2[i, i] == pytest.approx(0.5 * sig.levels[1][i] ** 2, abs=1e-9)


@given(paths())
def test_time_reversal_inverts(pts):
    prod = chen_product(path_signature(pts, 3), path_signature(pts[::-1], 3))
    unit = TensorSeries.unit(pts.shape[1], 3)
    for a, b in zip(prod.levels, unit.levels):
        np.testing.assert_allclose(a, b, atol=1e-9)


@given(paths())
def test_translation_invariance(pts):
    shifted = pts + np.arange(1, pts.shape[1] + 1)
    a = path_signature(pts, 3)
    b = path_signature(shifted, 3)
    for la, lb in zip(a.levels, b.levels):
        np.testing.assert_allclose(la, lb, atol=1e-10)


@given(paths(), st.floats(-3, 3, allow_nan=False))
def test_scaling_homogeneity(pts, lam):
    a = path_signature(pts, 3)
    b = path_signature(lam * pts, 3)
    for m in range(4):
        np.testing.assert_allclose(b.levels[m], lam**m * a.levels[m], atol=1e-8)


@given(paths())
def test_exp_log_round_trip(pts):
    sig = path_signature(pts, 4)
    back = tensor_exp(tensor_log(sig))
    for a, b in zip(sig.levels, back.levels):
        np.testing.assert_allclose(a, b, atol=1e-10)


def _column(series, j):
    return TensorSeries(
        series.alphabet_size, series.degree, [lvl[:, j] for lvl in series.levels], series.top
    )


def _assert_series_close(a, b):
    for la, lb in zip(a.levels, b.levels):
        np.testing.assert_allclose(la, lb, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 5])
def test_batched_operations_match_columnwise(n, rng):
    """A batch of n series (trailing axis) gives, column by column, what each
    single-path call gives."""
    d, degree = 3, 4
    basis = LyndonBasis.build(d, degree)
    incs = rng.normal(size=(3, d, n))
    segs = [segment_signature(inc, degree) for inc in incs]
    for inc, seg in zip(incs, segs):
        assert seg.batch_shape == (n,)
        for j in range(n):
            _assert_series_close(_column(seg, j), segment_signature(inc[:, j], degree))
    sig = chen_product(chen_product(segs[0], segs[1]), segs[2])
    log = tensor_log(sig)
    coords = lyndon_project(log, basis)
    assert coords.shape == (basis.dim, n)
    for j in range(n):
        single = chen_product(
            chen_product(_column(segs[0], j), _column(segs[1], j)), _column(segs[2], j)
        )
        _assert_series_close(_column(sig, j), single)
        _assert_series_close(_column(log, j), tensor_log(_column(sig, j)))
        np.testing.assert_allclose(
            coords[:, j], lyndon_project(_column(log, j), basis), rtol=0, atol=1e-13
        )
    _assert_series_close(tensor_exp(log), sig)


def test_chen_product_rejects_mismatched_batches():
    with pytest.raises(ValueError):
        chen_product(TensorSeries.unit(2, 2, (3,)), TensorSeries.unit(2, 2, (4,)))
    with pytest.raises(ValueError):
        chen_product(TensorSeries.unit(2, 2, (3,)), TensorSeries.unit(2, 2))


@st.composite
def unit_start_and_steps(draw):
    """A unit-scalar series and a batch of 1-6 unit-scalar steps over up to
    3 letters, degree 1-4, holding the top level in full or at the Lyndon
    positions."""
    d, degree, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    top = LyndonBasis.build(d, degree).top if draw(st.booleans()) else None
    sizes = [d**m for m in range(1, degree)] + [(top or TopPositions.full(d, degree)).size]
    values = st.floats(-2, 2, allow_nan=False, width=32)

    def series(batch):
        levels = [np.ones((1, *batch))]
        levels += [draw(arrays(np.float64, (size, *batch), elements=values)) for size in sizes]
        return TensorSeries(d, degree, levels, top)

    return series(()), series((n,))


@given(unit_start_and_steps())
def test_prefix_products_equal_the_chen_fold(case):
    """Folding the steps in level by level gives, bit for bit, every
    intermediate of the left-to-right loop of chen_product."""
    start, steps = case
    got = chen_prefix_products(start, steps)
    assert got.batch_shape == steps.batch_shape and got.top.matches(start.top)
    running = start
    for j in range(steps.batch_shape[0]):
        running = chen_product(running, _column(steps, j))
        for m, (lvl, want) in enumerate(zip(got.levels, running.levels, strict=True)):
            assert np.array_equal(lvl[:, j], want), (j, m)


def test_prefix_products_need_unit_scalars_and_one_start(rng):
    steps = TensorSeries.unit(2, 3, (4,))
    with pytest.raises(ValueError, match="scalar parts exactly 1"):
        chen_prefix_products(_random_series(rng, 2, 3, (), 0.5), steps)
    with pytest.raises(ValueError, match="scalar parts exactly 1"):
        chen_prefix_products(TensorSeries.unit(2, 3), _random_series(rng, 2, 3, (4,), 2.0))
    with pytest.raises(ValueError, match="batch"):
        chen_prefix_products(TensorSeries.unit(2, 3, (4,)), steps)
    with pytest.raises(ValueError, match="batch"):
        chen_prefix_products(TensorSeries.unit(2, 3), TensorSeries.unit(2, 3))
    with pytest.raises(ValueError, match="top positions"):
        chen_prefix_products(
            _restricted(TensorSeries.unit(2, 3), LyndonBasis.build(2, 3).top), steps
        )


def _random_series(rng, d, degree, batch, scalar):
    levels = [rng.standard_normal((d**m, *batch)) for m in range(degree + 1)]
    levels[0][...] = scalar
    return TensorSeries(d, degree, levels)


def _restricted(series, top):
    """The full series with its top level gathered at `top.positions`."""
    levels = series.levels[:-1] + [series.levels[-1][top.positions]]
    return TensorSeries(series.alphabet_size, series.degree, levels, top)


def _assert_series_equal(a, b):
    assert a.top.matches(b.top)
    for la, lb in zip(a.levels, b.levels, strict=True):
        np.testing.assert_array_equal(la, lb)


@pytest.mark.parametrize("batch", [(), (5,)], ids=["single", "batched"])
@pytest.mark.parametrize("d,degree", [(3, 4), (7, 4), (7, 1)])
def test_restricted_top_level_is_the_gathered_full_result(d, degree, batch, rng):
    """Holding level M only at the Lyndon positions changes no kept value:
    each primitive equals the full-level result gathered there, exactly."""
    top = LyndonBasis.build(d, degree).top
    inc = rng.standard_normal((d, *batch))
    _assert_series_equal(
        segment_signature(inc, degree, top),
        _restricted(segment_signature(inc, degree), top),
    )
    a = _random_series(rng, d, degree, batch, 1.0)
    b = _random_series(rng, d, degree, batch, 1.0)
    _assert_series_equal(
        chen_product(_restricted(a, top), _restricted(b, top)),
        _restricted(chen_product(a, b), top),
    )
    _assert_series_equal(tensor_log(_restricted(a, top)), _restricted(tensor_log(a), top))
    basis = LyndonBasis.build(d, degree)
    np.testing.assert_array_equal(
        lyndon_project(_restricted(a, top), basis), lyndon_project(a, basis)
    )


def test_restricted_operands_must_hold_the_same_positions(rng):
    basis = LyndonBasis.build(3, 2)  # length-2 Lyndon words 01, 02, 12
    full = _random_series(rng, 3, 2, (), 1.0)
    lyndon = _restricted(full, basis.top)
    other = _restricted(full, TopPositions.build(3, 2, [0, 1, 2]))
    with pytest.raises(ValueError, match="top positions"):
        chen_product(lyndon, full)
    with pytest.raises(ValueError, match="top positions"):
        chen_product(lyndon, other)
    # an equal table built apart is accepted
    same = _restricted(full, TopPositions.build(3, 2, basis.top.positions))
    _assert_series_equal(chen_product(lyndon, same), chen_product(lyndon, lyndon))
    with pytest.raises(ValueError, match="not the basis's"):
        lyndon_project(other, basis)


def test_log_of_unit_is_zero():
    lg = tensor_log(TensorSeries.unit(3, 3))
    assert all(np.all(lvl == 0) for lvl in lg.levels)


def test_log_requires_unit_scalar():
    s = TensorSeries.unit(2, 2)
    s.levels[0][0] = 0.5
    with pytest.raises(ValueError):
        tensor_log(s)
    batch = TensorSeries.unit(2, 2, (4,))
    batch.levels[0][0, 2] = 0.5
    with pytest.raises(ValueError):
        tensor_log(batch)


def test_exp_requires_zero_scalar():
    s = TensorSeries.unit(2, 2)
    with pytest.raises(ValueError):
        tensor_exp(s)
    batch = TensorSeries.zero(2, 2, (4,))
    batch.levels[0][0, 1] = 1.0
    with pytest.raises(ValueError):
        tensor_exp(batch)


def test_path_validation():
    with pytest.raises(ValueError):
        path_signature(np.zeros((1, 2)), 2)
    with pytest.raises(ValueError):
        path_signature(np.zeros((3,)), 2)


def test_signature_matches_integral_oracle(rng):
    for _ in range(25):
        n = rng.integers(2, 6)
        d = rng.integers(1, 4)
        pts = rng.normal(size=(n, d))
        sig = path_signature(pts, 3)
        for m in (1, 2, 3):
            flat = sig.levels[m]
            for w in itertools.islice(itertools.product(range(d), repeat=m), 8):
                idx = 0
                for letter in w:
                    idx = idx * d + letter
                expected = iterated_integral(pts, w)
                assert flat[idx] == pytest.approx(expected, abs=1e-10, rel=1e-10)


def test_signature_matches_word_algebra(rng):
    pts = rng.normal(size=(5, 2))
    sig = path_signature(pts, 4)
    ref = word_path_sig(pts, 4)
    for w, c in ref.items():
        if not w:
            continue
        idx = 0
        for letter in w:
            idx = idx * 2 + letter
        assert sig.levels[len(w)][idx] == pytest.approx(c, abs=1e-10)


# ---------------------------------------------------------------------------
# Augmentations.
# ---------------------------------------------------------------------------


def test_time_augmentation_grid():
    out = augment_time(np.array([[5.0], [7.0], [6.0]]))
    np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(out[:, 1], [5.0, 7.0, 6.0])


def test_leadlag_structure():
    out = augment_leadlag(np.array([[1.0], [2.0], [3.0]]))
    # (lead, lag) pairs: lead advances first, lag catches up
    expected = np.array(
        [[1, 1], [2, 1], [2, 2], [3, 2], [3, 3]], dtype=np.float64
    )
    np.testing.assert_allclose(out, expected)


def test_full_augmentation_hand_example():
    # one channel, two points 0 -> 1: time+leadlag gives a 3-point body in
    # (leadT, leadX, lagT, lagX); visibility prepends the start at vis 0 and
    # appends the end at vis 0 followed by the origin.
    out = augment(np.array([[0.0], [1.0]]))
    expected = np.array(
        [
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1],
            [1, 1, 0, 0, 1],
            [1, 1, 1, 1, 1],
            [1, 1, 1, 1, 0],
            [0, 0, 0, 0, 0],
        ],
        dtype=np.float64,
    )
    np.testing.assert_allclose(out, expected)


@given(st.integers(2, 9), st.integers(1, 3))
def test_augmented_shape(n, d):
    pts = np.arange(n * d, dtype=np.float64).reshape(n, d)
    out = augment(pts)
    assert out.shape == (2 * n + 2, augmented_dim(d))
    # visibility channel pattern: 0, then ones, then 0, 0
    vis = out[:, -1]
    assert vis[0] == 0 and vis[-1] == 0 and vis[-2] == 0
    assert np.all(vis[1:-2] == 1)
    assert np.all(out[-1] == 0)


def test_visibility_reset_alone():
    body = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = augment_visibility_reset(body)
    assert out.shape == (5, 3)
    np.testing.assert_allclose(out[0], [1, 2, 0])
    np.testing.assert_allclose(out[1], [1, 2, 1])
    np.testing.assert_allclose(out[2], [3, 4, 1])
    np.testing.assert_allclose(out[3], [3, 4, 0])
    np.testing.assert_allclose(out[4], [0, 0, 0])


@pytest.mark.parametrize("dim,degree", [(3, 4), (7, 4)])
def test_lyndon_project_reads_word_coefficients(dim, degree, rng):
    series = TensorSeries(
        dim, degree, [rng.standard_normal(dim**m) for m in range(degree + 1)]
    )
    basis = LyndonBasis.build(dim, degree)
    got = lyndon_project(series, basis)
    assert got.shape == (basis.dim,)
    for value, w in zip(got, basis.words):
        flat = 0
        for letter in w:
            flat = flat * dim + letter
        assert value == series.levels[len(w)][flat]


def test_lyndon_project_rejects_mismatched_basis():
    series = TensorSeries.zero(3, 2)
    with pytest.raises(ValueError):
        lyndon_project(series, LyndonBasis.build(3, 3))


def test_encode_dimension_law():
    for d, dim in ((1, 205), (2, 728), (3, 1905)):
        pts = np.random.default_rng(d).normal(size=(6, d))
        assert encode(pts, 4).shape == (dim,)


def test_encode_matches_word_algebra_logsig(rng):
    """encode = Lyndon coordinates of the log of the augmented path's
    signature, checked against the dict-of-words reference."""
    pts = rng.normal(size=(4, 1))
    aug = augment(pts)
    basis = LyndonBasis.build(aug.shape[1], 3)
    got = encode(pts, 3, basis)
    want = word_logsig_coords(aug, 3, list(basis.words))
    np.testing.assert_allclose(got, want, atol=1e-10)
