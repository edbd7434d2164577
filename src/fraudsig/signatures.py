"""Truncated path signatures of piecewise-linear paths.

The signature of a path is the family of its iterated integrals; truncated
at degree M it lives in the tensor algebra T_M = R + R^D + (R^D)^2 + ... +
(R^D)^M.  For a piecewise-linear path the signature factorises over segments
(Chen's identity), each factor being the tensor exponential of the segment
increment, so the whole computation reduces to truncated tensor products.
Over a stream of factors with scalar part 1, the products of every prefix
come level by level, one running sum per level
(:func:`chen_prefix_products`), with the bits of the step-by-step fold.

A :class:`TensorSeries` stores one float64 array per level; the level-m
coefficient of a word (i_1, ..., i_m) sits at flat index sum_j i_j * D**(m-j)
of the leading axis.  Trailing axes, if any, index a batch of series that
every operation treats independently.  Concatenation of words corresponds to
the outer product of the flat blocks.

No level of a product or logarithm above M reads level M, so a series may
hold its top level at a subset of positions only (a
:class:`~fraudsig.lyndon.TopPositions` table; all D**M by default).  Every
operation forms level M through one rule, as the gathered products
``left[prefix[i]] * right[suffix[i]]`` at the kept positions, added in the
same order as the full products, so a restricted series holds exactly the
kept entries of the full one.  The log-signature encoder keeps only the
length-M Lyndon positions (``LyndonBasis.top``): 588 of 2,401 at D = 7,
M = 4.

The direct form of the feature map for transaction sequences is

    augment -> path_signature -> tensor_log -> lyndon_project

(``encode``), producing the log-signature coordinates in the Lyndon-word
basis.  The pipeline never runs it: ``prepare`` uses the incremental prefix
encoder in :mod:`fraudsig.features`, which the tests and
``perfbench/make_reference.py`` check against this form.
"""

from __future__ import annotations

import numpy as np

from .lyndon import LyndonBasis, TopPositions

__all__ = [
    "TensorSeries",
    "segment_signature",
    "chen_product",
    "chen_prefix_products",
    "path_signature",
    "tensor_log",
    "lyndon_project",
    "augment_time",
    "augment_leadlag",
    "augment_visibility_reset",
    "augment",
    "augmented_dim",
    "encode",
]


class TensorSeries:
    """Truncated series in the tensor algebra over R^D, or a batch of them.

    Attributes:
        alphabet_size: channel count D.
        degree: truncation degree M.
        levels: list of M+1 arrays; ``levels[m]`` has shape (D**m, *batch)
            for m < M, with ``levels[0]`` the scalar part of shape (1, *batch),
            and ``levels[M]`` has shape (top.size, *batch).  A single series
            has ``batch = ()``; every operation below treats the trailing axes
            as independent series.
        top: the level-M positions held, in ``levels[M]`` order; all D**M
            (``TopPositions.full``) unless a table is given.
    """

    __slots__ = ("alphabet_size", "degree", "levels", "top")

    def __init__(
        self,
        alphabet_size: int,
        degree: int,
        levels: list[np.ndarray],
        top: TopPositions | None = None,
    ):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if len(levels) != degree + 1:
            raise ValueError(f"expected {degree + 1} levels, got {len(levels)}")
        top = top or TopPositions.full(alphabet_size, degree)
        if (top.alphabet_size, top.degree) != (alphabet_size, degree):
            raise ValueError(
                f"top positions over (D={top.alphabet_size}, M={top.degree}) for a "
                f"series over (D={alphabet_size}, M={degree})"
            )
        batch = levels[0].shape[1:]
        for m, lvl in enumerate(levels):
            size = top.size if m == degree else alphabet_size**m
            if lvl.shape != (size, *batch):
                raise ValueError(
                    f"level {m} has shape {lvl.shape}, expected {(size, *batch)}"
                )
        self.alphabet_size = alphabet_size
        self.degree = degree
        self.levels = levels
        self.top = top

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.levels[0].shape[1:]

    @classmethod
    def zero(
        cls,
        alphabet_size: int,
        degree: int,
        batch: tuple[int, ...] = (),
        top: TopPositions | None = None,
    ) -> "TensorSeries":
        top = top or TopPositions.full(alphabet_size, degree)
        sizes = [alphabet_size**m for m in range(degree)] + [top.size]
        return cls(alphabet_size, degree, [np.zeros((n, *batch)) for n in sizes], top)

    @classmethod
    def unit(
        cls,
        alphabet_size: int,
        degree: int,
        batch: tuple[int, ...] = (),
        top: TopPositions | None = None,
    ) -> "TensorSeries":
        """The multiplicative identity: scalar part 1, all higher levels 0."""
        out = cls.zero(alphabet_size, degree, batch, top)
        out.levels[0][0] = 1.0
        return out

    def __repr__(self) -> str:
        return (
            f"TensorSeries(D={self.alphabet_size}, M={self.degree}, "
            f"batch={self.batch_shape}, scalar={self.levels[0][0]!r})"
        )


def _product(left: np.ndarray, right: np.ndarray, i: int, m: int, top: TopPositions):
    """Level-m block of the product of a level-i block (D**i, *batch) and a
    level-(m-i) block: word concatenation, left word first.  Below the top
    level it is the outer product (D**m, *batch); at the top level only the
    entries at ``top.positions``, (top.size, *batch)."""
    if m < top.degree:
        return (left[:, None] * right[None, :]).reshape(
            left.shape[0] * right.shape[0], *left.shape[1:]
        )
    return left[top.prefix[i]] * right[top.suffix[i]]


def segment_signature(
    increment: np.ndarray, degree: int, top: TopPositions | None = None
) -> TensorSeries:
    """Signature of a single linear segment: the tensor exponential of the
    increment, with level m equal to increment^(tensor m) / m!.

    `increment` has shape (D, *batch): one segment per trailing index.  The
    top level holds the positions of `top` (all of them by default).
    """
    inc = np.asarray(increment, dtype=np.float64)
    if inc.ndim == 0 or inc.shape[0] == 0:
        raise ValueError(f"increment must be a non-empty vector, got shape {inc.shape}")
    top = top or TopPositions.full(inc.shape[0], degree)
    levels = [np.ones((1, *inc.shape[1:]))]
    for m in range(1, degree + 1):
        levels.append(_product(levels[-1], inc, m - 1, m, top) / m)
    return TensorSeries(inc.shape[0], degree, levels, top)


def chen_product(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Truncated tensor-algebra product; concatenates paths by Chen's identity.

    Both series must hold the same top-level positions; so does the product.
    """
    if (
        a.alphabet_size != b.alphabet_size
        or a.degree != b.degree
        or a.batch_shape != b.batch_shape
        or not a.top.matches(b.top)
    ):
        raise ValueError(
            f"mismatched series: D {a.alphabet_size}/{b.alphabet_size}, "
            f"M {a.degree}/{b.degree}, batch {a.batch_shape}/{b.batch_shape}, "
            f"top positions {a.top.size}/{b.top.size}"
        )
    out = TensorSeries.zero(a.alphabet_size, a.degree, a.batch_shape, a.top)
    for m in range(a.degree + 1):
        acc = out.levels[m]
        for i in range(m + 1):
            left = a.levels[i]
            right = b.levels[m - i]
            if i == 0:
                acc += left[0] * right
            elif i == m:
                acc += left * right[0]
            else:
                acc += _product(left, right, i, m, a.top)
    return out


def chen_prefix_products(start: TensorSeries, steps: TensorSeries) -> TensorSeries:
    """Every prefix product ``start (x) steps[0] (x) ... (x) steps[j]``,
    j = 0..n-1, of one series and a batch of n steps (batch shape (n,)), as
    a batch of n series.  All scalar parts must be exactly 1.

    With unit scalar parts, ``chen_product`` adds level m of r (x) s as
    ``(s_m + r_1 s_{m-1} + ... + r_{m-1} s_1) + r_m``.  The bracket only reads
    levels below m, so level by level, m = 1..M, the brackets of all steps
    are formed in one batched pass from the prefixes' lower levels, and level
    m of every prefix is their running sum seeded with ``start``'s level m
    (``np.add.accumulate``, strictly left to right).  The result is bitwise
    the left fold ``chen_product(... chen_product(start, steps[0]) ...)``.
    """
    if (
        start.alphabet_size != steps.alphabet_size
        or start.degree != steps.degree
        or start.batch_shape != ()
        or len(steps.batch_shape) != 1
        or not start.top.matches(steps.top)
    ):
        raise ValueError(
            f"need one series and a batch of steps over the same algebra: D "
            f"{start.alphabet_size}/{steps.alphabet_size}, M {start.degree}/{steps.degree}, "
            f"batch {start.batch_shape}/{steps.batch_shape}, "
            f"top positions {start.top.size}/{steps.top.size}"
        )
    if np.any(start.levels[0] != 1.0) or np.any(steps.levels[0] != 1.0):
        raise ValueError("chen_prefix_products needs scalar parts exactly 1")
    n = steps.batch_shape[0]
    # acc[m][:, j] is level m of the product of start with the first j steps:
    # column 0 is start itself and column j + 1 the j-th prefix product.
    acc = [np.ones((1, n + 1))]
    for m in range(1, start.degree + 1):
        lvl = np.empty((steps.levels[m].shape[0], n + 1))
        lvl[:, 0] = start.levels[m]
        # 0.0 + s_m, as chen_product starts its sum from zeros.
        inc = np.add(steps.levels[m], 0.0, out=lvl[:, 1:])
        for i in range(1, m):
            inc += _product(acc[i][:, :-1], steps.levels[m - i], i, m, start.top)
        np.add.accumulate(lvl, axis=1, out=lvl)
        acc.append(lvl)
    return TensorSeries(
        start.alphabet_size, start.degree, [lvl[:, 1:] for lvl in acc], start.top
    )


def path_signature(points: np.ndarray, degree: int) -> TensorSeries:
    """Signature of the piecewise-linear path through `points` ((n, D), n >= 2),
    accumulated left to right over segment exponentials."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
        raise ValueError(f"need at least 2 points of >= 1 channel, got shape {pts.shape}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    sig = segment_signature(pts[1] - pts[0], degree)
    for k in range(1, pts.shape[0] - 1):
        sig = chen_product(sig, segment_signature(pts[k + 1] - pts[k], degree))
    return sig


def tensor_log(s: TensorSeries) -> TensorSeries:
    """Tensor logarithm of a series with scalar part 1:

        log(1 + t) = sum_{n>=1} (-1)**(n-1) / n * t^(tensor n)

    truncated at the series degree.  The scalar part of the result is 0, and
    its top level holds the positions of the input's.
    """
    if np.any(np.abs(s.levels[0] - 1.0) > 1e-9):
        raise ValueError(f"tensor_log needs scalar part 1, got {s.levels[0]!r}")
    t = s.levels
    out = [np.zeros_like(t[0])] + [lvl.copy() for lvl in t[1:]]
    # t has no scalar part, so t^(tensor n) vanishes below level n, and only
    # the products power[i] (x) t[m - i] with n-1 <= i <= m-1 are non-zero.
    # Their factors sit below the top level, which only out[M] reads.
    power = t
    for n in range(2, s.degree + 1):
        coeff = (-1.0) ** (n - 1) / n
        nxt = [None] * (s.degree + 1)
        for m in range(n, s.degree + 1):
            acc = _product(power[n - 1], t[m - n + 1], n - 1, m, s.top)
            for i in range(n, m):
                acc += _product(power[i], t[m - i], i, m, s.top)
            nxt[m] = acc
            out[m] += coeff * acc
        power = nxt
    return TensorSeries(s.alphabet_size, s.degree, out, s.top)


def lyndon_project(log_series: TensorSeries, basis: LyndonBasis) -> np.ndarray:
    """Read the tensor-log coefficients at Lyndon-word positions, ordered like
    ``basis.words``: shape (basis.dim, *batch).

    The series holds its top level either in full or at exactly
    ``basis.top``'s positions, which are then read as they stand.
    """
    if basis.alphabet_size != log_series.alphabet_size or basis.degree != log_series.degree:
        raise ValueError(
            f"basis (D={basis.alphabet_size}, M={basis.degree}) does not match "
            f"series (D={log_series.alphabet_size}, M={log_series.degree})"
        )
    top = log_series.levels[-1]
    if log_series.top.is_full:
        top = top[basis.top.positions]
    elif not log_series.top.matches(basis.top):
        raise ValueError(
            f"series holds {log_series.top.size} level-{basis.degree} positions "
            f"that are not the basis's {basis.top.size}"
        )
    # The shorter words come first; levels[:-1] starts with the scalar part,
    # one entry before where ``basis.index`` counts from.
    lower = basis.dim - basis.top.size
    return np.concatenate(
        [np.concatenate(log_series.levels[:-1])[1 + basis.index[:lower]], top]
    )


# ---------------------------------------------------------------------------
# Path augmentations.  Composition order: time, then lead-lag over all
# channels, then invisibility-reset.  d input channels become 2d+3.
# ---------------------------------------------------------------------------


def _check_path(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
        raise ValueError(f"need at least 2 points of >= 1 channel, got shape {pts.shape}")
    return pts


def augment_time(points: np.ndarray) -> np.ndarray:
    """Prepend a normalised time channel t_i = i / (n - 1)."""
    pts = _check_path(points)
    n = pts.shape[0]
    t = np.arange(n, dtype=np.float64) / (n - 1)
    return np.column_stack([t, pts])


def augment_leadlag(points: np.ndarray) -> np.ndarray:
    """Interleave the path with a one-step lagged copy of itself.

    Point sequence (p1, p1), (p2, p1), (p2, p2), (p3, p2), ...: 2n-1 points,
    lead channels first, lag channels second.
    """
    pts = _check_path(points)
    n, d = pts.shape
    out = np.empty((2 * n - 1, 2 * d))
    out[0::2, :d] = pts
    out[0::2, d:] = pts
    out[1::2, :d] = pts[1:]
    out[1::2, d:] = pts[:-1]
    return out


def augment_visibility_reset(points: np.ndarray) -> np.ndarray:
    """Append a visibility channel equal to 1 on the existing points, prepend
    the first point with visibility 0, and append the last point with
    visibility 0 followed by the all-zero point."""
    pts = _check_path(points)
    n, d = pts.shape
    out = np.zeros((n + 3, d + 1))
    out[1 : n + 1, :d] = pts
    out[1 : n + 1, d] = 1.0
    out[0, :d] = pts[0]
    out[n + 1, :d] = pts[-1]
    # rows 0 and n+1 keep visibility 0; the final row stays all-zero.
    return out


def augment(points: np.ndarray) -> np.ndarray:
    """Full augmentation: time, lead-lag, invisibility-reset.

    An n-point path in R^d becomes a (2n+2)-point path in R^(2d+3) with
    channel layout [lead time, lead x_1..x_d, lag time, lag x_1..x_d,
    visibility].
    """
    return augment_visibility_reset(augment_leadlag(augment_time(points)))


def augmented_dim(d: int) -> int:
    """Channel count after augmentation."""
    return 2 * d + 3


def encode(points: np.ndarray, degree: int, basis: LyndonBasis | None = None) -> np.ndarray:
    """Log-signature feature vector of a raw path.

    Augments the path, computes the truncated signature, takes the tensor
    logarithm, and projects onto the Lyndon-word basis.

    Args:
        points: (n, d) array of path points, n >= 2.
        degree: signature truncation degree.
        basis: optional prebuilt basis over 2d+3 letters (rebuilt if omitted).

    Returns:
        Flat float64 vector of length ``lyndon_dim(2d+3, degree)``.
    """
    pts = _check_path(points)
    aug = augment(pts)
    if basis is None:
        basis = LyndonBasis.build(aug.shape[1], degree)
    elif basis.alphabet_size != aug.shape[1] or basis.degree != degree:
        raise ValueError(
            f"basis (D={basis.alphabet_size}, M={basis.degree}) does not match "
            f"augmented path (D={aug.shape[1]}, M={degree})"
        )
    return lyndon_project(tensor_log(path_signature(aug, degree)), basis)
