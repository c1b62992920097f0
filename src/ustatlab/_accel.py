"""Closed forms and sort routes of the built-in kernels, in numpy.

This is the one module that tells the built-in kernels apart and picks
between their closed forms and their sort routes.  Each reduction takes
any kernel code, None (a kernel that is not built in) included, and
either answers exactly or returns None: :mod:`ustatlab.engine`, the one
module that calls the reductions, enumerates what they decline and owns
every refusal.

Five reductions take ``(code, thr, data, m)`` and compute the truncated
kernel ``h * 1(|h| <= thr)``: ``ustat_sum`` (the sum of h over all
m-combinations), ``prefix_sums`` (that sum over each prefix of the data)
and ``q_raw`` (per point, the sum of h over the m-subsets containing it),
and for the NEGLIGIBILITY statistics of :mod:`ustatlab.experiments`
``square_sum`` (the sum of h^2, diagonal-square) and ``shared_pair_total``
(the order-3 shared-pair total).  A result shares no memory with
``data``.  Each takes the closed form of the untruncated kernel when the
truncation keeps every evaluation: when ``thr`` is infinite, or when the
O(n) bound :func:`max_abs_kernel` on |h| is at most ``thr``.  The bound
is at least every |h| as the enumeration of :mod:`ustatlab.engine`
rounds it, so the shortcut keeps exactly the enumeration's kept set; an
overflowed bound is infinite.  Where the truncation bites, the first
three take a sort route, and a reduction returns None where none covers
the kernel: products of order > 3, the two NEGLIGIBILITY sums, and the
order-3 product past ``MAX_SORT_PAIRS`` pairs.  The three scalar sums
(``ustat_sum``, ``square_sum`` and ``shared_pair_total``) also return
None where a closed form or a sort route sums past the float range, so
the enumeration settles them; the array reductions return what they sum.

A kernel's code is ``KERNEL_PRODUCT`` or ``KERNEL_VARIANCE``, or the pair
``(KERNEL_CONSTANT, c)`` for the constant kernel h = c of any order,
whose value travels with its code.  A truncation keeps all of its
evaluations when |c| <= thr and none otherwise, so every reduction takes
its closed form with c or with 0, at any order.

Closed forms:

* Product kernel ``h = prod x_i`` of any order m (the identity kernel is
  its order-1 case): elementary symmetric polynomials (ESPs) from the
  summation recurrence ``e_j(x[:k]) = sum over i < k of x_i
  e_(j-1)(x[:i])``, one running sum per order, in O(n m).  ``q_raw``
  downdates the totals e_1..e_(m-1), and sums e_(m-1) again without each
  of the m - 1 largest |x|, where the downdate cancels.  The order-3
  shared-pair total is one n x n contraction.
* Variance kernel ``h = (x - y)^2 / 2``: power sums in O(n), taken over
  the data centered on its mean.
* Constant kernel: c C(n, m), c times the cached column of C(k, m) over
  the prefixes (:func:`_comb_column`) and c C(n - 1, m - 1) per point,
  the same float at every point; c^2 C(n, m) and c^2 [n]_4 for the two
  NEGLIGIBILITY sums.
* Sums of h^2: e_m(x^2) for the product kernel, whose square is the
  product kernel of x^2; fourth power sums of the centered data for the
  variance kernel.

Sort routes, for the product kernel of order m <= 3 and the variance
kernel: the kept partners of a point form a prefix of the data sorted by
|x| (product) or a window of the data sorted by x (variance), because
rounded multiplication and subtraction are monotone; cumulative sums
over that order give the sums in O(n log n).  Sums in data order
(``prefix_sums``) are two-dimensional dominance sums: merge levels over
the index axis (:func:`_dominance`).  The order-3 product runs the
order-2 route at each last index k (:func:`_product3`): a kept triple
i < j < k is a kept pair of x[:k] at the last factor |x_k|, so the route
takes O(n^2 log n) time in O(n) memory, and serves at most
``MAX_SORT_PAIRS`` pairs for its time.
A cut found by ``searchsorted`` on ``thr / |x|`` is settled against the
kernel value itself, computed in the order the enumeration of
:mod:`ustatlab.engine` computes it, so the kept set is exactly the
enumeration's.  The rounding error of the product routes is relative to
the kept terms; the variance route adds power sums of x about its median
element, whose rounding error scales with the squared spread of the data
instead.

The exact binomial columns C(k, m) live here too (:func:`_binomials`,
:func:`_comb_column`): the engine's enumeration takes its block starts
from them and divides prefix sums by them, the variance prefix and the
Studentized path take the order-1 column as their float k-grid.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

KERNEL_PRODUCT = 1   # h(x_1..x_m) = prod x_i
KERNEL_VARIANCE = 2  # m = 2, h(x, y) = (x - y)^2 / 2
KERNEL_CONSTANT = 3  # h = c, coded as the pair (KERNEL_CONSTANT, c)
MAX_SORT_ORDER = 3   # the sort routes cover the built-in kernels of order <= 3
# the order-3 sort route's time grows as C(n, 2) log n: on a 2-core VM it
# takes ~0.25 s at n = 2000, and the enumeration at its own cap, C(844, 3)
# triples, ~0.55 s
MAX_SORT_PAIRS = 2 * 10 ** 6


def _as_f64(data) -> np.ndarray:
    return np.ascontiguousarray(data, dtype=np.float64)


def running_sums(v: np.ndarray) -> np.ndarray:
    """out[k] = v[0] + ... + v[k-1] for k = 0..len(v), accumulated left
    to right into one new array."""
    out = np.empty(v.shape[0] + 1)
    out[0] = 0.0
    np.cumsum(v, out=out[1:])
    return out


def _accumulate(out: np.ndarray) -> np.ndarray:
    """:func:`running_sums` in place: out[1:] holds the terms on entry and
    out[k] their running sums on return."""
    out[0] = 0.0
    np.cumsum(out[1:], out=out[1:])
    return out


def _binomials(n: int, r: int) -> np.ndarray:
    """C(t, r) for t = 0..n, exact: the falling factorial t (t-1) .. (t-r+1),
    which is 0 for t < r, floor-divided by r!, in int64 while n^r fits;
    Python integers from math.comb past that.  The factor t - j of entry
    t is entry t - j of the index grid, so the product is formed in place
    on shifted slices."""
    if n ** r >= 2 ** 63:
        return np.array([math.comb(t, r) for t in range(n + 1)], dtype=object)
    ts = np.arange(n + 1, dtype=np.int64)
    falling = np.ones(n + 1, dtype=np.int64)
    for j in range(min(r, n + 1)):
        falling[j:] *= ts[:n + 1 - j]  # entries below j already hold 0
    falling //= math.factorial(r)
    return falling


_COLUMNS: dict = {}  # order m -> the read-only float(C(k, m)), k = m..N


def _comb_column(n: int, m: int) -> np.ndarray:
    """float(C(k, m)) for k = m..n, read-only.  C(k, m) does not depend on
    n, so one column is kept per order m, grown to the largest n asked
    for, and every smaller n gets a prefix view of it: a study builds each
    column once, in its first replication, whatever its n-grid.  The
    order-1 column is the float k-grid k = 1..n."""
    col = _COLUMNS.get(m)
    if col is None or col.shape[0] < n - m + 1:
        # C(k, 1) = k needs no integer pass, and its temporaries would set
        # the peak memory of a Studentized path's first replication
        col = (np.arange(1, n + 1, dtype=np.float64) if m == 1
               else _binomials(n, m)[m:].astype(np.float64))
        col.flags.writeable = False
        _COLUMNS[m] = col
    return col[:max(n - m + 1, 0)]


# ---------------------------------------------------------------------------
# closed forms: untruncated kernels
# ---------------------------------------------------------------------------

def _esp_rows(x: np.ndarray):
    """Yield e_1, e_2, ... over the prefixes of x, e_j[k] = e_j(x[:k]) for
    k = 0..n, by the summation recurrence e_j(x[:k]) = sum over i < k of
    x_i e_(j-1)(x[:i]): one running sum per order."""
    e = running_sums(x)
    while True:
        yield e
        nxt = np.empty_like(e)
        np.multiply(x, e[:-1], out=nxt[1:])
        e = _accumulate(nxt)


def _esp_prefix(x: np.ndarray, m: int) -> np.ndarray:
    """e_m(x[:k]) for k = 0..n: row m of the recurrence."""
    return next(itertools.islice(_esp_rows(x), m - 1, None))


def _esp_totals(x: np.ndarray, top: int) -> list:
    """[e_1(x), ..., e_top(x)]: e_1 is the sum of x, and e_(j+1) is x
    against row j of the recurrence, without building row j + 1."""
    return [float(x.sum())] + [float(np.einsum("i,i->", x, e[:-1]))
                               for e in itertools.islice(_esp_rows(x), top - 1)]


def _product_q_raw(x: np.ndarray, m: int) -> np.ndarray:
    """q_raw by the ESP downdate e_k(x without x_i) = e_k(x) - x_i
    e_(k-1)(x without x_i), from the totals e_1..e_(m-1).

    The downdate cancels where x_i outweighs the rest of the data, which
    only the m - 1 largest |x| can; for those, e_(m-1) is summed again
    without x_i, in O(n m^2) in all, so every q_raw[i] is accurate to the
    sum of |h| over the subsets containing i."""
    if m == 1:
        return x.copy()
    if m == 2:
        # e_1 summed around the largest |x|, whose q then needs no downdate;
        # q holds |x| first, so the call allocates one array
        q = np.abs(x)
        i = int(q.argmax())
        rest = float(x[:i].sum()) + float(x[i + 1:].sum())
        np.subtract(rest + x[i], x, out=q)
        q *= x
        q[i] = x[i] * rest
        return q
    e = _esp_totals(x, m - 1)
    b = e[0] - x
    for ek in e[1:]:
        b = ek - x * b
    q = x * b
    for i in np.argpartition(np.abs(x), x.shape[0] - m + 1)[x.shape[0] - m + 1:]:
        q[i] = x[i] * _esp_totals(np.delete(x, i), m - 1)[-1]
    return q


def _centered(x: np.ndarray) -> np.ndarray:
    """x minus its mean: the variance kernel is shift-invariant, and power
    sums of the centered data do not cancel the way power sums of shifted
    data do."""
    return x - x.sum() / x.shape[0]


def _variance_sum(x: np.ndarray) -> float:
    y = _centered(x)
    s1 = float(y.sum())
    s2 = float((y * y).sum())
    return 0.5 * (y.shape[0] * s2 - s1 * s1)


def _variance_q_raw(x: np.ndarray) -> np.ndarray:
    y = _centered(x)
    s1 = float(y.sum())
    s2 = float((y * y).sum())
    return 0.5 * ((y.shape[0] * y - 2.0 * s1) * y + s2)


def _variance_prefix(x: np.ndarray) -> np.ndarray:
    """0.5 (k c2 - c1^2) over the prefixes, c_p the running power sums of
    the centered data, built in the buffers of c1 and c2."""
    c1 = np.empty(x.shape[0] + 1)
    y = c1[1:]
    np.subtract(x, x.sum() / x.shape[0], out=y)  # _centered, in place
    c2 = np.empty_like(c1)
    np.multiply(y, y, out=c2[1:])
    _accumulate(c2)
    _accumulate(c1)
    c2[1:] *= _comb_column(x.shape[0], 1)
    c1 *= c1
    c2 -= c1
    c2 *= 0.5
    return c2


def _variance_square_sum(x: np.ndarray) -> float:
    """sum over i < j of (x_i - x_j)^4 / 4 = (n S4 - 4 S1 S3 + 3 S2^2) / 4,
    S_p the power sums of the centered data, where S1 is rounding noise."""
    y = _centered(x)
    y2 = y * y
    s1 = float(y.sum())
    s2 = float(y2.sum())
    s3 = float(np.einsum("i,i->", y2, y))
    s4 = float(np.einsum("i,i->", y2, y2))
    return 0.25 * (y.shape[0] * s4 - 4.0 * s1 * s3 + 3.0 * s2 * s2)


def _constant(code, thr: float):
    """The value the constant kernel, coded (KERNEL_CONSTANT, c), keeps
    under thr: c when |c| <= thr, else 0, since then every evaluation is
    dropped.  None for the other kernels, whose codes are plain integers."""
    if not isinstance(code, tuple):
        return None
    c = code[1]
    return c if abs(c) <= thr else 0.0


def max_abs_kernel(code, data, m: int):
    """The largest |h| over the m-subsets of an untruncated built-in
    kernel, in O(n), or None for a kernel with no code: 0.5 (max x -
    min x)^2 for the variance kernel, |c| for the constant kernel, and for
    the product kernel the product P of the m largest |x|.

    The bound is at least every |h| as the enumeration of
    :mod:`ustatlab.engine` rounds it, since rounded subtraction and
    multiplication are monotone and each factor of a subset is at most
    the matching one of the m largest |x|.  For m <= 3, P is the largest
    over every order of the factors, with no margin.  For m > 3, P is
    increased by 2m ulps for the m - 1 roundings of the enumeration and of P;
    where the factors below 1 may leave the normal range, whose rounding
    error is absolute, P leaves them out, as they only shrink a product.
    An overflow, or one the enumeration may meet, gives inf.
    """
    if code is None:
        return None
    c = _constant(code, math.inf)
    if c is not None:
        return abs(c)
    x = _as_f64(data)
    with np.errstate(over="ignore"):
        if code == KERNEL_VARIANCE:
            d = x.max() - x.min()
            return float(0.5 * (d * d))
        n = x.shape[0]
        top = sorted(np.partition(np.abs(x), n - m)[n - m:].tolist())
    if m <= MAX_SORT_ORDER:
        peaks = [math.prod(p) for p in itertools.permutations(top)]
        return math.inf if any(map(math.isnan, peaks)) else max(peaks)
    big = math.prod(v for v in top if v >= 1.0)
    if not big < 2.0 ** 1023:
        return math.inf
    peak = math.prod(top) if math.prod(v for v in top if 0.0 < v < 1.0) >= 2.0 ** -1021 else big
    for _ in range(2 * m):
        peak = math.nextafter(peak, math.inf)
    return peak


# ---------------------------------------------------------------------------
# sort routes: truncated kernels h * 1(|h| <= thr)
# ---------------------------------------------------------------------------

def _sorted_by(key: np.ndarray):
    """(order, rank, key[order]) with rank[order] = 0, 1, 2, ..."""
    order = np.argsort(key, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return order, rank, key[order]


def _settle(s: np.ndarray, cut: np.ndarray, holds) -> np.ndarray:
    """Correct each guessed cut[q] to the count of the ascending ``s`` on
    which ``holds(q, value)`` is true, where that set is a prefix of s around
    the guess.  Steps over whole runs of equal values, which share the
    predicate, so the loops end after a step or two."""
    cut = cut.copy()
    q = np.flatnonzero(cut < s.shape[0])
    q = q[holds(q, s[cut[q]])]
    while q.size:
        cut[q] = np.searchsorted(s, s[cut[q]], side="right")
        q = q[cut[q] < s.shape[0]]
        q = q[holds(q, s[cut[q]])]
    q = np.flatnonzero(cut > 0)
    q = q[~holds(q, s[cut[q] - 1])]
    while q.size:
        cut[q] = np.searchsorted(s, s[cut[q] - 1], side="left")
        q = q[cut[q] > 0]
        q = q[~holds(q, s[cut[q] - 1])]
    return cut


def _product_cut(a: np.ndarray, s: np.ndarray, thr: float, last: float) -> np.ndarray:
    """cut[q] = number of the ascending magnitudes s with (a[q] * s) * last
    <= thr, the product rounded as the kernel rounds it; order 2 passes
    last = 1.0, which leaves every product as it is."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        guess = np.searchsorted(s, thr / a / last, side="right")
        return _settle(s, guess, lambda q, v: a[q] * v * last <= thr)


def _dominance(rank: np.ndarray, w: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """out[j, c] = sum of the rows w[i] over i < j with rank[i] < cuts[j, c].

    Merge levels over the index axis, padded to a power of two: at the
    level of half-width s, each j in the right half of a block of width 2s
    takes the i in the left half, whose weights are summed in rank order
    within their block (a running sum per block, so a result holds only
    its own terms).  Every i < j is split at exactly one level.  Ranks are
    distinct and below n; cuts lie in [0, n].
    """
    n, cols = w.shape
    size = 1 << (n - 1).bit_length()
    span = n + 1
    rank = np.concatenate([rank, np.full(size - n, n)])  # padding: never below a cut
    w = np.concatenate([w, np.zeros((size - n, cols))])
    cuts = np.concatenate([cuts, np.zeros((size - n, cuts.shape[1]), dtype=cuts.dtype)])
    out = np.zeros((size, cuts.shape[1], cols))
    s = 1
    while s < size:
        blocks = size // (2 * s)
        left = rank.reshape(blocks, 2, s)[:, 0]
        o = np.argsort(left, axis=1)
        base = np.arange(blocks)[:, None]
        keys = (np.take_along_axis(left, o, axis=1) + base * span).ravel()
        table = np.zeros((blocks, s + 1, cols))
        table[:, 1:] = w.reshape(blocks, 2, s, cols)[:, 0][base, o]
        np.cumsum(table, axis=1, out=table)
        right = cuts.reshape(blocks, 2, s, -1)[:, 1] + (base * span)[:, :, None]
        # position in the flat keys, plus one leading zero row per block
        taken = np.searchsorted(keys, right) + base[:, :, None]
        out.reshape(blocks, 2, s, -1, cols)[:, 1] += table.reshape(-1, cols)[taken]
        s *= 2
    return out[:n]


def _product2(x: np.ndarray, thr: float, last: float = 1.0):
    """(|x|-order, |x|-rank, cut): the kept partners of i are the ranks
    below cut[i], the pairs with (|x_i| |x_j|) last <= thr."""
    a = np.abs(x)
    order, rank, s = _sorted_by(a)
    return order, rank, _product_cut(a, s, thr, last)


def _pair_terms(x: np.ndarray, thr: float, last: float = 1.0) -> np.ndarray:
    """x_i times the sum of its kept partners x_j, j != i: the kept ranks
    below cut[i], without i itself.  Order 2's q_raw at last = 1.0."""
    order, rank, cut = _product2(x, thr, last)
    c = running_sums(x[order])
    return x * (c[np.minimum(cut, rank)] + (c[np.maximum(cut, rank + 1)] - c[rank + 1]))


def _product3(x: np.ndarray, thr: float):
    """(by_last, q_raw) of the order-3 product kernel.  A kept triple
    i < j < k is a kept pair (i, j) of x[:k] at the last factor |x_k|, so
    the order-2 route runs at each k: its pair terms times x_k go to q_raw
    at i, and half their sum, halved term by term so that it stays in the
    float range wherever by_last[k] does, is by_last[k], which q_raw
    credits to k."""
    by_last = np.zeros(x.shape[0])
    q = np.zeros(x.shape[0])
    for k in range(2, x.shape[0]):
        t = x[k] * _pair_terms(x[:k], thr, abs(x[k]))
        q[:k] += t
        t *= 0.5
        by_last[k] = t.sum()
    q += by_last
    return by_last, q


def _variance_cuts(x: np.ndarray, s: np.ndarray, thr: float):
    """Per point, the kept window [lo, hi) of the ascending s and the run
    [t0, t1) of values equal to the point, which contributes h = 0."""
    half = np.sqrt(2.0 * thr)
    t0 = np.searchsorted(s, x, side="left")
    t1 = np.searchsorted(s, x, side="right")
    with np.errstate(over="ignore", invalid="ignore"):
        def kept(q, v):
            return 0.5 * (v - x[q]) ** 2 <= thr

        lo = _settle(s, np.searchsorted(s, x - half, side="left"),
                     lambda q, v: ~kept(q, v))
        hi = _settle(s, np.searchsorted(s, x + half, side="right"), kept)
    return np.column_stack([lo, t0, t1, hi])


def _variance_terms(y: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """0.5 * sum (y_j - y_i)^2 from sums[:, 0..3, :] taken at the cuts
    lo, t0, t1, hi of the weights (1, y, y^2)."""
    part = (sums[:, 1] - sums[:, 0]) + (sums[:, 3] - sums[:, 2])
    return 0.5 * (part[:, 0] * y * y - 2.0 * y * part[:, 1] + part[:, 2])


def _variance_setup(x: np.ndarray, thr: float):
    """(order and rank by x, cuts, y, weights (1, y, y^2)): y is x centered
    on its median element, which keeps the power sums of y small for
    shifted data."""
    order, rank, s = _sorted_by(x)
    y = x - s[s.shape[0] // 2]
    weights = np.column_stack([np.ones_like(y), y, y * y])
    return order, rank, _variance_cuts(x, s, thr), y, weights


def _by_last(code: int, thr: float, x: np.ndarray, m: int) -> np.ndarray:
    """by_last[k] = sum of the kept combinations whose largest index is k."""
    if code == KERNEL_VARIANCE:
        _, rank, cuts, y, w = _variance_setup(x, thr)
        return _variance_terms(y, _dominance(rank, w, cuts))
    if m == 1:
        return np.where(np.abs(x) <= thr, x, 0.0)
    if m == 2:
        _, rank, cut = _product2(x, thr)
        return x * _dominance(rank, x[:, None], cut[:, None])[:, 0, 0]
    return _product3(x, thr)[0]


# ---------------------------------------------------------------------------
# the reductions: the closed form where the threshold keeps every
# evaluation, else a sort route, else None, for the engine to enumerate
# ---------------------------------------------------------------------------

def _keeps_all(code, thr: float, x: np.ndarray, m: int) -> bool:
    """Whether h * 1(|h| <= thr) of a built-in kernel keeps every
    evaluation on x, so that it equals the untruncated kernel there."""
    return code is not None and (thr == math.inf or max_abs_kernel(code, x, m) <= thr)


def _sorts(code, x: np.ndarray, m: int) -> bool:
    """Whether a sort route covers the truncated kernel on x: the variance
    kernel, the product kernel of order <= 3 (3 within MAX_SORT_PAIRS pairs)."""
    return code == KERNEL_VARIANCE or code == KERNEL_PRODUCT and (
        m < MAX_SORT_ORDER
        or m == MAX_SORT_ORDER and math.comb(x.shape[0], 2) <= MAX_SORT_PAIRS)


def _finite(total: float):
    """A closed form's or sort route's sum, or None where it is not finite:
    its order of additions can overflow, or meet inf - inf, where the
    enumeration's stays in range."""
    return total if math.isfinite(total) else None


def ustat_sum(code, thr: float, data, m: int):
    """Sum of the kernel over all m-combinations."""
    x = _as_f64(data)
    c = _constant(code, thr)
    if c is not None:
        return c * math.comb(x.shape[0], m)
    if _keeps_all(code, thr, x, m):
        return _finite(_variance_sum(x) if code == KERNEL_VARIANCE else _esp_totals(x, m)[-1])
    return _finite(float(_by_last(code, thr, x, m).sum())) if _sorts(code, x, m) else None


def prefix_sums(code, thr: float, data, m: int):
    """out[k] = sum of the kernel over the combinations of data[:k],
    k = 0..n, in a fresh array on every route: it shares no memory with
    ``data`` or with any other result, so the caller may overwrite it."""
    x = _as_f64(data)
    c = _constant(code, thr)
    if c is not None:
        out = np.zeros(x.shape[0] + 1)
        np.multiply(_comb_column(x.shape[0], m), c, out=out[m:])
        return out
    if _keeps_all(code, thr, x, m):
        return _variance_prefix(x) if code == KERNEL_VARIANCE else _esp_prefix(x, m)
    return running_sums(_by_last(code, thr, x, m)) if _sorts(code, x, m) else None


def q_raw(code, thr: float, data, m: int):
    """q_raw[i] = sum of the kernel over the m-subsets containing i, in a
    fresh array on every route, which the caller may overwrite."""
    x = _as_f64(data)
    c = _constant(code, thr)
    if c is not None:
        return np.full(x.shape[0], c * math.comb(x.shape[0] - 1, m - 1))
    if _keeps_all(code, thr, x, m):
        return _variance_q_raw(x) if code == KERNEL_VARIANCE else _product_q_raw(x, m)
    if not _sorts(code, x, m):
        return None
    if code == KERNEL_VARIANCE:
        order, _, cuts, y, w = _variance_setup(x, thr)
        sums = np.concatenate([np.zeros((1, 3)), np.cumsum(w[order], axis=0)])
        return _variance_terms(y, sums[cuts])
    if m == 1:
        return np.where(np.abs(x) <= thr, x, 0.0)
    return _pair_terms(x, thr) if m == 2 else _product3(x, thr)[1]


def square_sum(code, thr: float, data, m: int):
    """Sum of h^2 over all m-combinations: c^2 C(n, m) for the constant
    kernel, e_m(x^2) for the product kernel (whose square is the product
    kernel of x^2) and :func:`_variance_square_sum` for the variance
    kernel; None when the truncation bites or the sum is not finite."""
    x = _as_f64(data)
    c = _constant(code, thr)
    if c is not None:
        return c * c * math.comb(x.shape[0], m)
    if not _keeps_all(code, thr, x, m):
        return None
    return _finite(_variance_square_sum(x) if code == KERNEL_VARIANCE
                   else _esp_totals(x * x, m)[-1])


def shared_pair_total(code, thr: float, data, m: int = 3):
    """sum over distinct ordered (i1,i2,i3,i4) of h(x1,x2,x3) * h(x1,x2,x4)
    for a kernel of order m = 3: c^2 [n]_4 for the constant kernel, and
    for the product kernel, over the ordered pairs i != j, (x_i x_j)^2
    ((sum of the other x)^2 - sum of the other x^2), as one n x n array;
    None for any other kernel, when the truncation bites or when the sum
    is not finite."""
    x = _as_f64(data)
    c = _constant(code, thr)
    if c is not None:
        return c * c * float(math.perm(x.shape[0], 4))
    if code != KERNEL_PRODUCT or not _keeps_all(code, thr, x, m):
        return None
    xx = x * x
    s1 = float(x.sum())
    s2 = float(xx.sum())
    t = (x[:, None] * x) * ((s1 - x)[:, None] - x)
    d = t * t - (xx[:, None] * xx) * ((s2 - xx)[:, None] - xx)
    np.fill_diagonal(d, 0.0)
    return _finite(float(d.sum()))
