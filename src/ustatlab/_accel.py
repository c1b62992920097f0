"""Hot numeric kernels of the built-in kernels, in numpy.

Two families of entry points:

* the elementary-symmetric-polynomial (ESP) closed forms ``esp``,
  ``esp_prefix`` and ``product_q_raw``, which serve the untruncated
  product kernel of any order m in O(n m);
* ``ustat_sum``, ``q_raw``, ``prefix_sums`` and ``shared_pair_total``
  for a built-in kernel addressed by an integer code plus a truncation
  threshold ``thr`` (``inf`` means untruncated), m <= 3.  Evaluation is
  ``h * 1(|h| <= thr)``.  The untruncated variance and identity kernels
  have closed forms; everything else enumerates with masked arrays.

Which family serves a kernel is decided once, by
:func:`ustatlab.engine.kernel_route`; the second family also accepts an
untruncated product kernel, but enumerates it.  Grand totals are reduced
as numpy sums of per-first-index partials, which bounds the accumulated
rounding error well below the 1e-9 relative tolerances asserted by the
test suite.
"""

from __future__ import annotations

import math

import numpy as np

KERNEL_IDENTITY = 0  # m = 1, h(x) = x
KERNEL_PRODUCT = 1   # h(x_1..x_m) = prod x_i
KERNEL_VARIANCE = 2  # m = 2, h(x, y) = (x - y)^2 / 2


def _as_f64(data) -> np.ndarray:
    return np.ascontiguousarray(data, dtype=np.float64)


def _mask(h: np.ndarray, thr: float) -> np.ndarray:
    """h * 1(|h| <= thr); h itself when untruncated."""
    if math.isfinite(thr):
        return np.where(np.abs(h) <= thr, h, 0.0)
    return h


def _hmat2(code: int, thr: float, x: np.ndarray) -> np.ndarray:
    """Full n x n matrix of pair evaluations h(x_i, x_j)."""
    if code == KERNEL_PRODUCT:
        h = np.outer(x, x)
    elif code == KERNEL_VARIANCE:
        d = x[:, None] - x[None, :]
        h = 0.5 * d * d
    else:
        raise ValueError(f"code {code} is not a pair kernel")
    return _mask(h, thr)


def _hvec3(code: int, thr: float, a: float, b: float, xs: np.ndarray) -> np.ndarray:
    """Vector of triple evaluations h(a, b, xs[k])."""
    if code != KERNEL_PRODUCT:
        raise ValueError(f"code {code} is not a triple kernel")
    return _mask(a * b * xs, thr)


# ---------------------------------------------------------------------------
# ESP closed forms (untruncated product kernel)
# ---------------------------------------------------------------------------

def _from_power_sums(p: list, m: int):
    """e_m by Newton's identities from p[k-1] = sum of x^k, 1 <= m <= 4.
    Scalar power sums give e_m(x); prefix-sum arrays give e_m of every
    prefix."""
    if m == 1:
        return p[0]
    if m == 2:
        return 0.5 * (p[0] ** 2 - p[1])
    if m == 3:
        return (p[0] ** 3 - 3.0 * p[0] * p[1] + 2.0 * p[2]) / 6.0
    return (
        p[0] ** 4 - 6.0 * p[0] ** 2 * p[1] + 3.0 * p[1] ** 2
        + 8.0 * p[0] * p[2] - 6.0 * p[3]
    ) / 24.0


def _esps(x: np.ndarray, top: int) -> list:
    """[e_0(x), ..., e_top(x)]: Newton's identities up to e_4, the
    triangular update above (rare m >= 5)."""
    p = [float((x ** k).sum()) for k in range(1, min(top, 4) + 1)]
    e = [1.0] + [_from_power_sums(p, k) for k in range(1, len(p) + 1)]
    if top > 4:
        t = np.zeros(top + 1)
        t[0] = 1.0
        for xi in x:
            for j in range(top, 0, -1):
                t[j] += xi * t[j - 1]
        e += [float(v) for v in t[5:]]
    return e


def esp(data, m: int) -> float:
    """Elementary symmetric polynomial e_m(data)."""
    return _esps(_as_f64(data), m)[m]


def esp_prefix(data, m: int) -> np.ndarray:
    """out[k] = e_m(data[:k]) for k = 0..n."""
    x = _as_f64(data)
    n = x.shape[0]
    if m == 0:
        return np.ones(n + 1)
    if m <= 4:
        c = [np.concatenate([[0.0], np.cumsum(x ** k)]) for k in range(1, m + 1)]
        return _from_power_sums(c, m)
    out = np.zeros(n + 1)
    e = np.zeros(m + 1)
    e[0] = 1.0
    for k in range(n):
        for j in range(min(k + 1, m), 0, -1):
            e[j] += x[k] * e[j - 1]
        out[k + 1] = e[m]
    return out


def product_q_raw(data, m: int) -> np.ndarray:
    """q_raw[i] = sum over m-subsets containing i of prod(x), by the ESP
    downdate e_k(x without x_i) = e_k(x) - x_i e_(k-1)(x without x_i)."""
    x = _as_f64(data)
    e = _esps(x, m - 1)
    b = np.ones_like(x)
    for k in range(1, m):
        b = e[k] - x * b
    return x * b


# ---------------------------------------------------------------------------
# built-in kernels by code and threshold, m <= 3
# ---------------------------------------------------------------------------

def ustat_sum(code: int, thr: float, data, m: int) -> float:
    """Sum of h over all m-subsets of data."""
    x = _as_f64(data)
    n = x.shape[0]
    if m == 1:
        return float(_mask(x, thr).sum())
    if m == 2:
        if code == KERNEL_VARIANCE and not math.isfinite(thr):
            s1 = float(x.sum())
            s2 = float((x * x).sum())
            return 0.5 * (n * s2 - s1 * s1)
        h = _hmat2(code, thr, x)
        return float((h.sum() - np.trace(h)) / 2.0)
    total = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            total[i] += _hvec3(code, thr, x[i], x[j], x[j + 1:]).sum()
    return float(total.sum())


def q_raw(code: int, thr: float, data, m: int) -> np.ndarray:
    """q_raw[i] = sum of h over the m-subsets of data containing i."""
    x = _as_f64(data)
    n = x.shape[0]
    if m == 1:
        return _mask(x, thr).copy()
    if m == 2:
        if code == KERNEL_VARIANCE and not math.isfinite(thr):
            s1 = float(x.sum())
            s2 = float((x * x).sum())
            return 0.5 * ((n - 1) * x * x - 2.0 * x * (s1 - x) + (s2 - x * x))
        h = _hmat2(code, thr, x)
        return h.sum(axis=1) - np.diag(h)
    q = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = _hvec3(code, thr, x[i], x[j], x[j + 1:])
            s = v.sum()
            q[i] += s
            q[j] += s
            q[j + 1:] += v
    return q


def prefix_sums(code: int, thr: float, data, m: int) -> np.ndarray:
    """out[k] = sum of h over all m-subsets of data[:k], k = 0..n."""
    x = _as_f64(data)
    n = x.shape[0]
    if m == 1:
        return np.concatenate([[0.0], np.cumsum(_mask(x, thr))])
    if code == KERNEL_VARIANCE and not math.isfinite(thr):
        c1 = np.concatenate([[0.0], np.cumsum(x)])
        c2 = np.concatenate([[0.0], np.cumsum(x * x)])
        k = np.arange(n + 1, dtype=np.float64)
        return 0.5 * (k * c2 - c1 * c1)
    out = np.zeros(n + 1)
    run = 0.0
    for k in range(n):
        if m == 2:
            h = x[:k] * x[k] if code == KERNEL_PRODUCT else 0.5 * (x[:k] - x[k]) ** 2
            run += float(_mask(h, thr).sum())
        else:
            for j in range(k):
                run += float(_hvec3(code, thr, x[j], x[k], x[j + 1:k]).sum())
        out[k + 1] = run
    return out


def shared_pair_total(code: int, thr: float, data) -> float:
    """sum over distinct ordered (i1,i2,i3,i4) of h(x1,x2,x3) * h(x1,x2,x4), m = 3."""
    x = _as_f64(data)
    n = x.shape[0]
    if code == KERNEL_PRODUCT and not math.isfinite(thr):
        s1 = float(x.sum())
        s2 = float((x * x).sum())
        total = 0.0
        for i in range(n):
            xj = np.delete(x, i)
            t = x[i] * xj * (s1 - x[i] - xj)
            qq = x[i] ** 2 * xj ** 2 * (s2 - x[i] ** 2 - xj ** 2)
            total += float((t * t - qq).sum())
        return total
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            mask = np.ones(n, dtype=bool)
            mask[i] = mask[j] = False
            v = _hvec3(code, thr, x[i], x[j], x[mask])
            total += float(v.sum() ** 2 - (v * v).sum())
    return total


def max_abs_kernel(code: int, data, m: int) -> float:
    """max over m-subsets of |h| for an untruncated built-in kernel."""
    x = _as_f64(data)
    if code == KERNEL_IDENTITY or m == 1:
        return float(np.abs(x).max())
    if code == KERNEL_VARIANCE:
        return 0.5 * float(x.max() - x.min()) ** 2
    top = np.sort(np.abs(x))[-m:]
    return float(np.prod(top))
