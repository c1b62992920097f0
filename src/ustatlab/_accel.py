"""Closed forms of the untruncated built-in kernels, in numpy.

* Product kernel ``h = prod x_i`` of any order m (the identity kernel is
  its order-1 case): the elementary-symmetric-polynomial (ESP) forms
  ``esp``, ``esp_prefix`` and ``product_q_raw`` in O(n m), and the
  order-3 shared-pair total ``product_shared_pair_total``.
* Variance kernel ``h = (x - y)^2 / 2``: the power-sum forms
  ``variance_sum``, ``variance_prefix`` and ``variance_q_raw`` in O(n).

None of these takes a truncation threshold: a truncated kernel has no
closed form here and is enumerated by :mod:`ustatlab.engine`, which
decides the route once, in :func:`ustatlab.engine.kernel_route`.
"""

from __future__ import annotations

import numpy as np

KERNEL_PRODUCT = 1   # h(x_1..x_m) = prod x_i
KERNEL_VARIANCE = 2  # m = 2, h(x, y) = (x - y)^2 / 2


def _as_f64(data) -> np.ndarray:
    return np.ascontiguousarray(data, dtype=np.float64)


# ---------------------------------------------------------------------------
# product kernel
# ---------------------------------------------------------------------------

def _power(x: np.ndarray, k: int) -> np.ndarray:
    return x if k == 1 else x ** k  # x ** 1 would copy x


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
    p = [float(_power(x, k).sum()) for k in range(1, min(top, 4) + 1)]
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
        c = [np.concatenate([[0.0], np.cumsum(_power(x, k))]) for k in range(1, m + 1)]
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


def product_shared_pair_total(data) -> float:
    """sum over distinct ordered (i1,i2,i3,i4) of h(x1,x2,x3) * h(x1,x2,x4)
    for the order-3 product kernel."""
    x = _as_f64(data)
    n = x.shape[0]
    s1 = float(x.sum())
    s2 = float((x * x).sum())
    total = 0.0
    for i in range(n):
        xj = np.delete(x, i)
        t = x[i] * xj * (s1 - x[i] - xj)
        qq = x[i] ** 2 * xj ** 2 * (s2 - x[i] ** 2 - xj ** 2)
        total += float((t * t - qq).sum())
    return total


# ---------------------------------------------------------------------------
# variance kernel
# ---------------------------------------------------------------------------

def variance_sum(data) -> float:
    """Sum of h over all pairs of data."""
    x = _as_f64(data)
    n = x.shape[0]
    s1 = float(x.sum())
    s2 = float((x * x).sum())
    return 0.5 * (n * s2 - s1 * s1)


def variance_q_raw(data) -> np.ndarray:
    """q_raw[i] = sum of h over the pairs containing i."""
    x = _as_f64(data)
    n = x.shape[0]
    s1 = float(x.sum())
    s2 = float((x * x).sum())
    return 0.5 * ((n - 1) * x * x - 2.0 * x * (s1 - x) + (s2 - x * x))


def variance_prefix(data) -> np.ndarray:
    """out[k] = sum of h over all pairs of data[:k], k = 0..n."""
    x = _as_f64(data)
    n = x.shape[0]
    c1 = np.concatenate([[0.0], np.cumsum(x)])
    c2 = np.concatenate([[0.0], np.cumsum(x * x)])
    k = np.arange(n + 1, dtype=np.float64)
    return 0.5 * (k * c2 - c1 * c1)


def max_abs_kernel(code: int, data, m: int) -> float:
    """max over m-subsets of |h| for an untruncated built-in kernel."""
    x = _as_f64(data)
    if code == KERNEL_VARIANCE:
        return 0.5 * float(x.max() - x.min()) ** 2
    top = np.sort(np.abs(x))[-m:]
    return float(np.prod(top))
