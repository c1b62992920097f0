"""Exact and incremental U-statistic evaluation.

Everything here is deterministic; Monte Carlo belongs to
:mod:`ustatlab.experiments`.  Each reduction of a kernel over a checked
sample is one private function (``_total``, ``_prefix_values``,
``_q_raw``, ``_square_sum``, ``_shared_pair_total`` and ``_max_abs``),
and each reaches :mod:`ustatlab._accel` and the enumeration through one
helper, :func:`_reduce`: after the size check it takes ``_accel``'s
answer, and where ``_accel`` declines (a kernel with no built-in code,
or a truncation that bites where no sort route covers the kernel) it
enumerates every m-combination (:func:`_combination_blocks`).  Only
``_accel`` tells the built-in kernels apart and picks between their
closed forms and sort routes.  Enumeration is capped (combination count
<= 1e8): past the cap the engine refuses with
:class:`ResourceLimitError` rather than silently subsampling.

The public functions check their data (``_as_sample``: one-dimensional,
float64, finite).  Callers that check once call the reductions directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import DomainError, InsufficientDataError, InvalidArgumentError, ResourceLimitError
from .kernels import Kernel, eval_kernel_rows

__all__ = [
    "MAX_ENUMERATION",
    "UPrefixValues",
    "u_statistic",
    "u_prefix_process",
    "combination_sum",
]

MAX_ENUMERATION = 10 ** 8
_CHUNK = 1 << 16


@dataclass(frozen=True)
class UPrefixValues:
    """U_k over prefixes: values[k] = U-statistic of data[:k] for k >= m,
    NaN below k = m (undefined, the step processes map those to 0)."""

    n: int
    m: int
    values: np.ndarray

    @property
    def final(self) -> float:
        return float(self.values[self.n])

    def u_at(self, k: int) -> float:
        if not (self.m <= k <= self.n):
            raise InsufficientDataError(f"U_k defined for {self.m} <= k <= {self.n}")
        return float(self.values[k])


def _as_sample(data) -> np.ndarray:
    """``data`` as a float64 array: data that is not one-dimensional raises
    InvalidArgumentError, and non-finite values raise DomainError."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgumentError(f"data must be one-dimensional, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError("data must be finite; got NaN or infinite values")
    return x


def _reduce(kernel: Kernel, x: np.ndarray, answer, enumerate_):
    """A reduction of ``kernel`` over a checked sample, the one route to
    ``_accel`` and the enumeration: after the size check,
    ``answer(code, thr, x, m)``, an ``_accel`` reduction, and where it
    returns None, ``enumerate_(kernel, x)`` over the blocks of
    :func:`_combination_blocks`, held to the enumeration cap.  On either
    route a sum past the float range is an infinity, not a warning."""
    n, m = x.shape[0], kernel.order
    if n < m:
        raise InsufficientDataError(f"need n >= m, got n={n}, m={m}")
    with np.errstate(over="ignore", invalid="ignore"):
        result = answer(kernel.accel_code, kernel.accel_thr, x, m)
        if result is not None:
            return result
        if math.comb(n, m) > MAX_ENUMERATION:
            raise ResourceLimitError(
                f"C({n},{m}) = {math.comb(n, m)} exceeds the {MAX_ENUMERATION} evaluation cap")
        return enumerate_(kernel, x)


def _colex_rows(pos: np.ndarray, starts: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Rows ``pos`` of the r-subsets of a range in colex order (sorted by
    their last element t), where starts[t] = C(t, r) and ``rest`` holds
    the (r-1)-subsets in colex order: row p is rest[p - C(t, r)] + (t,)."""
    top = np.searchsorted(starts, pos, side="right") - 1
    return np.column_stack([rest[pos - starts[top]], top])


def _colex_subsets(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n) as index rows in colex order."""
    if r == 0:
        return np.zeros((1, 0), dtype=np.intp)
    starts = _accel._binomials(n, r).astype(np.intp, copy=False)
    return _colex_rows(np.arange(starts[-1]), starts, _colex_subsets(n - 1, r - 1))


def _head_blocks(n: int, m: int):
    """Yield the (m-1)-subsets of range(n - 1), the "heads" of the
    m-combinations of range(n), in colex order, in blocks of about
    _CHUNK (head, last index) pairs."""
    r = m - 1
    if r == 0:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    starts = _accel._binomials(n - 1, r).astype(np.intp, copy=False)
    rest = _colex_subsets(n - 2, r - 1)
    p = 0
    while p < starts[-1]:
        top = int(np.searchsorted(starts, p, side="right")) - 1
        q = min(int(starts[-1]), p + max(1, _CHUNK // (n - 1 - top)))
        yield _colex_rows(np.arange(p, q), starts, rest)
        p = q


def _combination_blocks(kernel: Kernel, x: np.ndarray):
    """Yield ``(heads, lo, vals)`` covering every m-combination of x once:
    vals[a, b] = h(x[heads[a]], x[lo + b]) where lo + b > heads[a, -1],
    else 0.  Each combination sits in the column of its largest index."""
    n, m = x.shape[0], kernel.order
    for heads in _head_blocks(n, m):
        top = (heads[:, -1] if m > 1 else np.full(1, -1))[:, None]
        lo = int(top[0, 0]) + 1
        cols = np.empty((m, len(heads), n - lo))
        cols[:-1] = x[heads.T][:, :, None]
        cols[-1] = x[lo:]
        vals = eval_kernel_rows(kernel, cols.reshape(m, -1).T).reshape(cols.shape[1:])
        # heads are sorted by top, so only the first columns hold cells
        # with last <= top, which are not combinations
        k = int(top[-1, 0]) + 1 - lo
        vals[:, :k][np.arange(lo, lo + k) <= top] = 0.0
        yield heads, lo, vals


def combination_sum(kernel: Kernel, data) -> float:
    """Sum of h over all C(n, m) combinations."""
    return _total(kernel, _as_sample(data))


def u_statistic(kernel: Kernel, data) -> float:
    """U_n = C(n,m)^-1 * sum of h over all m-combinations."""
    return combination_sum(kernel, data) / math.comb(len(data), kernel.order)


def u_prefix_process(kernel: Kernel, data) -> UPrefixValues:
    """All prefix values U_m..U_n in one pass.

    sums[k] totals the combinations of data[:k]; on the enumeration route
    each combination is credited to its largest index, so sums is the
    running total of the per-index column sums.
    """
    return _prefix_values(kernel, _as_sample(data))


def _prefix_values(kernel: Kernel, x: np.ndarray) -> UPrefixValues:
    """:func:`u_prefix_process` of a checked sample."""
    n, m = x.shape[0], kernel.order
    # every route returns fresh sums, so U_k overwrites them
    values = _reduce(kernel, x, _accel.prefix_sums, _enumerated_prefix)
    values[:m] = np.nan
    np.divide(values[m:], _accel._comb_column(n, m), out=values[m:])
    return UPrefixValues(n=n, m=m, values=values)


def _enumerated_prefix(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    by_last = np.zeros(x.shape[0])
    for _, lo, vals in _combination_blocks(kernel, x):
        by_last[lo:] += vals.sum(axis=0)
    return _accel.running_sums(by_last)


def _total(kernel: Kernel, x: np.ndarray) -> float:
    """Sum of h over the m-combinations of a checked sample."""
    return _reduce(kernel, x, _accel.ustat_sum, lambda kernel, x: float(np.sum(
        [vals.sum() for _, _, vals in _combination_blocks(kernel, x)])))


def _q_raw(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    """q_raw[i] = un-normalized sum of h over m-subsets containing i, in a
    fresh array."""
    return _reduce(kernel, x, _accel.q_raw, _enumerated_q_raw)


def _enumerated_q_raw(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    """:func:`_q_raw` by enumeration: the column sums credit each
    combination's last index and the row sums each of its head indices."""
    q = np.zeros(x.shape[0])
    for heads, lo, vals in _combination_blocks(kernel, x):
        q[lo:] += vals.sum(axis=0)
        row = vals.sum(axis=1)
        for col in heads.T:
            q += np.bincount(col, weights=row, minlength=x.shape[0])
    return q


def _square_sum(kernel: Kernel, x: np.ndarray) -> float:
    """Sum of h^2 over the m-combinations of a checked sample."""
    return _reduce(kernel, x, _accel.square_sum, lambda kernel, x: float(np.sum(
        [(v * v).sum() for _, _, v in _combination_blocks(kernel, x)])))


def _shared_pair_total(kernel: Kernel, x: np.ndarray) -> float:
    """sum over distinct ordered (i, j, k, l) of h(x_i, x_j, x_k) *
    h(x_i, x_j, x_l) for an order-3 kernel, on a checked sample."""
    return _reduce(kernel, x, _accel.shared_pair_total, _shared_pair_generic)


def _shared_pair_generic(kernel: Kernel, x: np.ndarray) -> float:
    """:func:`_shared_pair_total` by one enumeration: 2 sum over a < b of
    P_ab^2 - 6 sum of h^2, P_ab the sum of h over the triples holding a, b."""
    n = len(x)
    pairs = np.zeros(n * n)
    squares = 0.0
    for heads, lo, vals in _combination_blocks(kernel, x):
        # the triple in vals[r, c] is (i, j, k) = (*heads[r], lo + c); each
        # of its pairs {i, j}, {i, k}, {j, k} gets h at index a * n + b
        i, j, k = heads[:, :1], heads[:, 1:], np.arange(lo, n)
        index = np.concatenate([(i * n + j).ravel(), (i * n + k).ravel(),
                                (j * n + k).ravel()])
        pairs += np.bincount(index, np.concatenate([vals.sum(axis=1), vals.ravel(),
                                                    vals.ravel()]), minlength=n * n)
        squares += float((vals * vals).sum())
    return 2.0 * float((pairs * pairs).sum()) - 6.0 * squares


def _max_abs(kernel: Kernel, x: np.ndarray) -> float:
    """The largest |h| over the m-combinations, or for an untruncated
    kernel ``_accel``'s O(n) bound on it."""
    return _reduce(
        kernel, x,
        lambda code, thr, x, m: _accel.max_abs_kernel(code, x, m) if thr == math.inf else None,
        lambda kernel, x: max(float(np.abs(vals).max())
                              for _, _, vals in _combination_blocks(kernel, x)))
