"""Exact and incremental U-statistic evaluation.

Everything here is deterministic; Monte Carlo belongs to
:mod:`ustatlab.experiments`.  :func:`kernel_route` picks, once per
kernel, one of two routes: the closed forms of :mod:`ustatlab._accel`
for the untruncated built-in kernels, or one enumeration of every
m-combination (:func:`_combination_blocks`) for every other kernel,
which sums, prefix sums and the jackknife reduce in their own way.
Per-call work on the enumeration route is capped (combination count
<= 1e8, ordered-tuple arity <= 6): past the cap the engine refuses with
:class:`ResourceLimitError` rather than silently subsampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import DomainError, InsufficientDataError, ResourceLimitError
from .kernels import Kernel, eval_kernel_rows

__all__ = [
    "MAX_ENUMERATION",
    "MAX_ORDERED_ARITY",
    "UPrefixValues",
    "OrderedTupleSum",
    "u_statistic",
    "u_prefix_process",
    "combination_sum",
    "kernel_route",
    "ROUTE_CLOSED_FORM",
    "ROUTE_ENUMERATION",
    "ordered_distinct_sum",
]

MAX_ENUMERATION = 10 ** 8
MAX_ORDERED_ARITY = 6
_CHUNK = 1 << 16

ROUTE_CLOSED_FORM = "closed-form"  # untruncated built-in: _accel closed forms
ROUTE_ENUMERATION = "enumeration"  # anything else: block enumeration


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


@dataclass(frozen=True)
class OrderedTupleSum:
    arity: int
    total: float
    count: int


def _as_sample(data) -> np.ndarray:
    """``data`` as a float64 array; non-finite values raise DomainError."""
    x = np.asarray(data, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DomainError("data must be finite; got NaN or infinite values")
    return x


def _check_size(n: int, m: int, enumerates: bool = True) -> None:
    if n < m:
        raise InsufficientDataError(f"need n >= m, got n={n}, m={m}")
    if enumerates and math.comb(n, m) > MAX_ENUMERATION:
        raise ResourceLimitError(
            f"C({n},{m}) = {math.comb(n, m)} exceeds the {MAX_ENUMERATION} "
            "evaluation cap"
        )


def kernel_route(kernel: Kernel) -> str:
    """Which implementation evaluates ``kernel``: ROUTE_CLOSED_FORM for an
    untruncated built-in kernel, ROUTE_ENUMERATION for any other.

    Decided for every computation alike: sums, prefix sums, jackknife
    q-accumulation and the decomposition statistics.
    """
    if kernel.accel_code is not None and kernel.accel_thr == math.inf:
        return ROUTE_CLOSED_FORM
    return ROUTE_ENUMERATION


def _routed(kernel: Kernel, n: int) -> str:
    """The kernel's route, after the size checks; only the enumeration
    route is held to the enumeration cap."""
    route = kernel_route(kernel)
    _check_size(n, kernel.order, enumerates=route == ROUTE_ENUMERATION)
    return route


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
    starts = np.array([math.comb(t, r) for t in range(n + 1)], dtype=np.intp)
    return _colex_rows(np.arange(starts[-1]), starts, _colex_subsets(n - 1, r - 1))


def _head_blocks(n: int, m: int):
    """Yield the (m-1)-subsets of range(n - 1), the "heads" of the
    m-combinations of range(n), in colex order, in blocks of about
    _CHUNK (head, last index) pairs."""
    r = m - 1
    if r == 0:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    starts = np.array([math.comb(t, r) for t in range(n)], dtype=np.intp)
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
    x = _as_sample(data)
    n, m = x.shape[0], kernel.order
    if _routed(kernel, n) == ROUTE_CLOSED_FORM:
        if kernel.accel_code == _accel.KERNEL_PRODUCT:
            return _accel.esp(x, m)
        return _accel.variance_sum(x)
    return float(np.sum([vals.sum() for _, _, vals in _combination_blocks(kernel, x)]))


def u_statistic(kernel: Kernel, data) -> float:
    """U_n = C(n,m)^-1 * sum of h over all m-combinations."""
    return combination_sum(kernel, data) / math.comb(len(data), kernel.order)


def u_prefix_process(kernel: Kernel, data) -> UPrefixValues:
    """All prefix values U_m..U_n in one pass.

    sums[k] totals the combinations of data[:k]; on the enumeration route
    each combination is credited to its largest index, so sums is the
    running total of the per-index column sums.
    """
    x = _as_sample(data)
    n, m = x.shape[0], kernel.order
    if _routed(kernel, n) == ROUTE_CLOSED_FORM:
        if kernel.accel_code == _accel.KERNEL_PRODUCT:
            sums = _accel.esp_prefix(x, m)
        else:
            sums = _accel.variance_prefix(x)
    else:
        by_last = np.zeros(n)
        for _, lo, vals in _combination_blocks(kernel, x):
            by_last[lo:] += vals.sum(axis=0)
        sums = np.concatenate([[0.0], np.cumsum(by_last)])
    values = np.full(n + 1, np.nan)
    ks = np.arange(m, n + 1)
    values[ks] = sums[ks] / np.array([math.comb(k, m) for k in ks], dtype=np.float64)
    return UPrefixValues(n=n, m=m, values=values)


def ordered_distinct_sum(f, data, r: int) -> OrderedTupleSum:
    """Sum f over all ordered tuples of distinct indices (arity r <= 6)."""
    x = _as_sample(data)
    n = x.shape[0]
    if r > n:
        raise InsufficientDataError(f"need n >= arity, got n={n}, arity={r}")
    if r > MAX_ORDERED_ARITY:
        raise ResourceLimitError(f"ordered enumeration capped at arity {MAX_ORDERED_ARITY}")
    count = math.perm(n, r)
    if count > MAX_ENUMERATION:
        raise ResourceLimitError(
            f"{count} ordered tuples exceed the {MAX_ENUMERATION} evaluation cap"
        )
    parts = []
    block = []
    for tup in itertools.permutations(range(n), r):
        block.append(f(*(x[list(tup)])))
        if len(block) == _CHUNK:
            parts.append(float(np.sum(block)))
            block = []
    if block:
        parts.append(float(np.sum(block)))
    return OrderedTupleSum(arity=r, total=float(np.sum(parts)) if parts else 0.0,
                           count=count)
