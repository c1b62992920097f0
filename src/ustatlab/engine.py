"""Exact and incremental U-statistic evaluation.

Everything here is deterministic; Monte Carlo belongs to
:mod:`ustatlab.experiments`.  :func:`kernel_route` picks, once per
kernel, between the ESP closed forms, the built-in kernels of
:mod:`ustatlab._accel` and generic enumeration.  Per-call work on the
routes that enumerate is capped (combination count <= 1e8, ordered-tuple
arity <= 6): past the cap the engine refuses with
:class:`ResourceLimitError` rather than silently subsampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import InsufficientDataError, ResourceLimitError
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
    "ROUTE_ESP",
    "ROUTE_BUILTIN",
    "ROUTE_ENUMERATION",
    "ordered_distinct_sum",
]

MAX_ENUMERATION = 10 ** 8
MAX_ORDERED_ARITY = 6
_CHUNK = 1 << 16

ROUTE_ESP = "esp"                  # untruncated product: O(n m) ESP closed forms
ROUTE_BUILTIN = "builtin"          # other built-in kernels, m <= 3: _accel by code
ROUTE_ENUMERATION = "enumeration"  # anything else: chunked enumeration


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


def _check_size(n: int, m: int, enumerates: bool = True) -> None:
    if n < m:
        raise InsufficientDataError(f"need n >= m, got n={n}, m={m}")
    if enumerates and math.comb(n, m) > MAX_ENUMERATION:
        raise ResourceLimitError(
            f"C({n},{m}) = {math.comb(n, m)} exceeds the {MAX_ENUMERATION} "
            "evaluation cap"
        )


def kernel_route(kernel: Kernel) -> str:
    """Which implementation evaluates ``kernel``: one of the ROUTE_* names.

    Decided from the kernel's (accel_code, accel_thr, order) alone, for
    every computation: sums, prefix sums and jackknife q-accumulation.
    """
    if kernel.accel_code == _accel.KERNEL_PRODUCT and kernel.accel_thr == math.inf:
        return ROUTE_ESP
    if kernel.accel_code is not None and kernel.order <= 3:
        return ROUTE_BUILTIN
    return ROUTE_ENUMERATION


def _routed(kernel: Kernel, n: int) -> str:
    """The kernel's route, after the size checks.  Only the ESP route is
    exempt from the enumeration cap: the built-in route enumerates
    truncated kernels in O(n^m)."""
    route = kernel_route(kernel)
    _check_size(n, kernel.order, enumerates=route != ROUTE_ESP)
    return route


def _combo_chunks(n: int, m: int):
    """Yield index matrices of at most _CHUNK rows over all m-combinations
    of range(n)."""
    it = itertools.combinations(range(n), m)
    while True:
        block = list(itertools.islice(it, _CHUNK))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


def combination_sum(kernel: Kernel, data) -> float:
    """Sum of h over all C(n, m) combinations (generic, chunked)."""
    x = np.asarray(data, dtype=np.float64)
    n, m = x.shape[0], kernel.order
    route = _routed(kernel, n)
    if route == ROUTE_ESP:
        return _accel.esp(x, m)
    if route == ROUTE_BUILTIN:
        return _accel.ustat_sum(kernel.accel_code, kernel.accel_thr, x, m)
    if m == 1:
        return float(eval_kernel_rows(kernel, x[:, None]).sum())
    if m == 2:
        iu, ju = np.triu_indices(n, k=1)
        total = 0.0
        for lo in range(0, iu.size, _CHUNK):
            rows = np.column_stack([x[iu[lo:lo + _CHUNK]], x[ju[lo:lo + _CHUNK]]])
            total += float(eval_kernel_rows(kernel, rows).sum())
        return total
    parts = []
    for idx in _combo_chunks(n, m):
        parts.append(float(eval_kernel_rows(kernel, x[idx]).sum()))
    return float(np.sum(parts))


def u_statistic(kernel: Kernel, data) -> float:
    """U_n = C(n,m)^-1 * sum of h over all m-combinations."""
    x = np.asarray(data, dtype=np.float64)
    n, m = x.shape[0], kernel.order
    _check_size(n, m, enumerates=False)
    return combination_sum(kernel, x) / math.comb(n, m)


def u_prefix_process(kernel: Kernel, data) -> UPrefixValues:
    """All prefix values U_m..U_n in one incremental pass.

    Appending observation k adds the C(k-1, m-1) combinations that
    contain it; memory stays O(n).
    """
    x = np.asarray(data, dtype=np.float64)
    n, m = x.shape[0], kernel.order
    route = _routed(kernel, n)
    if route == ROUTE_ESP:
        sums = _accel.esp_prefix(x, m)
    elif route == ROUTE_BUILTIN:
        sums = _accel.prefix_sums(kernel.accel_code, kernel.accel_thr, x, m)
    else:
        sums = np.zeros(n + 1)
        run = 0.0
        for k in range(n):
            if m == 1:
                run += float(eval_kernel_rows(kernel, x[k:k + 1, None]).sum())
            else:
                for idx in _combo_chunks(k, m - 1):
                    rows = np.column_stack([x[idx], np.full(idx.shape[0], x[k])])
                    run += float(eval_kernel_rows(kernel, rows).sum())
            sums[k + 1] = run
    values = np.full(n + 1, np.nan)
    ks = np.arange(m, n + 1)
    values[ks] = sums[ks] / np.array([math.comb(k, m) for k in ks], dtype=np.float64)
    return UPrefixValues(n=n, m=m, values=values)


def ordered_distinct_sum(f, data, r: int) -> OrderedTupleSum:
    """Sum f over all ordered tuples of distinct indices (arity r <= 6)."""
    x = np.asarray(data, dtype=np.float64)
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
