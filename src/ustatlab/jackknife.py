"""Leave-one-out U-statistics and the closed-form jackknife identity.

The canonical path accumulates, in a single pass over the C(n, m)
combinations, the per-observation totals

    q_i = C(n-1, m-1)^-1 * sum over m-subsets containing i of h,

from which the jackknife sum of squares follows algebraically:

    (n-1) * sum_i (U^i_(n-1) - U_n)^2
        = m^2 (n-1) / (n-m)^2 * [ sum_i q_i^2 - n U_n^2 ].

The identity is exact for every sample and translation-invariant in the
kernel, so no centering constant is ever subtracted inside the squares.
The naive per-``i`` re-enumeration (:func:`leave_one_out`) is retained as
the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .engine import (
    ROUTE_CLOSED_FORM,
    _as_sample,
    _combination_blocks,
    _routed,
    combination_sum,
)
from .errors import InsufficientDataError
from .kernels import Kernel

__all__ = ["JackknifeSummary", "leave_one_out", "jackknife_closed_form",
           "arvesen_estimator"]


@dataclass(frozen=True)
class JackknifeSummary:
    n: int
    m: int
    u_n: float
    leave_one_out: np.ndarray
    q: np.ndarray
    sum_sq: float               # (n-1) * sum_i (U^i - U_n)^2
    variance_estimator: float   # sum_sq / m^2


def _check_loo_size(n: int, m: int) -> None:
    if n < m + 1:
        raise InsufficientDataError(
            f"leave-one-out needs n >= m + 1, got n={n}, m={m}"
        )


def leave_one_out(kernel: Kernel, data) -> np.ndarray:
    """U^i_(n-1) by direct re-enumeration for each held-out i (oracle path)."""
    x = _as_sample(data)
    n, m = x.shape[0], kernel.order
    _check_loo_size(n, m)
    denom = math.comb(n - 1, m)
    out = np.empty(n)
    for i in range(n):
        out[i] = combination_sum(kernel, np.delete(x, i)) / denom
    return out


def _q_raw(kernel: Kernel, x: np.ndarray, route: str) -> np.ndarray:
    """q_raw[i] = un-normalized sum of h over m-subsets containing i: on the
    enumeration route, the column sums credit each combination's last
    index and the row sums each of its head indices."""
    n, m = x.shape[0], kernel.order
    if route == ROUTE_CLOSED_FORM:
        if kernel.accel_code == _accel.KERNEL_PRODUCT:
            return _accel.product_q_raw(x, m)
        return _accel.variance_q_raw(x)
    q = np.zeros(n)
    for heads, lo, vals in _combination_blocks(kernel, x):
        q[lo:] += vals.sum(axis=0)
        row = vals.sum(axis=1)
        for col in heads.T:
            q += np.bincount(col, weights=row, minlength=n)
    return q


def jackknife_closed_form(kernel: Kernel, data) -> JackknifeSummary:
    """One q-accumulation pass; fills the leave-one-out values from
    U^i = [C(n,m) U_n - C(n-1,m-1) q_i] / C(n-1,m)."""
    x = _as_sample(data)
    n, m = x.shape[0], kernel.order
    _check_loo_size(n, m)
    q_raw = _q_raw(kernel, x, _routed(kernel, n))
    c_nm = math.comb(n, m)
    c_n1m1 = math.comb(n - 1, m - 1)
    c_n1m = math.comb(n - 1, m)
    u_n = float(q_raw.sum()) / (m * c_nm)
    q = q_raw / c_n1m1
    sum_sq = m ** 2 * (n - 1) / (n - m) ** 2 * (float(np.dot(q, q)) - n * u_n ** 2)
    loo = (c_nm * u_n - c_n1m1 * q) / c_n1m
    return JackknifeSummary(n=n, m=m, u_n=u_n, leave_one_out=loo, q=q,
                            sum_sq=sum_sq, variance_estimator=sum_sq / m ** 2)


def arvesen_estimator(summary: JackknifeSummary) -> float:
    """(n-1)/m^2 * sum_i (U^i - U_n)^2; converges in probability to
    E h1^2 whenever E h^2 is finite."""
    return summary.sum_sq / summary.m ** 2
