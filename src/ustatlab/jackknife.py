"""Leave-one-out U-statistics and the closed-form jackknife identity.

The canonical path accumulates, in a single pass over the C(n, m)
combinations, the per-observation totals

    q_i = C(n-1, m-1)^-1 * sum over m-subsets containing i of h,

from which the jackknife sum of squares follows algebraically:

    (n-1) * sum_i (U^i_(n-1) - U_n)^2
        = m^2 (n-1) / (n-m)^2 * sum_i (q_i - U_n)^2.

The identity is exact for every sample, because the mean of the q_i is
U_n.  It is evaluated in two passes, U_n first and then the squares of
q_i - U_n, so a location shift of the kernel costs no digits in the
reduction; the one-pass form sum q_i^2 - n U_n^2 cancels once |U_n|
dwarfs the spread of the q_i.  When every q_i is the same float (the
constant kernel), each is U_n and the sum of squares is exactly 0.  The
sum of squares is an ``np.einsum`` loop rather than a BLAS dot product,
which would run on BLAS's own threads next to the study's worker
processes.  The naive per-``i``
re-enumeration (:func:`leave_one_out`) is retained as the independent
oracle.

The per-observation sums come from the engine's ``_q_raw`` as a fresh
array, which the closed form normalizes in place.
:func:`jackknife_closed_form` returns the normalized q, so it squares
q - U_n in a second vector.  The Studentized scale and the study's
jackknife statistics need only U_n and the sum of squares: they call
``_jackknife`` on a checked sample without keeping q, which is then
centered in place, so the jackknife holds one n-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _as_sample, _q_raw, combination_sum
from .errors import InsufficientDataError
from .kernels import Kernel

__all__ = ["JackknifeSummary", "leave_one_out", "jackknife_closed_form"]


@dataclass(frozen=True)
class JackknifeSummary:
    n: int
    m: int
    u_n: float
    q: np.ndarray
    sum_sq: float               # (n-1) * sum_i (U^i - U_n)^2
    variance_estimator: float   # sum_sq / m^2, Arvesen's estimator of E h1^2

    @property
    def leave_one_out(self) -> np.ndarray:
        """U^i_(n-1) = [C(n,m) U_n - C(n-1,m-1) q_i] / C(n-1,m), built on
        demand."""
        n, m = self.n, self.m
        return (math.comb(n, m) * self.u_n - math.comb(n - 1, m - 1) * self.q) \
            / math.comb(n - 1, m)


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


def _jackknife(kernel: Kernel, x: np.ndarray, keep_q: bool = True) -> tuple:
    """(q, U_n, sum_sq) for a sample already through ``_as_sample``: one
    q-accumulation pass, then the two-pass sum of squares
    m^2 (n-1) / (n-m)^2 * sum_i (q_i - U_n)^2.  Without ``keep_q`` the
    squares are taken in q's own buffer, so the jackknife holds one
    n-vector, and q comes back as None."""
    n, m = x.shape[0], kernel.order
    _check_loo_size(n, m)
    q = _q_raw(kernel, x)
    # as in the reductions, a sum past the float range is an infinity
    with np.errstate(over="ignore", invalid="ignore"):
        count = m * math.comb(n, m)
        u_n = float(q.sum()) / count
        if not math.isfinite(u_n):  # q's sum counts each combination m times
            u_n = float((q / count).sum())
        if m > 1:
            q /= math.comb(n - 1, m - 1)  # q_raw is fresh on every route
        if q[0] == q[-1] and (q == q[0]).all():
            # the q_i average to U_n, so equal q_i are each U_n and the sum of
            # squares is 0, where q - u_n would square the rounding of u_n
            sum_sq = 0.0
        else:
            d = np.subtract(q, u_n, out=None if keep_q else q)
            sum_sq = m ** 2 * (n - 1) / (n - m) ** 2 * float(np.einsum("i,i->", d, d))
    return (q if keep_q else None), u_n, sum_sq


def jackknife_closed_form(kernel: Kernel, data) -> JackknifeSummary:
    """One q-accumulation pass, then the two-pass sum of squares
    m^2 (n-1) / (n-m)^2 * sum_i (q_i - U_n)^2."""
    x = _as_sample(data)
    q, u_n, sum_sq = _jackknife(kernel, x)
    m = kernel.order
    return JackknifeSummary(n=x.shape[0], m=m, u_n=u_n, q=q, sum_sq=sum_sq,
                            variance_estimator=sum_sq / m ** 2)
