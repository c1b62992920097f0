"""Self-normalized and Studentized step processes on the grid t = k/n.

Both processes are right-continuous step paths, identically zero on
[0, m/n).  Their normalizers are frozen at the full sample size n for
every t:

* pseudo-selfnormalized: value_k = (k/m) (U_k - theta) / V_n with
  V_n^2 = sum_i h1(X_i)^2 (depends on the distribution through h1);
* Studentized: value_k = k (U_k - theta) / sqrt(n (n-1) sum_i (U^i - U_n)^2),
  fully computable from the sample given theta.

On the Studentized scale: with the denominator written as
sqrt((n-1) sum (U^i - U_n)^2) alone, the m = 1 case of k * value grows
like sqrt(n) times the classical t-statistic and cannot settle to a
normal limit; including the extra factor n inside the root makes m = 1
reduce exactly to the self-normalized partial-sum process.  The
equivalent "scaled multiplier" convention (k / sqrt(n) times the bare
ratio) is offered as well; the two produce identical paths.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .engine import u_prefix_process
from .errors import DegenerateNormalizerError, DomainError, InvalidArgumentError
from .jackknife import jackknife_closed_form
from .kernels import Kernel

__all__ = [
    "StepProcess",
    "pseudo_selfnormalized_path",
    "studentized_path",
    "sup_functional",
    "abs_sup_functional",
    "path_to_csv",
]

CONVENTIONS = ("n-in-root", "scaled-multiplier")


@dataclass(frozen=True)
class StepProcess:
    """Step path on [0, 1]: values[k] at t = k/n, zero for k < m."""

    n: int
    m: int
    values: np.ndarray

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise InvalidArgumentError("StepProcess needs n + 1 grid values")


def _check_theta(theta: float) -> None:
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")


def pseudo_selfnormalized_path(kernel: Kernel, data, theta: float,
                               projections) -> StepProcess:
    """(k/m) (U_k - theta) / V_n on the prefix grid; zero below k = m."""
    _check_theta(theta)
    x = np.asarray(data, dtype=np.float64)
    proj = np.asarray(projections, dtype=np.float64)
    if proj.shape != x.shape:
        raise InvalidArgumentError("projections must align with data")
    if not np.isfinite(proj).all():
        raise DomainError("projections must be finite; got NaN or infinite values")
    v_n = math.sqrt(float(np.einsum("i,i->", proj, proj)))
    if not v_n > 0:
        raise DegenerateNormalizerError("V_n = 0: all projections vanish")
    prefix = u_prefix_process(kernel, x)
    n, m = prefix.n, prefix.m
    values = np.zeros(n + 1)
    tail = values[m:]  # a view: the arithmetic below runs in place
    np.subtract(prefix.values[m:], theta, out=tail)
    tail *= np.arange(m, n + 1) / m
    tail /= v_n
    return StepProcess(n=n, m=m, values=values)


def studentized_path(kernel: Kernel, data, theta: float,
                     convention: str = "n-in-root") -> StepProcess:
    """k (U_k - theta) / jack_scale with the full-sample jackknife scale."""
    if convention not in CONVENTIONS:
        raise InvalidArgumentError(f"convention must be one of {CONVENTIONS}")
    _check_theta(theta)
    x = np.asarray(data, dtype=np.float64)
    summary = jackknife_closed_form(kernel, x)
    n, m = summary.n, summary.m
    if not summary.sum_sq > 0:
        raise DegenerateNormalizerError(
            "jackknife scale is zero: all leave-one-out values coincide"
        )
    prefix = u_prefix_process(kernel, x)
    values = np.zeros(n + 1)
    tail = values[m:]  # a view: the arithmetic below runs in place
    np.subtract(prefix.values[m:], theta, out=tail)
    ks = np.arange(m, n + 1)
    if convention == "n-in-root":
        tail *= ks
        tail /= math.sqrt(n * summary.sum_sq)
    else:
        tail *= ks / math.sqrt(n)
        tail /= math.sqrt(summary.sum_sq)
    return StepProcess(n=n, m=m, values=values)


def sup_functional(path: StepProcess) -> float:
    """Signed supremum over the grid (includes the zero at t = 0)."""
    return float(np.max(path.values))


def abs_sup_functional(path: StepProcess) -> float:
    return float(np.max(np.abs(path.values)))


def path_to_csv(path: StepProcess, fp) -> None:
    """Write rows (k, t, value) with header."""
    writer = csv.writer(fp)
    writer.writerow(["k", "t", "value"])
    for k in range(path.n + 1):
        writer.writerow([k, repr(k / path.n), repr(float(path.values[k]))])
