"""Self-normalized and Studentized step processes on the grid t = k/n.

Both processes are right-continuous step paths, identically zero on
[0, m/n).  Their normalizers are frozen at the full sample size n for
every t:

* pseudo-selfnormalized: value_k = (k/m) (U_k - theta) / V_n with
  V_n^2 = sum_i h1(X_i)^2 (depends on the distribution through h1);
* Studentized: value_k = k (U_k - theta) / sqrt(n (n-1) sum_i (U^i - U_n)^2),
  fully computable from the sample given theta;
  :func:`studentized_value` is the same value at one k.

On the Studentized scale: with the denominator written as
sqrt((n-1) sum (U^i - U_n)^2) alone, the m = 1 case of k * value grows
like sqrt(n) times the classical t-statistic and cannot settle to a
normal limit; including the extra factor n inside the root makes m = 1
reduce exactly to the self-normalized partial-sum process.

A path is built in place in the buffer of prefix values U_k that
:func:`ustatlab.engine.u_prefix_process` returns, and its factor k is
the cached float k-grid of :mod:`ustatlab._accel` (the order-1 binomial
column), so the path holds one n-vector.  The Studentized path takes its
jackknife scale first, from a jackknife that centers its one
per-observation vector in place and releases it, before the prefix pass.

The public functions check the data once and hand the checked sample
to helpers that do not check it again, down to the engine's reductions:
``_prefix_values`` for the path, and ``_total`` for U_k at one k < n.
A Monte Carlo replication checks its stream itself and calls the
helpers directly: ``_studentized_value`` for CLT_T0, and
``_studentized`` for FCLT_SUP.

The laws the functionals are checked against (:func:`normal_cdf`,
:func:`wiener_sup_cdf`) and :func:`ks_distance` live here as well, so a
library Monte Carlo loop takes them without loading the study driver.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._accel import _comb_column
from .engine import UPrefixValues, _as_sample, _prefix_values, _total
from .errors import (
    DegenerateNormalizerError,
    DomainError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .jackknife import _jackknife
from .kernels import Kernel, _check_integer

__all__ = [
    "StepProcess",
    "pseudo_selfnormalized_path",
    "studentized_path",
    "studentized_value",
    "sup_functional",
    "abs_sup_functional",
    "normal_cdf",
    "wiener_sup_cdf",
    "ks_distance",
    "path_to_csv",
]


@dataclass(frozen=True)
class StepProcess:
    """Step path on [0, 1]: values[k] at t = k/n, zero for k < m."""

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise InvalidArgumentError("StepProcess needs n + 1 grid values")


def _check_theta(theta: float) -> None:
    """theta is a real number (else InvalidArgumentError, None included)
    and finite (else DomainError)."""
    if not isinstance(theta, numbers.Real):
        raise InvalidArgumentError(f"theta must be a real number, got {theta!r}")
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")


def _step_path(prefix: UPrefixValues, theta: float, factor: np.ndarray,
               scale: float) -> StepProcess:
    """factor (U_k - theta) / scale for k = m..n, zero below k = m, in the
    buffer of ``prefix``, which the path takes over."""
    values = prefix.values
    values[:prefix.m] = 0.0
    tail = values[prefix.m:]
    tail -= theta
    tail *= factor
    tail /= scale
    return StepProcess(n=prefix.n, m=prefix.m, values=values)


def _k_grid(n: int, m: int) -> np.ndarray:
    """float(k) for k = m..n, a view of the cached order-1 column."""
    return _comb_column(n, 1)[m - 1:]


def pseudo_selfnormalized_path(kernel: Kernel, data, theta: float,
                               projections) -> StepProcess:
    """(k/m) (U_k - theta) / V_n on the prefix grid; zero below k = m."""
    _check_theta(theta)
    x = _as_sample(data)
    proj = np.asarray(projections, dtype=np.float64)
    if proj.shape != x.shape:
        raise InvalidArgumentError("projections must align with data")
    if not np.isfinite(proj).all():
        raise DomainError("projections must be finite; got NaN or infinite values")
    # the prefix pass checks n >= m first, so a short sample is refused
    # as short, not as degenerate
    prefix = _prefix_values(kernel, x)
    v_n = math.sqrt(float(np.einsum("i,i->", proj, proj)))
    if not v_n > 0:
        raise DegenerateNormalizerError("V_n = 0: all projections vanish")
    return _step_path(prefix, theta, _k_grid(prefix.n, prefix.m) / prefix.m, v_n)


def _jackknife_scale(n: int, sum_sq: float) -> float:
    """sqrt(n (n-1) sum (U^i - U_n)^2), the Studentized scale."""
    if not sum_sq > 0:
        raise DegenerateNormalizerError(
            "jackknife scale is zero: all leave-one-out values coincide"
        )
    return math.sqrt(n * sum_sq)


def _studentized(kernel: Kernel, x: np.ndarray, theta: float) -> StepProcess:
    """:func:`studentized_path` for a sample already through ``_as_sample``.
    The scale is taken first, so the jackknife's q vector is released
    before the prefix pass."""
    scale = _jackknife_scale(x.shape[0], _jackknife(kernel, x, keep_q=False)[2])
    prefix = _prefix_values(kernel, x)
    return _step_path(prefix, theta, _k_grid(prefix.n, prefix.m), scale)


def studentized_path(kernel: Kernel, data, theta: float) -> StepProcess:
    """k (U_k - theta) / jack_scale with the full-sample jackknife scale."""
    _check_theta(theta)
    return _studentized(kernel, _as_sample(data), theta)


def studentized_value(kernel: Kernel, data, theta: float, k: int) -> float:
    """The Studentized path at one k, m <= k <= n: k (U_k - theta) /
    jack_scale, without the prefix pass.  U_n is the jackknife's own, so
    k = n costs one jackknife and nothing more."""
    _check_theta(theta)
    x = _as_sample(data)
    n, m = x.shape[0], kernel.order
    _check_integer("k", k)
    if not m <= k <= n:
        raise InsufficientDataError(f"need m <= k <= n, got k={k}, m={m}, n={n}")
    return _studentized_value(kernel, x, theta, k)


def _studentized_value(kernel: Kernel, x: np.ndarray, theta: float,
                       k: int) -> float:
    """:func:`studentized_value` for a sample already through
    ``_as_sample`` and m <= k <= n."""
    n = x.shape[0]
    _, u_n, sum_sq = _jackknife(kernel, x, keep_q=False)
    scale = _jackknife_scale(n, sum_sq)
    u_k = u_n if k == n else _total(kernel, x[:k]) / math.comb(k, kernel.order)
    return k * (u_k - theta) / scale


def sup_functional(path: StepProcess) -> float:
    """Signed supremum over the grid (includes the zero at t = 0)."""
    return float(np.max(path.values))


def abs_sup_functional(path: StepProcess) -> float:
    return float(np.max(np.abs(path.values)))


def normal_cdf(x: float) -> float:
    """Standard normal Phi(x) through the C-library erf (|err| < 1e-9)."""
    return 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2.0)))


def wiener_sup_cdf(x: float) -> float:
    """P(sup over [0,1] of a standard Wiener path <= x) = 2 Phi(x) - 1 for
    x >= 0 (reflection principle), 0 below."""
    if x < 0:
        return 0.0
    return 2.0 * normal_cdf(x) - 1.0


def ks_distance(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a fully specified CDF;
    non-finite samples raise DomainError."""
    v = np.asarray(samples, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise InvalidArgumentError("ks_distance needs a nonempty one-dimensional sample")
    v = np.sort(v)
    if not np.isfinite(v[[0, -1]]).all():  # NaN sorts last
        raise DomainError("ks_distance needs finite samples")
    f = np.array([cdf(t) for t in v])
    i = np.arange(1, v.size + 1, dtype=np.float64)
    return float(max(np.max(np.abs(i / v.size - f)),
                     np.max(np.abs(f - (i - 1) / v.size))))


def path_to_csv(path: StepProcess, fp) -> None:
    """Write rows (k, t, value) with header."""
    import csv

    writer = csv.writer(fp)
    writer.writerow(["k", "t", "value"])
    for k in range(path.n + 1):
        writer.writerow([k, repr(k / path.n), repr(float(path.values[k]))])
