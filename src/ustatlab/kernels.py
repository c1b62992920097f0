"""Symmetric kernels of order m, their first-coordinate projections, and
threshold truncation operators.

A :class:`Kernel` bundles a scalar evaluator with optional analytic
metadata (mean ``theta``, projection ``h1(x) = E(h - theta | X1 = x)``)
and, for the built-ins, an integer code routing evaluation through the
accelerated layer.  Kernels are immutable and safe to share across
threads; evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from . import _accel
from .errors import (
    DomainError,
    InvalidArgumentError,
    UnsupportedOperationError,
)

__all__ = [
    "Kernel",
    "TruncationMode",
    "TruncationRule",
    "eval_kernel",
    "project_h1",
    "truncate_kernel",
    "theta_under",
    "identity_kernel",
    "product_kernel",
    "variance_kernel",
    "constant_kernel",
    "make_kernel",
    "kernel_from_name",
    "KERNEL_REGISTRY_HELP",
]

_MAX_FINITE_ENUM = 2_000_000


@dataclass(frozen=True)
class Kernel:
    """An order-``m`` permutation-symmetric kernel.

    ``eval_fn`` takes ``order`` floats and returns a float.  ``theta`` is
    the analytic mean when the kernel was registered against a specific
    target distribution (e.g. ``product:m=2,a=2``).  ``projection`` maps
    ``(x, dist)``, for an array ``x`` of points, to the array of analytic
    ``h1`` values when one exists.  ``affine_projection`` maps a
    distribution to ``(slope, intercept)`` when ``h1`` is affine in ``x``;
    the built-ins that have one derive ``projection`` from it.
    ``accel_code`` sends a built-in kernel to :mod:`ustatlab._accel`: an
    integer code, or ``(KERNEL_CONSTANT, c)`` for the constant kernel,
    whose code carries its value.  ``accel_thr`` is the kernel's one
    truncation threshold c: a finite c makes it ``h * 1(|h| <= c)`` on
    every route, ``_accel``'s and :func:`eval_kernel`'s and
    :func:`eval_kernel_rows`'s alike, where ``eval_fn`` and ``batch_fn``
    stay the untruncated h.
    """

    name: str
    order: int
    eval_fn: Callable[..., float]
    theta: Optional[float] = None
    projection: Optional[Callable] = None
    batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    affine_projection: Optional[Callable] = None
    accel_code: Union[int, tuple, None] = None
    accel_thr: float = field(default=math.inf)

    def __post_init__(self):
        if self.order < 1:
            raise InvalidArgumentError(f"kernel order must be >= 1, got {self.order}")


class TruncationMode(str, Enum):
    FULL_M = "full-m"
    LEVEL_J = "level-j"
    LOG = "log"


@dataclass(frozen=True)
class TruncationRule:
    """Threshold rule for |h|: FULL_M -> n^(3m/5), LEVEL_J -> n^(3j/5)
    with 1 <= j <= m-1, LOG -> log(n) with n >= 2."""

    mode: TruncationMode
    n: int
    j: Optional[int] = None

    def threshold(self, order: int) -> float:
        if self.n < 1:
            raise InvalidArgumentError(f"truncation rule needs n >= 1, got {self.n}")
        if self.mode is TruncationMode.FULL_M:
            c = float(self.n) ** (0.6 * order)
        elif self.mode is TruncationMode.LEVEL_J:
            if self.j is None or not (1 <= self.j <= order - 1):
                raise InvalidArgumentError(
                    f"LEVEL_J needs 1 <= j <= {order - 1}, got {self.j}"
                )
            c = float(self.n) ** (0.6 * self.j)
        else:
            if self.n < 2:
                raise InvalidArgumentError("LOG truncation needs n >= 2")
            c = math.log(self.n)
        if not c > 0:
            raise InvalidArgumentError(f"truncation threshold must be positive, got {c}")
        return c


def eval_kernel(kernel: Kernel, points) -> float:
    """Evaluate the kernel, truncated at its ``accel_thr``, at one argument
    tuple."""
    pts = [float(p) for p in points]
    if len(pts) != kernel.order:
        raise InvalidArgumentError(
            f"kernel '{kernel.name}' expects {kernel.order} arguments, got {len(pts)}"
        )
    if not all(math.isfinite(p) for p in pts):
        raise DomainError(f"kernel '{kernel.name}' requires finite inputs, got {pts}")
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(kernel.eval_fn(*pts))
    # an infinite threshold keeps every value, NaN included
    return v if kernel.accel_thr == math.inf or abs(v) <= kernel.accel_thr else 0.0


def eval_kernel_rows(kernel: Kernel, rows: np.ndarray) -> np.ndarray:
    """Evaluate the kernel, truncated at its ``accel_thr``, on each row of
    an (N, m) array."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != kernel.order:
        raise InvalidArgumentError(
            f"kernel '{kernel.name}' expects {kernel.order} arguments per row"
        )
    # under _accel's errstate: an overflow is inf, which a finite threshold drops
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel.batch_fn is not None:
            v = np.asarray(kernel.batch_fn(rows), dtype=np.float64)
        else:
            v = np.array([kernel.eval_fn(*r) for r in rows], dtype=np.float64)
    if kernel.accel_thr == math.inf:
        return v
    return np.where(np.abs(v) <= kernel.accel_thr, v, 0.0)


def theta_under(kernel: Kernel, dist) -> Optional[float]:
    """Analytic theta = E h under ``dist``, or None if unavailable.

    An untruncated built-in takes its closed form from its ``_accel``
    code; other kernels fall back to exact enumeration on finite-support
    distributions.
    """
    if kernel.theta is not None:
        return kernel.theta
    if kernel.accel_thr == math.inf:  # truncation invalidates the closed forms
        if kernel.accel_code == _accel.KERNEL_PRODUCT:
            return None if dist.mean is None else dist.mean ** kernel.order
        if kernel.accel_code == _accel.KERNEL_VARIANCE:
            return dist.variance
    if dist.kind == "finite":
        return _finite_mean(kernel, dist)
    return None


def _support_rows(dist, k: int):
    """The points of support^k as rows in C order (the last coordinate
    fastest) and each row's probability."""
    grids = np.meshgrid(*([dist.points] * k), indexing="ij")
    rows = np.reshape(grids, (k, len(dist.points) ** k)).T
    return rows, np.ravel(math.prod(np.meshgrid(*([dist.probs] * k), indexing="ij")))


def _finite_mean(kernel: Kernel, dist, fixed: tuple = ()) -> float:
    """E h(fixed, X_1..X_k), k = m - len(fixed), by exact enumeration of a
    finite law: theta for ``fixed = ()``, theta + h1(x) for ``(x,)``."""
    k = kernel.order - len(fixed)
    s = len(dist.points)
    if s ** k > _MAX_FINITE_ENUM:
        raise UnsupportedOperationError(f"finite enumeration needs {s}^{k} evaluations")
    rows, w = _support_rows(dist, k)
    rows = np.column_stack([np.full(s ** k, v) for v in fixed] + [rows])
    return float(np.dot(eval_kernel_rows(kernel, rows), w))


def project_h1(kernel: Kernel, x: float, dist) -> float:
    """Projection h1(x) = E(h(X1..Xm) - theta | X1 = x), from the kernel's
    analytic projection or by exact enumeration of a finite law."""
    return float(_projection_values(kernel, dist, np.array([float(x)]))[0])


def _projection_values(kernel: Kernel, dist, x: np.ndarray) -> np.ndarray:
    """h1 at every point of x, on the whole of x at once: from the kernel's
    analytic projection, else by exact enumeration of a finite law, theta
    once and then E h(v, X_2..X_m) once per distinct value v of x;
    UnsupportedOperationError where neither route applies."""
    if kernel.projection is not None:
        try:
            return np.asarray(kernel.projection(x, dist), dtype=np.float64)
        except UnsupportedOperationError:
            pass
    if dist.kind != "finite":
        raise UnsupportedOperationError(
            f"no analytic projection for kernel '{kernel.name}' under "
            f"'{dist.name}', and '{dist.name}' is not a finite law to enumerate"
        )
    theta = _finite_mean(kernel, dist)
    # distinct by bit pattern, so -0.0 and 0.0 are evaluated apart
    bits, inverse = np.unique(np.asarray(x, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    return np.array([_finite_mean(kernel, dist, (v,)) - theta
                     for v in bits.view(np.float64).tolist()])[inverse]


def _projection_variance(kernel: Kernel, dist) -> Optional[float]:
    """Exact Var h1(X) when available analytically, else None."""
    if dist.kind == "finite":
        vals = _projection_values(kernel, dist, dist.points)
        mu = float(np.dot(vals, dist.probs))
        return float(np.dot((vals - mu) ** 2, dist.probs))
    if kernel.affine_projection is not None and dist.variance is not None:
        try:
            slope, _ = kernel.affine_projection(dist)
        except UnsupportedOperationError:
            return None
        return slope ** 2 * dist.variance
    if kernel.accel_code == _accel.KERNEL_VARIANCE and kernel.accel_thr == math.inf \
            and dist.kind == "normal":
        sigma = dist.params[1]
        return sigma ** 4 / 2.0  # Var((X-mu)^2 - sigma^2)/4 under a normal
    return None


def truncate_kernel(kernel: Kernel, rule: TruncationRule) -> Kernel:
    """The kernel h * 1(|h| <= c) for the rule's threshold c: the same
    kernel with ``accel_thr`` lowered to c, which every route reads.  A
    kernel truncated twice keeps the smaller threshold.  Theta and the
    projections of h no longer hold, so they are cleared."""
    c = rule.threshold(kernel.order)
    return replace(kernel, name=f"{kernel.name}|{rule.mode.value}@{c:.6g}",
                   accel_thr=min(kernel.accel_thr, c), theta=None, projection=None,
                   affine_projection=None)


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

def _require_mean(dist):
    if dist.mean is None:
        raise UnsupportedOperationError(f"distribution '{dist.name}' has no finite mean")
    return dist.mean


def _affine_h1(affine: Callable) -> Callable:
    """The projection h1(x) = slope * x + intercept of an affine map
    ``dist -> (slope, intercept)``, at an array of points."""
    def projection(x, dist):
        slope, icpt = affine(dist)
        return slope * x + icpt

    return projection


def _running_product(rows: np.ndarray) -> np.ndarray:
    """Row products, one column at a time (np.prod over short rows is
    several times slower)."""
    out = rows[:, 0].copy()
    for col in rows.T[1:]:
        out *= col
    return out


def product_kernel(m: int, a: Optional[float] = None) -> Kernel:
    """h(x1..xm) = prod x_i.  When ``a`` is given, theta is pinned to a^m
    (the heavy-tailed example configuration); the projection always uses
    the paired distribution's mean mu: h1(x) = x mu^(m-1) - mu^m."""
    if m < 1:
        raise InvalidArgumentError(f"product kernel needs m >= 1, got {m}")
    if a is not None and not math.isfinite(a):
        raise InvalidArgumentError(f"product kernel needs a finite a, got {a}")

    def affine(d):
        mu = _require_mean(d)
        return (mu ** (m - 1), -(mu ** m))

    name = f"product:m={m}" + (f",a={a:g}" if a is not None else "")
    return Kernel(
        name=name,
        order=m,
        # canonical multiply order keeps evaluation bit-exact under
        # argument permutation
        eval_fn=lambda *xs: math.prod(sorted(xs)),
        theta=None if a is None else float(a) ** m,
        projection=_affine_h1(affine),
        batch_fn=_running_product,
        affine_projection=affine,
        accel_code=_accel.KERNEL_PRODUCT,
    )


def identity_kernel() -> Kernel:
    """h(x) = x: the order-1 product kernel."""
    return replace(product_kernel(1), name="identity")


def variance_kernel() -> Kernel:
    def projection(x, d):
        mu = _require_mean(d)
        if d.variance is None:
            raise UnsupportedOperationError(
                f"distribution '{d.name}' has no finite variance"
            )
        dx = x - mu
        return 0.5 * (dx * dx - d.variance)

    # every path squares by one multiplication, as the _accel routes do:
    # a scalar ** 2 goes through libm pow, which need not round correctly
    def eval_fn(x, y):
        d = x - y
        return 0.5 * (d * d)

    def batch_fn(rows):
        d = rows[:, 0] - rows[:, 1]
        return 0.5 * (d * d)

    return Kernel(
        name="variance",
        order=2,
        eval_fn=eval_fn,
        projection=projection,
        batch_fn=batch_fn,
        accel_code=_accel.KERNEL_VARIANCE,
    )


def constant_kernel(c: float, m: int = 1) -> Kernel:
    c = float(c)
    if not math.isfinite(c):
        raise InvalidArgumentError(f"constant kernel needs a finite c, got {c}")

    def affine(d):
        return (0.0, 0.0)

    return Kernel(
        name=f"constant:c={c:g}" + (f",m={m}" if m != 1 else ""),
        order=m,
        eval_fn=lambda *xs: c,
        theta=c,
        projection=_affine_h1(affine),
        batch_fn=lambda rows: np.full(rows.shape[0], c),
        affine_projection=affine,
        accel_code=(_accel.KERNEL_CONSTANT, c),
    )


def make_kernel(name: str, order: int, eval_fn, theta=None, projection=None,
                batch_fn=None) -> Kernel:
    """Wrap a user-supplied symmetric function as a Kernel (generic path).

    ``projection``, when given, maps ``(x, dist)`` for an array ``x`` of
    points to the array of analytic h1 values.  Without ``theta``, theta
    and Var h1 come only from exact enumeration on a finite law, never
    from the kernel's name."""
    return Kernel(name=name, order=order, eval_fn=eval_fn, theta=theta,
                  projection=projection, batch_fn=batch_fn)


KERNEL_REGISTRY_HELP = (
    "identity | product:m=<int>[,a=<real>] | variance | constant:c=<real>[,m=<int>]"
)


def kernel_from_name(spec: str) -> Kernel:
    """Resolve a registry name like 'product:m=2,a=2' or 'variance'."""
    spec = spec.strip()
    base, _, argstr = spec.partition(":")
    args = {}
    if argstr:
        for part in argstr.split(","):
            k, eq, v = part.partition("=")
            if not eq:
                raise InvalidArgumentError(
                    f"malformed kernel argument {part!r} in {spec!r}; "
                    f"registry: {KERNEL_REGISTRY_HELP}"
                )
            args[k.strip()] = v.strip()
    try:
        if base == "identity":
            return identity_kernel()
        if base == "variance":
            return variance_kernel()
        if base == "product":
            m = int(args.pop("m", 2))
            a = float(args.pop("a")) if "a" in args else None
            if args:
                raise InvalidArgumentError(f"unknown product arguments {sorted(args)}")
            return product_kernel(m, a)
        if base == "constant":
            c = float(args.pop("c", 1.0))
            m = int(args.pop("m", 1))
            if args:
                raise InvalidArgumentError(f"unknown constant arguments {sorted(args)}")
            return constant_kernel(c, m)
    except (ValueError, TypeError) as exc:
        raise InvalidArgumentError(
            f"bad kernel spec {spec!r}: {exc}; registry: {KERNEL_REGISTRY_HELP}"
        ) from exc
    raise InvalidArgumentError(
        f"unknown kernel {spec!r}; registry: {KERNEL_REGISTRY_HELP}"
    )
