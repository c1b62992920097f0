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
    whose code carries its value; ``accel_thr`` is its truncation
    threshold.
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
    PROJECTION_ELL = "projection-ell"


@dataclass(frozen=True)
class TruncationRule:
    """Threshold rule: FULL_M -> n^(3m/5), LEVEL_J -> n^(3j/5) with
    1 <= j <= m-1, LOG -> log(n) with n >= 2, PROJECTION_ELL ->
    sqrt(n) * ell_of_n applied through the first coordinate's projection."""

    mode: TruncationMode
    n: int
    j: Optional[int] = None
    ell_of_n: Optional[float] = None

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
        elif self.mode is TruncationMode.LOG:
            if self.n < 2:
                raise InvalidArgumentError("LOG truncation needs n >= 2")
            c = math.log(self.n)
        else:
            if self.ell_of_n is None or self.ell_of_n <= 0:
                raise InvalidArgumentError("PROJECTION_ELL needs ell_of_n > 0")
            c = math.sqrt(self.n) * self.ell_of_n
        if not c > 0:
            raise InvalidArgumentError(f"truncation threshold must be positive, got {c}")
        return c


def eval_kernel(kernel: Kernel, points) -> float:
    """Evaluate the kernel at one argument tuple."""
    pts = [float(p) for p in points]
    if len(pts) != kernel.order:
        raise InvalidArgumentError(
            f"kernel '{kernel.name}' expects {kernel.order} arguments, got {len(pts)}"
        )
    if not all(math.isfinite(p) for p in pts):
        raise DomainError(f"kernel '{kernel.name}' requires finite inputs, got {pts}")
    return float(kernel.eval_fn(*pts))


def eval_kernel_rows(kernel: Kernel, rows: np.ndarray) -> np.ndarray:
    """Evaluate the kernel on each row of an (N, m) array."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != kernel.order:
        raise InvalidArgumentError(
            f"kernel '{kernel.name}' expects {kernel.order} arguments per row"
        )
    if kernel.batch_fn is not None:
        return np.asarray(kernel.batch_fn(rows), dtype=np.float64)
    return np.array([kernel.eval_fn(*r) for r in rows], dtype=np.float64)


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


def _exact_h1(kernel: Kernel, dist, x: np.ndarray) -> Optional[np.ndarray]:
    """h1 at every point of x from the kernel's analytic projection, else
    by exact enumeration of a finite law: theta once, then E h(v, X_2..X_m)
    once per distinct value v of x; None where neither route applies."""
    if kernel.projection is not None:
        try:
            return np.asarray(kernel.projection(x, dist), dtype=np.float64)
        except UnsupportedOperationError:
            pass
    if dist.kind != "finite":
        return None
    theta = _finite_mean(kernel, dist)
    # distinct by bit pattern, so -0.0 and 0.0 are evaluated apart
    bits, inverse = np.unique(np.asarray(x, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    return np.array([_finite_mean(kernel, dist, (v,)) - theta
                     for v in bits.view(np.float64).tolist()])[inverse]


def _no_exact_h1(kernel: Kernel, dist) -> UnsupportedOperationError:
    return UnsupportedOperationError(
        f"no analytic projection for kernel '{kernel.name}' under "
        f"'{dist.name}' and no mc_budget supplied"
    )


def project_h1(kernel: Kernel, x: float, dist, mc_budget: Optional[int] = None,
               seed: int = 0, with_se: bool = False):
    """Projection h1(x) = E(h(X1..Xm) - theta | X1 = x).

    Routes, in order of preference: analytic projection; exact enumeration
    on finite support; Monte Carlo with an explicit ``mc_budget`` (no
    silent default).  With ``with_se=True`` returns ``(value, se)`` where
    ``se`` is 0 for the exact routes.
    """
    x = float(x)
    h1 = _exact_h1(kernel, dist, np.array([x]))
    if h1 is not None:
        v = float(h1[0])
        return (v, 0.0) if with_se else v
    m = kernel.order
    if mc_budget is None:
        raise _no_exact_h1(kernel, dist)
    if mc_budget < 1:
        raise InvalidArgumentError("mc_budget must be a positive integer")
    from .distributions import sample

    theta = theta_under(kernel, dist)
    theta_se = 0.0
    rng_offset = 0
    if theta is None:
        draws = sample(dist, mc_budget * m, seed).reshape(mc_budget, m)
        hv = eval_kernel_rows(kernel, draws)
        theta = float(hv.mean())
        theta_se = float(hv.std(ddof=1) / math.sqrt(mc_budget))
        rng_offset = 1
    if m == 1:
        v = kernel.eval_fn(x) - theta
        return (v, theta_se) if with_se else v
    rest = sample(dist, mc_budget * (m - 1), seed + rng_offset).reshape(mc_budget, m - 1)
    rows = np.column_stack([np.full(mc_budget, x), rest])
    vals = eval_kernel_rows(kernel, rows)
    est = float(vals.mean()) - theta
    se = math.hypot(float(vals.std(ddof=1) / math.sqrt(mc_budget)), theta_se)
    return (est, se) if with_se else est


def _projection_values(kernel: Kernel, dist, x: np.ndarray) -> np.ndarray:
    """h1 at every point of x, by the exact routes on the whole of x at
    once; without them, h1 needs :func:`project_h1`'s ``mc_budget``."""
    h1 = _exact_h1(kernel, dist, x)
    if h1 is None:
        raise _no_exact_h1(kernel, dist)
    return h1


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


def truncate_kernel(kernel: Kernel, rule: TruncationRule,
                    h1m: Optional[Callable[[float], float]] = None) -> Kernel:
    """Return the kernel h * 1(|h| <= c) for the rule's threshold c.

    PROJECTION_ELL instead gates on |h1m(x1)| <= sqrt(n) * ell_of_n and
    requires an ``h1m`` evaluator for the (already truncated) kernel.
    """
    c = rule.threshold(kernel.order)
    inner = kernel.eval_fn
    if rule.mode is TruncationMode.PROJECTION_ELL:
        if h1m is None:
            raise UnsupportedOperationError(
                "PROJECTION_ELL truncation needs an h1m evaluator"
            )

        def eval_fn(*xs):
            return inner(*xs) if abs(h1m(xs[0])) <= c else 0.0

        def batch_fn(rows):
            vals = eval_kernel_rows(kernel, rows)
            gate = np.array([abs(h1m(v)) <= c for v in rows[:, 0]])
            return np.where(gate, vals, 0.0)

        name, code, thr = f"{kernel.name}|proj-ell@{c:.6g}", None, math.inf
    else:
        def eval_fn(*xs):
            v = inner(*xs)
            return v if abs(v) <= c else 0.0

        def batch_fn(rows):
            v = eval_kernel_rows(kernel, rows)
            return np.where(np.abs(v) <= c, v, 0.0)

        name = f"{kernel.name}|{rule.mode.value}@{c:.6g}"
        code, thr = kernel.accel_code, min(kernel.accel_thr, c)
    return replace(kernel, name=name, eval_fn=eval_fn, batch_fn=batch_fn,
                   accel_code=code, accel_thr=thr, theta=None, projection=None,
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
