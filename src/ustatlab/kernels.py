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
from typing import Callable, Optional

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
    ``(x, dist)`` to the analytic ``h1(x)`` when one exists.
    ``affine_projection`` maps a distribution to ``(slope, intercept)``
    when ``h1`` is affine in ``x``, which unlocks vectorized paths.
    """

    name: str
    order: int
    eval_fn: Callable[..., float]
    theta: Optional[float] = None
    projection: Optional[Callable] = None
    batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    affine_projection: Optional[Callable] = None
    accel_code: Optional[int] = None
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

    Falls back to exact enumeration on finite-support distributions.
    """
    if kernel.theta is not None:
        return kernel.theta
    if "|" not in kernel.name:  # truncation invalidates the closed forms
        base = kernel.name.split(":", 1)[0]
        if base == "identity":
            return dist.mean
        if base == "product":
            return None if dist.mean is None else dist.mean ** kernel.order
        if base == "variance":
            return dist.variance
    if dist.kind == "finite":
        return _finite_theta(kernel, dist)
    return None


def _finite_theta(kernel: Kernel, dist) -> float:
    m = kernel.order
    s = len(dist.points)
    if s ** m > _MAX_FINITE_ENUM:
        raise UnsupportedOperationError(
            f"finite enumeration of theta needs {s}^{m} evaluations"
        )
    grids = np.meshgrid(*([dist.points] * m), indexing="ij")
    rows = np.stack([g.ravel() for g in grids], axis=1)
    vals = eval_kernel_rows(kernel, rows)
    wgrids = np.meshgrid(*([dist.probs] * m), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return float(np.dot(vals, w))


def project_h1(kernel: Kernel, x: float, dist, mc_budget: Optional[int] = None,
               seed: int = 0, with_se: bool = False):
    """Projection h1(x) = E(h(X1..Xm) - theta | X1 = x).

    Routes, in order of preference: analytic projection; exact enumeration
    on finite support; Monte Carlo with an explicit ``mc_budget`` (no
    silent default).  With ``with_se=True`` returns ``(value, se)`` where
    ``se`` is 0 for the exact routes.
    """
    x = float(x)
    if kernel.projection is not None:
        try:
            v = float(kernel.projection(x, dist))
            return (v, 0.0) if with_se else v
        except UnsupportedOperationError:
            pass
    m = kernel.order
    if dist.kind == "finite":
        theta = _finite_theta(kernel, dist)
        if m == 1:
            v = kernel.eval_fn(x) - theta
            return (v, 0.0) if with_se else v
        grids = np.meshgrid(*([dist.points] * (m - 1)), indexing="ij")
        rows = np.stack([np.full(grids[0].size, x)] + [g.ravel() for g in grids], axis=1)
        vals = eval_kernel_rows(kernel, rows)
        wgrids = np.meshgrid(*([dist.probs] * (m - 1)), indexing="ij")
        w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
        v = float(np.dot(vals, w)) - theta
        return (v, 0.0) if with_se else v
    if mc_budget is None:
        raise UnsupportedOperationError(
            f"no analytic projection for kernel '{kernel.name}' under "
            f"'{dist.name}' and no mc_budget supplied"
        )
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


def truncate_kernel(kernel: Kernel, rule: TruncationRule,
                    h1m: Optional[Callable[[float], float]] = None) -> Kernel:
    """Return the kernel h * 1(|h| <= c) for the rule's threshold c.

    PROJECTION_ELL instead gates on |h1m(x1)| <= sqrt(n) * ell_of_n and
    requires an ``h1m`` evaluator for the (already truncated) kernel.
    """
    c = rule.threshold(kernel.order)
    if rule.mode is TruncationMode.PROJECTION_ELL:
        if h1m is None:
            raise UnsupportedOperationError(
                "PROJECTION_ELL truncation needs an h1m evaluator"
            )
        inner = kernel.eval_fn

        def eval_fn(*xs):
            return inner(*xs) if abs(h1m(xs[0])) <= c else 0.0

        def batch_fn(rows):
            vals = eval_kernel_rows(kernel, rows)
            gate = np.array([abs(h1m(v)) <= c for v in rows[:, 0]])
            return np.where(gate, vals, 0.0)

        return replace(
            kernel,
            name=f"{kernel.name}|proj-ell@{c:.6g}",
            eval_fn=eval_fn,
            batch_fn=batch_fn,
            accel_code=None,
            accel_thr=math.inf,
            theta=None,
            projection=None,
            affine_projection=None,
        )

    inner = kernel.eval_fn

    def eval_fn(*xs):
        v = inner(*xs)
        return v if abs(v) <= c else 0.0

    inner_batch = kernel.batch_fn

    def batch_fn(rows):
        if inner_batch is not None:
            v = np.asarray(inner_batch(rows), dtype=np.float64)
        else:
            v = np.array([inner(*r) for r in rows], dtype=np.float64)
        return np.where(np.abs(v) <= c, v, 0.0)

    return replace(
        kernel,
        name=f"{kernel.name}|{rule.mode.value}@{c:.6g}",
        eval_fn=eval_fn,
        batch_fn=batch_fn,
        accel_thr=min(kernel.accel_thr, c),
        theta=None,
        projection=None,
        affine_projection=None,
    )


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

def _require_mean(dist):
    if dist.mean is None:
        raise UnsupportedOperationError(f"distribution '{dist.name}' has no finite mean")
    return dist.mean


def identity_kernel() -> Kernel:
    return Kernel(
        name="identity",
        order=1,
        eval_fn=lambda x: x,
        projection=lambda x, d: x - _require_mean(d),
        batch_fn=lambda rows: rows[:, 0],
        affine_projection=lambda d: (1.0, -_require_mean(d)),
        accel_code=_accel.KERNEL_PRODUCT,  # the order-1 product kernel
    )


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

    def projection(x, d):
        mu = _require_mean(d)
        return x * mu ** (m - 1) - mu ** m

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
        projection=projection,
        batch_fn=_running_product,
        affine_projection=affine,
        accel_code=_accel.KERNEL_PRODUCT,
    )


def variance_kernel() -> Kernel:
    def projection(x, d):
        mu = _require_mean(d)
        if d.variance is None:
            raise UnsupportedOperationError(
                f"distribution '{d.name}' has no finite variance"
            )
        return 0.5 * ((x - mu) ** 2 - d.variance)

    return Kernel(
        name="variance",
        order=2,
        eval_fn=lambda x, y: 0.5 * (x - y) ** 2,
        projection=projection,
        batch_fn=lambda rows: 0.5 * (rows[:, 0] - rows[:, 1]) ** 2,
        accel_code=_accel.KERNEL_VARIANCE,
    )


def constant_kernel(c: float, m: int = 1) -> Kernel:
    return Kernel(
        name=f"constant:c={c:g}" + (f",m={m}" if m != 1 else ""),
        order=m,
        eval_fn=lambda *xs: c,
        theta=float(c),
        projection=lambda x, d: 0.0,
        batch_fn=lambda rows: np.full(rows.shape[0], float(c)),
        affine_projection=lambda d: (0.0, 0.0),
    )


def make_kernel(name: str, order: int, eval_fn, theta=None, projection=None,
                batch_fn=None) -> Kernel:
    """Wrap a user-supplied symmetric function as a Kernel (generic path)."""
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
