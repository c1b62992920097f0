"""Seeded variate generation, finite-support exact distributions, and
normalizing-sequence diagnostics.

All sampling uses numpy's PCG64 generator (version-pinned bit stream)
seeded explicitly; samplers are stateless, so identical seeds give
identical samples regardless of thread or process count.  Replication
seeds derive from a base seed via ``derive_seed``:
``seed_r = base ^ (r * 0x9E3779B97F4A7C15) mod 2^64``.  A replication
draws one stream for its whole n-grid: ``sample_grid`` cuts the sample
at each n from it, bit for bit the sample ``sample`` draws at that n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidArgumentError,
    UnsupportedOperationError,
)
from .kernels import Kernel, _projection_values, _projection_variance, eval_kernel_rows

__all__ = [
    "Distribution",
    "EllEstimate",
    "MomentDiagnostic",
    "example_density",
    "normal",
    "pareto",
    "finite",
    "sample",
    "sample_grid",
    "derive_seed",
    "replication_seed",
    "estimate_ell",
    "moment_diagnostic",
    "dist_from_name",
    "DIST_REGISTRY_HELP",
    "ANALYTIC_FINITE_VAR",
    "EXAMPLE_ASYMPTOTIC",
    "TRUNCATED_FIXED_POINT",
]

_SEED_MASK = (1 << 64) - 1
_SEED_MULT = 0x9E3779B97F4A7C15

ANALYTIC_FINITE_VAR = "analytic-finite-var"
EXAMPLE_ASYMPTOTIC = "example-asymptotic"
TRUNCATED_FIXED_POINT = "truncated-fixed-point"
_ELL_METHODS = (ANALYTIC_FINITE_VAR, EXAMPLE_ASYMPTOTIC, TRUNCATED_FIXED_POINT)


def derive_seed(base_seed: int, index: int) -> int:
    """base_seed XOR (index * 0x9E3779B97F4A7C15) mod 2^64; injective in
    the index."""
    return (int(base_seed) ^ ((int(index) * _SEED_MULT) & _SEED_MASK)) & _SEED_MASK


# replication r of a Monte Carlo loop is seeded by replication_seed(base, r)
replication_seed = derive_seed


@dataclass(frozen=True)
class Distribution:
    """A registered sampling distribution with analytic moment metadata.

    ``mean`` / ``variance`` are None when the moment does not exist (the
    heavy-tailed example density has a mean but infinite variance).
    """

    name: str
    kind: str  # "example" | "normal" | "pareto" | "finite"
    params: tuple
    mean: Optional[float]
    variance: Optional[float]
    points: Optional[np.ndarray] = None
    probs: Optional[np.ndarray] = None


def example_density(a: float) -> Distribution:
    """Density |x - a|^-3 on |x - a| >= 1: symmetric about a with exact
    tail P(|X - a| > u) = u^-2 for u >= 1; mean a, infinite variance."""
    a = float(a)
    if a == 0 or not math.isfinite(a):
        raise InvalidArgumentError(f"example density requires a finite a != 0, got {a}")
    return Distribution(name=f"example:a={a:g}", kind="example", params=(a,),
                        mean=a, variance=None)


def normal(mu: float, sigma: float) -> Distribution:
    if not (math.isfinite(mu) and 0 < sigma < math.inf):
        raise InvalidArgumentError(
            f"normal needs a finite mu and a finite sigma > 0, got {mu}, {sigma}")
    return Distribution(name=f"normal:{mu:g},{sigma:g}", kind="normal",
                        params=(float(mu), float(sigma)),
                        mean=float(mu), variance=float(sigma) ** 2)


def pareto(alpha: float, xm: float = 1.0) -> Distribution:
    if not (0 < alpha < math.inf and 0 < xm < math.inf):
        raise InvalidArgumentError(
            f"pareto needs finite alpha > 0 and xm > 0, got {alpha}, {xm}")
    mean = alpha * xm / (alpha - 1.0) if alpha > 1 else None
    var = (xm ** 2 * alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0))) if alpha > 2 else None
    return Distribution(name=f"pareto:{alpha:g},{xm:g}", kind="pareto",
                        params=(float(alpha), float(xm)), mean=mean, variance=var)


def finite(points, probs) -> Distribution:
    pts = np.asarray(points, dtype=np.float64)
    pr = np.asarray(probs, dtype=np.float64)
    if pts.ndim != 1 or pts.shape != pr.shape or pts.size == 0:
        raise InvalidArgumentError("finite distribution needs matching 1-d points/probs")
    if not (np.isfinite(pts).all() and np.isfinite(pr).all()):
        raise InvalidArgumentError("finite distribution needs finite points and probs")
    if np.any(pr < 0):
        raise InvalidArgumentError("finite probabilities must be nonnegative")
    if abs(pr.sum() - 1.0) > 1e-12:
        raise InvalidArgumentError(f"finite probabilities sum to {pr.sum()!r}, not 1")
    mean = float(np.dot(pts, pr))
    var = float(np.dot((pts - mean) ** 2, pr))
    name = "finite:[" + ",".join(f"{p:g}" for p in pts) + "];[" + \
        ",".join(f"{p:g}" for p in pr) + "]"
    return Distribution(name=name, kind="finite", params=(), mean=mean, variance=var,
                        points=pts, probs=pr)


def sample(dist: Distribution, n: int, seed: int) -> np.ndarray:
    """Draw n variates, deterministically in ``seed``: the one-n case of
    :func:`sample_grid`."""
    return sample_grid(dist, (n,), seed)[0]


def sample_grid(dist: Distribution, ns, seed: int) -> list:
    """For each n in ``ns``, in its order, the n variates ``sample(dist, n,
    seed)`` draws, all cut from one PCG64 stream of N = max(ns) draws.

    The normal, Pareto and finite laws draw their variates in sequence,
    so the sample at n is the first n values of the sample at N.  The
    example density uses the inverse CDF X = a + S * U^(-1/2): U is
    uniform on (0, 1] from the first n 64-bit words of the stream, and the
    n signs S from the words after them, so the signs at n start at word
    n and each n gets its own array.  See :func:`_example_grid`.  With
    more than one n the arrays are read-only, since prefixes share one
    buffer.
    """
    return _GridSampler(dist, ns)(seed)


class _GridSampler:
    """:func:`sample_grid` at one n-grid, seed after seed.  The normal,
    Pareto and finite laws are drawn into one float64 buffer of length
    max(ns), which every call reuses, so a call's samples are overwritten
    by the next call.  Each law's transform runs in place and rounds as
    numpy's own does: ``Generator.normal`` returns mu + sigma * z for the
    z that ``standard_normal`` draws from the same words, and Pareto's
    xm * (1 - U)^(-1/alpha) is the same product in either order."""

    def __init__(self, dist: Distribution, ns):
        ns = [int(n) for n in ns]
        if not ns or min(ns) < 1:
            raise InvalidArgumentError(f"sample sizes must be >= 1, got {ns}")
        self.dist, self.ns = dist, ns
        self.buf = None if dist.kind == "example" else np.empty(max(ns))

    def __call__(self, seed: int) -> list:
        dist, ns = self.dist, self.ns
        bits = np.random.PCG64(int(seed) & _SEED_MASK)
        if dist.kind == "example":
            out = _example_grid(dist.params[0], ns, bits)
        else:
            rng = np.random.Generator(bits)
            full = self.buf
            if dist.kind == "normal":
                mu, sigma = dist.params
                rng.standard_normal(out=full)
                full *= sigma
                full += mu
            elif dist.kind == "pareto":
                alpha, xm = dist.params
                rng.random(out=full)
                np.subtract(1.0, full, out=full)
                full **= -1.0 / alpha
                full *= xm
            elif dist.kind == "finite":
                idx = rng.choice(len(dist.points), size=full.shape[0], p=dist.probs)
                np.take(dist.points, idx, out=full)
            else:
                raise InvalidArgumentError(f"unknown distribution kind {dist.kind!r}")
            out = [full[:n] for n in ns]
        if len(ns) > 1:
            for x in out:
                x.flags.writeable = False
        return out


def _example_grid(a: float, ns: list, bits: np.random.PCG64) -> list:
    """The example law's samples, decoded from the raw 64-bit words that
    ``Generator.random(n)`` and then ``Generator.integers(0, 2, n)`` read:
    U = 1 - (word >> 11) * 2^-53 from words 0..n-1 (numpy's double), and
    from words n..n+ceil(n/2)-1 one sign per 32-bit half, the low half
    first, +1 when its bit 31 is set (Lemire's bounded draw on a range of
    two)."""
    N, lo = max(ns), min(ns)
    raw = bits.random_raw(N + (N + 1) // 2)
    # the halves low first on any byte order; read before raw is overwritten
    halves = raw.astype("<u8", copy=False).view("<u4")
    positive = np.greater_equal(halves[2 * lo:], 1 << 31).view(np.uint8)
    # U^(-1/2) in place of words 0..N-1: (word >> 11) * -2^-53 + 1 is U
    words = raw[:N]
    np.right_shift(words, 11, out=words)
    mag = words.view(np.float64)
    np.multiply(words.view(np.int64), -2.0 ** -53, out=mag)
    mag += 1.0
    mag **= -0.5
    out = []
    for n in ns:
        x = np.multiply(positive[2 * (n - lo):2 * (n - lo) + n], 2.0)
        x -= 1.0
        x *= mag[:n]
        x += a
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# normalizing sequence ell(n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllEstimate:
    """ell^2(n) for the norming B_n = sqrt(n) * ell(n) of sums of h1(X_i)."""

    n: float
    ell_sq: float
    method: str


def _truncated_second_moment(dist, kernel, bound: float) -> float:
    """T(B) = E[h1^2 1(|h1| <= B)], exactly, for a finite law or an affine
    projection h1 = s X + c.

    h1 is centred, so c = -s mu and, with u = B/|s|,
    T(B) = s^2 E[(X - mu)^2 1(|X - mu| <= u)], in closed form for each law:

    * example(a): 2 ln u for u >= 1;
    * normal(mu, sigma): with w = u/sigma, sigma^2 [erf(w/sqrt2) - 2 w phi(w)];
    * pareto(alpha, xm): on the window [L, U] = [max(xm, mu - u), mu + u],
      alpha (xm/L)^alpha [L^2 J(alpha-1) - 2 mu L J(alpha) + mu^2 J(alpha+1)]
      with J(p) = (R^(1-p) - 1)/(1-p) for R = U/L, written as expm1((1-p) ln R)
      / (1-p) (ln R at p = 1), which keeps its digits as p nears 1.

    The normal and Pareto forms subtract terms whose difference is only
    of relative order (window/scale)^2, the scale being sigma or mu, so they
    lose digits on a narrow window.  There (w < 1; (alpha + 2) ln R < 2)
    a 20-point Gauss-Legendre rule takes the integral instead: over
    v = (x - mu)/sigma for the normal law, and over z = ln(x/mu) for the
    Pareto law, whose integrand expm1(z)^2 e^(-alpha z) then varies by at
    most e^2 across the window.
    """
    if dist.kind == "finite":
        vals = _projection_values(kernel, dist, dist.points)
        keep = np.abs(vals) <= bound
        return float(np.dot(np.where(keep, vals ** 2, 0.0), dist.probs))
    if kernel.affine_projection is None:
        raise UnsupportedOperationError(
            f"no truncated-moment route for kernel '{kernel.name}'"
        )
    slope, _ = kernel.affine_projection(dist)
    if slope == 0:
        return 0.0
    s_sq, u = slope * slope, bound / abs(slope)
    if dist.kind == "example":
        # |h1| = |slope| * |X - a| on |X - a| >= 1, with the exact identity
        # E[(X-a)^2 1(|X-a| <= u)] = 2 ln u
        return 0.0 if u < 1.0 else s_sq * 2.0 * math.log(u)
    if dist.kind == "normal":
        sigma = dist.params[1]
        w = u / sigma
        # the integral of v^2 exp(-v^2/2) over [-w, w]
        if w < 1.0:
            val = _gauss_legendre(lambda v: v * v * np.exp(-0.5 * v * v), -w, w)
        else:
            val = math.sqrt(2.0 * math.pi) * math.erf(w / math.sqrt(2.0)) \
                - 2.0 * w * math.exp(-0.5 * w * w)
        return s_sq * sigma * sigma * val / math.sqrt(2.0 * math.pi)
    if dist.kind == "pareto":
        alpha, xm = dist.params
        mu = dist.mean
        z0, z1 = math.log1p(-min(u, mu - xm) / mu), math.log1p(u / mu)
        if (alpha + 2.0) * (z1 - z0) < 2.0:
            val = mu * mu * _gauss_legendre(
                lambda z: np.expm1(z) ** 2 * np.exp(-alpha * z), z0, z1)
            return s_sq * alpha * (xm / mu) ** alpha * val
        lo, r = max(xm, mu - u), z1 - z0

        def j(p):
            q = 1.0 - p
            return r if q == 0 else math.expm1(q * r) / q

        return s_sq * alpha * (xm / lo) ** alpha * (
            lo * lo * j(alpha - 1.0) - 2.0 * mu * lo * j(alpha) + mu * mu * j(alpha + 1.0))
    raise UnsupportedOperationError(
        f"no truncated-moment route for distribution kind {dist.kind!r}")


def _gauss_legendre(f, lo: float, hi: float) -> float:
    """The integral over [lo, hi] of the vectorized f by the 20-point
    Gauss-Legendre rule."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    half = 0.5 * (hi - lo)
    return half * float(np.dot(weights, f(half * nodes + 0.5 * (lo + hi))))


def estimate_ell(dist: Distribution, kernel: Kernel, n, method: Optional[str] = None,
                 ) -> EllEstimate:
    """ell^2(n) via the first route that applies, or the one ``method``
    names: analytic Var h1 when finite; the example family's leading
    asymptotic a^(2(m-1)) * ln n; the truncated-moment fixed point
    B^2 <- n T(B), T(B) = E[h1^2 1(|h1| <= B)] exact by
    :func:`_truncated_second_moment`, iterated from B^2 = n max(T(sqrt n), 1)
    to 1e-6 relative, with ell^2 = B^2 / n.  A projection the fixed point
    cannot take raises UnsupportedOperationError."""
    if method is not None and method not in _ELL_METHODS:
        raise InvalidArgumentError(f"unknown ell method {method!r}")
    if method in (None, ANALYTIC_FINITE_VAR):
        var = _projection_variance(kernel, dist)
        if var is not None:
            if var <= 0:
                raise InvalidArgumentError(
                    f"degenerate projection: Var h1 = {var} under '{dist.name}'"
                )
            return EllEstimate(n=n, ell_sq=var, method=ANALYTIC_FINITE_VAR)
        if method == ANALYTIC_FINITE_VAR:
            raise UnsupportedOperationError(
                f"Var h1 not analytically available for kernel '{kernel.name}' "
                f"under '{dist.name}'"
            )
    if method in (None, EXAMPLE_ASYMPTOTIC):
        if dist.kind == "example" and kernel.affine_projection is not None:
            slope, _ = kernel.affine_projection(dist)
            if slope != 0 and n > 1:
                return EllEstimate(n=n, ell_sq=slope ** 2 * math.log(n),
                                   method=EXAMPLE_ASYMPTOTIC)
        if method == EXAMPLE_ASYMPTOTIC:
            raise UnsupportedOperationError(
                "example-asymptotic ell needs the example family, an affine "
                "projection, and n > 1"
            )
    b_sq = float(n) * max(_truncated_second_moment(dist, kernel, math.sqrt(n)), 1.0)
    for _ in range(10_000):
        new = float(n) * _truncated_second_moment(dist, kernel, math.sqrt(b_sq))
        if not new > 0:
            raise UnsupportedOperationError(
                f"truncated-moment fixed point reached B^2 = {new}")
        converged = abs(new - b_sq) <= 1e-6 * b_sq
        b_sq = new
        if converged:
            break
    return EllEstimate(n=n, ell_sq=b_sq / float(n), method=TRUNCATED_FIXED_POINT)


# ---------------------------------------------------------------------------
# moment diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentDiagnostic:
    """Monte Carlo estimate of E|h|^p with a budget-growth divergence flag.

    ``checkpoints`` are median-of-means estimates at budgets budget/32,
    /16, .., /1 (robust against the heavy tails that make plain running
    means jump at record values).  A log-divergent moment grows linearly
    in ln(budget), i.e. with relative slope about 1/ln(budget) per
    e-fold at the final budget, while a finite moment flattens out;
    ``suspected_infinite`` flags a fitted relative slope at or above
    1/ln(budget).  Heuristic: divergence is reported as budget growth,
    never inferred exactly.
    """

    value: float
    se: float
    suspected_infinite: bool
    checkpoints: tuple


def moment_diagnostic(dist: Distribution, kernel: Kernel, p: float, budget: int,
                      seed: int = 0) -> MomentDiagnostic:
    if not p > 0:
        raise InvalidArgumentError(f"moment order p must be > 0, got {p}")
    if budget < 64:
        raise InvalidArgumentError("budget must be at least 64")
    m = kernel.order
    draws = sample(dist, budget * m, seed).reshape(budget, m)
    vals = np.abs(eval_kernel_rows(kernel, draws)) ** p
    value = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(budget))
    blocks = 64
    checkpoints = []
    log_budgets = []
    for frac in (32, 16, 8, 4, 2, 1):
        n = budget // frac
        k = min(blocks, n)
        trimmed = vals[: n - n % k].reshape(k, -1)
        checkpoints.append(float(np.median(trimmed.mean(axis=1))))
        log_budgets.append(math.log(n))
    suspected = False
    if checkpoints[-1] > 0 and len(set(log_budgets)) > 1:
        slope = float(np.polyfit(log_budgets, checkpoints, 1)[0])
        suspected = slope / checkpoints[-1] >= 1.0 / math.log(budget)
    return MomentDiagnostic(value=value, se=se, suspected_infinite=suspected,
                            checkpoints=tuple(checkpoints))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

DIST_REGISTRY_HELP = (
    "example:a=<real> | normal:<mu>,<sigma> | pareto:<alpha>[,<xm>] | "
    "finite:[x1,..];[p1,..]"
)


def dist_from_name(spec: str) -> Distribution:
    """Resolve a registry name like 'example:a=2' or 'finite:[-1,1];[0.5,0.5]'."""
    spec = spec.strip()
    base, _, argstr = spec.partition(":")
    try:
        if base == "example":
            kv = dict(part.split("=") for part in argstr.split(",") if part)
            return example_density(float(kv["a"]))
        if base == "normal":
            mu, sigma = (float(v) for v in argstr.split(","))
            return normal(mu, sigma)
        if base == "pareto":
            parts = [float(v) for v in argstr.split(",")]
            return pareto(*parts)
        if base == "finite":
            pts_s, _, pr_s = argstr.partition(";")
            pts = [float(v) for v in pts_s.strip().strip("[]").split(",")]
            pr = [float(v) for v in pr_s.strip().strip("[]").split(",")]
            return finite(pts, pr)
    except InvalidArgumentError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(
            f"bad distribution spec {spec!r}: {exc}; registry: {DIST_REGISTRY_HELP}"
        ) from exc
    raise InvalidArgumentError(
        f"unknown distribution {spec!r}; registry: {DIST_REGISTRY_HELP}"
    )
