"""Desk-scale exact verification of the degenerate-decomposition machinery.

For a product statistic built from two kernel evaluations sharing their
leading coordinate(s), this module constructs the full orthogonal
expansion into degenerate components by exact enumeration over a
finite-support distribution:

    h*(x_1..x_r) = E h* + sum over nonempty position sets A of V_A(x_A),

    V_A = sum over subsets B of A of (-1)^(|A| - |B|) g_B,
    g_B(x_B) = E( h* | X_j = x_j for j in B ).

Every V_A is degenerate: its conditional expectation given any proper
subset of its own coordinates vanishes identically.  All conditional
expectations here are exact finite sums (never Monte Carlo); this module
is the oracle layer, so size guards keep full enumerations below ~1e7
terms.

The second-moment bound verifier (:func:`degenerate_moment_bound`) evaluates, by
complete enumeration over outcome sequences, both sides of

    E( [n]^-r * sum over distinct ordered r-tuples of (L - mu) )^2
        <=  C * [n]^-r * E (L - mu)^2

for degenerate L.  With C = 1 the bound fails: exact enumeration shows
the ratio equals r! for permutation-symmetric L (each unordered index
set is counted r! times, and distinct sets are uncorrelated), and
r! is the sharp constant in general.  Reports therefore carry both the
unit reference constant and the measured ratio.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _accel
from .distributions import Distribution, derive_seed, sample
from .engine import (
    ROUTE_CLOSED_FORM,
    _combination_blocks,
    _routed,
    combination_sum,
    u_statistic,
)
from .errors import (
    InvalidArgumentError,
    PreconditionViolationError,
    ResourceLimitError,
)
from .kernels import Kernel, make_kernel, eval_kernel_rows, theta_under

__all__ = [
    "ProductStatistic",
    "VTerm",
    "VExpansion",
    "MomentBoundResult",
    "TrendRow",
    "TrendTable",
    "eval_product_statistic",
    "build_v_expansion",
    "check_degeneracy",
    "reconstruction_max_error",
    "degenerate_moment_bound",
    "negligibility_trend",
    "truncation_coupling_rate",
    "expansion_report",
    "TREND_STATISTICS",
]

_MAX_SUPPORT = 6
_MAX_BOUND_SUPPORT = 4
_MAX_BOUND_N = 8
_MAX_BOUND_ARITY = 3

TREND_STATISTICS = ("centered-usq", "diagonal-square", "shared-pair")


@dataclass(frozen=True)
class ProductStatistic:
    """h(x_A) * h(x_B) where A and B overlap in the leading ``shared``
    coordinates: arity = 2 m - shared."""

    base: Kernel
    shared: int = 1

    def __post_init__(self):
        if self.shared not in (1, 2):
            raise InvalidArgumentError(f"shared must be 1 or 2, got {self.shared}")
        if self.shared > self.base.order:
            raise InvalidArgumentError("shared coordinates exceed kernel order")

    @property
    def arity(self) -> int:
        return 2 * self.base.order - self.shared

    def factor_positions(self):
        """1-based positions feeding each factor."""
        m, s = self.base.order, self.shared
        first = tuple(range(1, m + 1))
        second = tuple(range(1, s + 1)) + tuple(range(m + 1, 2 * m - s + 1))
        return first, second


def eval_product_statistic(ps: ProductStatistic, points) -> float:
    pts = [float(p) for p in points]
    if len(pts) != ps.arity:
        raise InvalidArgumentError(
            f"product statistic expects {ps.arity} arguments, got {len(pts)}"
        )
    m, s = ps.base.order, ps.shared
    return float(ps.base.eval_fn(*pts[:m])
                 * ps.base.eval_fn(*(pts[:s] + pts[m:])))


@dataclass(frozen=True)
class VTerm:
    """One degenerate component, conditioning on tuple positions
    ``positions`` (1-based, ascending).  ``table`` holds its exact values
    over the support grid, one axis per conditioned position.  ``s`` and
    ``t`` count how many conditioned positions hit the first and second
    factor of the product statistic."""

    positions: tuple
    table: np.ndarray
    support: np.ndarray
    s: int
    t: int
    _index: dict = field(repr=False, default_factory=dict)

    def value(self, *xs) -> float:
        if len(xs) != len(self.positions):
            raise InvalidArgumentError(
                f"term conditions on {len(self.positions)} coordinates"
            )
        idx = tuple(self._index[float(v)] for v in xs)
        return float(self.table[idx])


@dataclass(frozen=True)
class VExpansion:
    statistic: ProductStatistic
    dist: Distribution
    constant: float          # E h*
    terms: list
    grid: np.ndarray         # exact h* values over support^arity
    weights: np.ndarray      # outcome probabilities, same shape as grid


def _full_grid(ps: ProductStatistic, dist: Distribution):
    r = ps.arity
    pts = dist.points
    s = len(pts)
    if s > _MAX_SUPPORT:
        raise ResourceLimitError(f"support size {s} exceeds {_MAX_SUPPORT}")
    if ps.base.order > 3:
        raise ResourceLimitError("product statistics supported up to order 3")
    grid = np.empty((s,) * r)
    for idx in itertools.product(range(s), repeat=r):
        grid[idx] = eval_product_statistic(ps, [pts[i] for i in idx])
    w = dist.probs
    weights = np.ones((s,) * r)
    for ax in range(r):
        shape = [1] * r
        shape[ax] = s
        weights = weights * w.reshape(shape)
    return grid, weights


def _contract(tensor: np.ndarray, probs: np.ndarray, axes) -> np.ndarray:
    out = tensor
    for ax in sorted(axes, reverse=True):
        out = np.tensordot(out, probs, axes=([ax], [0]))
    return out


def build_v_expansion(ps: ProductStatistic, dist: Distribution) -> VExpansion:
    """All degenerate components V_A plus the constant E h*, exactly."""
    if dist.kind != "finite":
        raise InvalidArgumentError("v-expansion needs a finite-support distribution")
    grid, weights = _full_grid(ps, dist)
    r = ps.arity
    probs = dist.probs
    mu = float(np.sum(grid * weights))
    # conditional-mean tables g_B, keyed by frozen position subsets (0-based)
    g = {(): mu}
    for size in range(1, r + 1):
        for b in itertools.combinations(range(r), size):
            comp = [ax for ax in range(r) if ax not in b]
            g[b] = _contract(grid, probs, comp)
    first, second = ps.factor_positions()
    index = {float(v): i for i, v in enumerate(dist.points)}
    terms = []
    for size in range(1, r + 1):
        for a in itertools.combinations(range(r), size):
            table = np.zeros((len(dist.points),) * size)
            for bsize in range(0, size + 1):
                for b in itertools.combinations(a, bsize):
                    gb = g[b] if bsize else mu
                    slot = [slice(None) if ax in b else None for ax in a]
                    table = table + (-1.0) ** (size - bsize) * (
                        np.asarray(gb)[tuple(slot)] if bsize else
                        gb * np.ones((1,) * size)
                    )
            positions = tuple(ax + 1 for ax in a)
            terms.append(VTerm(
                positions=positions,
                table=table,
                support=dist.points,
                s=len(set(positions) & set(first)),
                t=len(set(positions) & set(second)),
                _index=index,
            ))
    return VExpansion(statistic=ps, dist=dist, constant=mu, terms=terms,
                      grid=grid, weights=weights)


def check_degeneracy(term: VTerm, dist: Distribution, tol: float = 1e-12) -> bool:
    """True iff E(V_A | any proper subset of its coordinates) vanishes."""
    c = len(term.positions)
    probs = dist.probs
    for size in range(0, c):
        for keep in itertools.combinations(range(c), size):
            comp = [ax for ax in range(c) if ax not in keep]
            cond = _contract(term.table, probs, comp)
            if float(np.max(np.abs(np.atleast_1d(cond)))) > tol:
                return False
    return True


def reconstruction_max_error(expansion: VExpansion) -> float:
    """Max abs gap of (E h* + sum of V_A) against h* over the support grid."""
    r = expansion.statistic.arity
    total = np.full(expansion.grid.shape, expansion.constant)
    for term in expansion.terms:
        axes = tuple(p - 1 for p in term.positions)
        slot = [slice(None) if ax in axes else None for ax in range(r)]
        total = total + term.table[tuple(slot)]
    return float(np.max(np.abs(total - expansion.grid)))


# ---------------------------------------------------------------------------
# second-moment bound for degenerate kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentBoundResult:
    """Exact lhs/rhs of the degenerate second-moment bound.

    ``reference_constant`` is the unit constant of the bound as usually
    quoted; ``permutation_constant`` = arity! is the sharp constant the
    enumeration actually measures (equality for symmetric L)."""

    lhs: float
    rhs: float
    ratio: float
    arity: int
    n: int
    reference_constant: float = 1.0
    permutation_constant: float = 1.0


def _table_from_callable(L: Callable, arity: int, pts: np.ndarray) -> np.ndarray:
    s = len(pts)
    table = np.empty((s,) * arity)
    for idx in itertools.product(range(s), repeat=arity):
        table[idx] = L(*(pts[i] for i in idx))
    return table


def degenerate_moment_bound(L: Callable, arity: int, mu: float, dist: Distribution,
                 n: int) -> MomentBoundResult:
    """Exact enumeration of both sides over all support^n outcomes.

    ``L`` must be degenerate with mean ``mu`` under ``dist`` (checked;
    violation raises :class:`PreconditionViolationError`).
    """
    if dist.kind != "finite":
        raise InvalidArgumentError("bound verification needs finite support")
    pts, probs = dist.points, dist.probs
    s = len(pts)
    if arity > _MAX_BOUND_ARITY or n > _MAX_BOUND_N or s > _MAX_BOUND_SUPPORT:
        raise ResourceLimitError(
            f"bound enumeration capped at arity <= {_MAX_BOUND_ARITY}, "
            f"n <= {_MAX_BOUND_N}, support <= {_MAX_BOUND_SUPPORT}"
        )
    if n < arity:
        raise InvalidArgumentError(f"need n >= arity, got n={n}, arity={arity}")
    table = _table_from_callable(L, arity, pts) - mu
    probe = VTerm(positions=tuple(range(1, arity + 1)), table=table, support=pts,
                  s=arity, t=0, _index={})
    if not check_degeneracy(probe, dist, tol=1e-9):
        raise PreconditionViolationError(
            "L is not degenerate under this distribution"
        )
    # rhs = [n]^-arity * E (L - mu)^2
    wgrid = np.ones((s,) * arity)
    for ax in range(arity):
        shape = [1] * arity
        shape[ax] = s
        wgrid = wgrid * probs.reshape(shape)
    count = math.perm(n, int(arity))
    rhs = float(np.sum(table ** 2 * wgrid)) / count
    # lhs: enumerate outcome sequences
    outcomes = np.array(list(itertools.product(range(s), repeat=n)), dtype=np.intp)
    w = probs[outcomes].prod(axis=1)
    t_sum = np.zeros(outcomes.shape[0])
    for tup in itertools.permutations(range(n), int(arity)):
        cols = tuple(outcomes[:, j] for j in tup)
        t_sum += table[cols]
    lhs = float(np.dot(w, (t_sum / count) ** 2))
    ratio = lhs / rhs if rhs > 0 else math.nan
    return MomentBoundResult(lhs=lhs, rhs=rhs, ratio=ratio, arity=arity, n=n,
                        reference_constant=1.0,
                        permutation_constant=float(math.factorial(int(arity))))


# ---------------------------------------------------------------------------
# empirical negligibility trends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendRow:
    n: int
    mean_abs: float
    se: float


@dataclass(frozen=True)
class TrendTable:
    statistic: str
    rows: list
    decreasing: bool  # last mean at most half the first mean

    def means(self):
        return [r.mean_abs for r in self.rows]


def _falling(n: int, r: int) -> float:
    return float(math.perm(n, r))


def _squared_kernel(kernel: Kernel) -> Kernel:
    inner, inner_batch = kernel.eval_fn, kernel.batch_fn

    def batch(rows):
        v = inner_batch(rows) if inner_batch is not None else \
            np.array([inner(*r) for r in rows])
        return np.asarray(v) ** 2

    return make_kernel(f"({kernel.name})^2", kernel.order,
                       lambda *xs: inner(*xs) ** 2, batch_fn=batch)


def _guard_trend_size(m: int, n: int) -> None:
    if m > 3:
        raise ResourceLimitError("trend statistics capped at kernel order 3")
    cap = 400 if m <= 2 else 60
    if n > cap:
        raise ResourceLimitError(f"trend sample size capped at {cap} for m={m}")


def negligibility_trend(statistic_id: str, kernel: Kernel, dist: Distribution,
                        n_grid, R: int, seed: int) -> TrendTable:
    """Monte Carlo mean of |statistic| along ``n_grid``.

    Statistics: ``centered-usq`` = (U_n - theta)^2; ``diagonal-square`` =
    the sum of h^2 over distinct tuples scaled by the falling factorial
    [n]^-(2m-1); ``shared-pair`` = the order-3 statistic pairing two
    kernel evaluations that share their first two arguments, same scale.
    """
    if statistic_id not in TREND_STATISTICS:
        raise InvalidArgumentError(
            f"unknown statistic {statistic_id!r}; choose from {TREND_STATISTICS}"
        )
    m = kernel.order
    n_grid = list(n_grid)
    if not n_grid or sorted(n_grid) != n_grid:
        raise InvalidArgumentError("n_grid must be nonempty ascending")
    for n in n_grid:
        _guard_trend_size(m, n)
    if statistic_id == "shared-pair" and m != 3:
        raise InvalidArgumentError("shared-pair statistic needs an order-3 kernel")
    theta = theta_under(kernel, dist)
    if statistic_id == "centered-usq" and theta is None:
        raise InvalidArgumentError(
            f"centered-usq needs theta for kernel '{kernel.name}' under "
            f"'{dist.name}'"
        )
    sq = _squared_kernel(kernel) if statistic_id == "diagonal-square" else None
    rows = []
    for n in n_grid:
        vals = np.empty(R)
        for rep in range(R):
            x = sample(dist, n, derive_seed(seed, rep))
            if statistic_id == "centered-usq":
                v = (u_statistic(kernel, x) - theta) ** 2
            elif statistic_id == "diagonal-square":
                v = math.factorial(m) * combination_sum(sq, x) / _falling(n, 2 * m - 1)
            else:
                # m == 3 here, and the only closed-form kernel of order 3
                # is the untruncated product kernel
                if _routed(kernel, n) == ROUTE_CLOSED_FORM:
                    tot = _accel.product_shared_pair_total(x)
                else:
                    tot = _shared_pair_generic(kernel, x)
                v = tot / _falling(n, 2 * m - 1)
            vals[rep] = abs(v)
        rows.append(TrendRow(n=n, mean_abs=float(vals.mean()),
                             se=float(vals.std(ddof=1) / math.sqrt(R))))
    decreasing = rows[-1].mean_abs < 0.5 * rows[0].mean_abs
    return TrendTable(statistic=statistic_id, rows=rows, decreasing=decreasing)


def _shared_pair_generic(kernel: Kernel, x: np.ndarray) -> float:
    n = len(x)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            mask = np.ones(n, dtype=bool)
            mask[i] = mask[j] = False
            rows = np.column_stack([
                np.full(n - 2, x[i]), np.full(n - 2, x[j]), x[mask],
            ])
            v = eval_kernel_rows(kernel, rows)
            total += float(v.sum() ** 2 - (v * v).sum())
    return total


def truncation_coupling_rate(kernel: Kernel, dist: Distribution, n_grid,
                             R: int, seed: int):
    """Fraction of samples where some evaluated tuple escapes the
    order-level threshold n^(3m/5), i.e. the truncated statistic differs
    from the raw one; decreases with n when E|h|^(5/3) is finite."""
    m = kernel.order
    out = []
    for n in n_grid:
        thr = float(n) ** (0.6 * m)
        hits = 0
        for rep in range(R):
            x = sample(dist, n, derive_seed(seed, rep))
            if _routed(kernel, n) == ROUTE_CLOSED_FORM:
                peak = _accel.max_abs_kernel(kernel.accel_code, x, m)
            else:
                peak = max(float(np.abs(vals).max())
                           for _, _, vals in _combination_blocks(kernel, x))
            hits += peak > thr
        out.append((n, hits / R))
    return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def expansion_report(ps: ProductStatistic, dist: Distribution,
                     bound_n: Optional[int] = None) -> dict:
    """JSON-ready verification report: per-term degeneracy, pointwise
    reconstruction error, and the second-moment bound run on each
    component of small arity."""
    expansion = build_v_expansion(ps, dist)
    if bound_n is None:
        bound_n = min(_MAX_BOUND_N, max(ps.arity + 1, 4))
    terms = []
    for term in expansion.terms:
        entry = {
            "id": "V(" + ",".join(str(p) for p in term.positions) + ")",
            "conditioning_set": list(term.positions),
            "shared_counts": {"s": term.s, "t": term.t},
            "degenerate": bool(check_degeneracy(term, dist)),
        }
        c = len(term.positions)
        if c <= _MAX_BOUND_ARITY and len(dist.points) <= _MAX_BOUND_SUPPORT \
                and bound_n >= c:
            res = degenerate_moment_bound(term.value, c, 0.0, dist, bound_n)
            entry.update({
                "lhs": res.lhs,
                "rhs": res.rhs,
                "ratio": None if math.isnan(res.ratio) else res.ratio,
                "reference_constant": res.reference_constant,
                "permutation_constant": res.permutation_constant,
            })
        terms.append(entry)
    return {
        "statistic": {
            "base_kernel": ps.base.name,
            "order": ps.base.order,
            "shared": ps.shared,
            "arity": ps.arity,
        },
        "distribution": dist.name,
        "constant": expansion.constant,
        "reconstruction_max_error": reconstruction_max_error(expansion),
        "terms": terms,
    }
