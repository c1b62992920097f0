"""Desk-scale exact verification of the degenerate-decomposition machinery.

For a product statistic built from two kernel evaluations sharing their
leading coordinate(s), this module constructs the full orthogonal
expansion into degenerate components by exact enumeration over a
finite-support distribution:

    h*(x_1..x_r) = E h* + sum over nonempty position sets A of V_A(x_A),

    V_A = prod over j in A of (I - E_j) g_A,
    g_A(x_A) = E( h* | X_j = x_j for j in A ),

where E_j averages out coordinate j: one contraction of the h* table
gives g_A, and centering it along each of its axes gives V_A (the
inclusion-exclusion sum over the subsets of A, expanded).

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

The module is the exact lab only: support grids come from
``kernels._support_rows``, and the Monte Carlo side of negligibility
(the NEGLIGIBILITY statistics, their trend and the truncation coupling
rate) belongs to ``ustatlab.experiments``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import Distribution
from .errors import (
    InvalidArgumentError,
    PreconditionViolationError,
    ResourceLimitError,
)
from .kernels import Kernel, _support_rows, eval_kernel

__all__ = [
    "ProductStatistic",
    "VTerm",
    "VExpansion",
    "MomentBoundResult",
    "eval_product_statistic",
    "build_v_expansion",
    "check_degeneracy",
    "reconstruction_max_error",
    "degenerate_moment_bound",
    "expansion_report",
]

_MAX_SUPPORT = 6
_MAX_BOUND_SUPPORT = 4
_MAX_BOUND_N = 8
_MAX_BOUND_ARITY = 3


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
    return eval_kernel(ps.base, pts[:m]) * eval_kernel(ps.base, pts[:s] + pts[m:])


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


def _tabulate(f: Callable, dist: Distribution, r: int):
    """f over support^r as an (s,)*r table, each cell a scalar call, and
    the outcome probabilities in the same shape."""
    rows, weights = _support_rows(dist, r)
    shape = (len(dist.points),) * r
    table = np.fromiter((f(*row) for row in rows), np.float64, len(rows))
    return table.reshape(shape), weights.reshape(shape)


def _contract(tensor: np.ndarray, probs: np.ndarray, axes) -> np.ndarray:
    out = tensor
    for ax in sorted(axes, reverse=True):
        out = np.tensordot(out, probs, axes=([ax], [0]))
    return out


def build_v_expansion(ps: ProductStatistic, dist: Distribution) -> VExpansion:
    """All degenerate components V_A plus the constant E h*, exactly."""
    if dist.kind != "finite":
        raise InvalidArgumentError("v-expansion needs a finite-support distribution")
    if len(dist.points) > _MAX_SUPPORT:
        raise ResourceLimitError(f"support size {len(dist.points)} exceeds {_MAX_SUPPORT}")
    if ps.base.order > 3:
        raise ResourceLimitError("product statistics supported up to order 3")
    grid, weights = _tabulate(lambda *pts: eval_product_statistic(ps, pts), dist, ps.arity)
    r = ps.arity
    probs = dist.probs
    mu = float(np.sum(grid * weights))
    first, second = ps.factor_positions()
    index = {float(v): i for i, v in enumerate(dist.points)}
    terms = []
    for size in range(1, r + 1):
        for a in itertools.combinations(range(r), size):
            table = _contract(grid, probs, [ax for ax in range(r) if ax not in a])
            for ax in range(size):
                table = table - np.expand_dims(_contract(table, probs, [ax]), ax)
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
    table, wgrid = _tabulate(L, dist, arity)
    table = table - mu
    probe = VTerm(positions=tuple(range(1, arity + 1)), table=table, support=pts,
                  s=arity, t=0, _index={})
    if not check_degeneracy(probe, dist, tol=1e-9):
        raise PreconditionViolationError(
            "L is not degenerate under this distribution"
        )
    # rhs = [n]^-arity * E (L - mu)^2
    count = math.perm(n, int(arity))
    rhs = float(np.sum(table ** 2 * wgrid)) / count
    # lhs: enumerate outcome sequences
    outcomes = np.ascontiguousarray(np.indices((s,) * n, dtype=np.intp).reshape(n, -1).T)
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
