"""Brute-force leave-one-out oracle for the truncated jackknife.

Shares no code with ustatlab: it parses the kernel spec itself, applies
the FULL_M threshold n^(3m/5) itself, and re-enumerates every
leave-one-out sample in plain Python.
"""

from __future__ import annotations

import itertools
import math


def _kernel(spec: str):
    """(order, h) for the registry names the lab uses."""
    base, _, argstr = spec.partition(":")
    params = dict(part.split("=") for part in argstr.split(",")) if argstr else {}
    if base == "product":
        return int(params.get("m", 2)), math.prod
    if base == "variance":
        return 2, lambda xs: 0.5 * (xs[0] - xs[1]) ** 2
    raise ValueError(f"oracle has no kernel {spec!r}")


def truncated_jackknife_sum_sq(spec: str, x: list) -> float:
    """(n-1) * sum_i (U^i - U_n)^2 for h * 1(|h| <= n^(3m/5))."""
    m, h = _kernel(spec)
    n = len(x)
    cut = float(n) ** (0.6 * m)

    def total(indices):
        vals = (h([x[i] for i in t]) for t in itertools.combinations(indices, m))
        return math.fsum(v for v in vals if abs(v) <= cut)

    u_n = total(range(n)) / math.comb(n, m)
    loo = [total([j for j in range(n) if j != i]) / math.comb(n - 1, m)
           for i in range(n)]
    return (n - 1) * math.fsum((u - u_n) ** 2 for u in loo)
