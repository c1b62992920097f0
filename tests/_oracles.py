"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive (itertools + math.fsum) and shares
no code with the package paths it checks.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def brute_u_stat(h, data, m):
    """C(n,m)^-1 * sum over index combinations of h."""
    vals = [h(*(data[i] for i in c))
            for c in itertools.combinations(range(len(data)), m)]
    return math.fsum(vals) / math.comb(len(data), m)


def brute_combination_sum(h, data, m):
    return math.fsum(h(*(data[i] for i in c))
                     for c in itertools.combinations(range(len(data)), m))


def brute_leave_one_out(h, data, m):
    """U^i_(n-1) for each i: h is evaluated once per combination of the
    full sample, and U^i sums the combinations that leave i out."""
    n = len(data)
    vals = [(c, h(*(data[i] for i in c)))
            for c in itertools.combinations(range(n), m)]
    return [math.fsum(v for c, v in vals if i not in c) / math.comb(n - 1, m)
            for i in range(n)]


def brute_jackknife_sum_sq(h, data, m):
    """(n-1) * sum_i (U^i - U_n)^2 from the brute-force U_n and U^i."""
    n = len(data)
    u_n = brute_u_stat(h, data, m)
    loo = brute_leave_one_out(h, data, m)
    return (n - 1) * math.fsum((u - u_n) ** 2 for u in loo)


def exact_jackknife_sum_sq(h, data, m):
    """(n-1) * sum_i (U^i - U_n)^2 in exact rational arithmetic, every U
    re-enumerated; ``h`` must be exact on Fractions."""
    x = [Fraction(v) for v in data]

    def u(points):
        return sum(h(*c) for c in itertools.combinations(points, m)) \
            / math.comb(len(points), m)

    u_n = u(x)
    return (len(x) - 1) * sum((u(x[:i] + x[i + 1:]) - u_n) ** 2
                              for i in range(len(x)))


def brute_q(h, data, m):
    """q_i = C(n-1,m-1)^-1 * sum over combinations containing i of h."""
    n = len(data)
    totals = [0.0] * n
    for c in itertools.combinations(range(n), m):
        v = h(*(data[i] for i in c))
        for i in c:
            totals[i] += v
    return [t / math.comb(n - 1, m - 1) for t in totals]


def exact_product_q(data, m):
    """Per point i, in exact rational arithmetic: the sum of the product
    kernel over the m-subsets containing i, and the sum of its |h|."""
    x = [Fraction(v) for v in data]
    q = [Fraction(0)] * len(x)
    size = [Fraction(0)] * len(x)
    for c in itertools.combinations(range(len(x)), m):
        h = math.prod((x[i] for i in c), start=Fraction(1))
        for i in c:
            q[i] += h
            size[i] += abs(h)
    return q, size


def brute_ordered_sum(f, data, r):
    return math.fsum(f(*(data[i] for i in p))
                     for p in itertools.permutations(range(len(data)), r))


def brute_prefix(h, data, m):
    """U_k for k = m..n as a dict."""
    return {k: brute_u_stat(h, data[:k], m) for k in range(m, len(data) + 1)}


def finite_expectation(g, points, probs, arity):
    """Exact E g(X_1..X_arity) over a finite support."""
    total = 0.0
    for idx in itertools.product(range(len(points)), repeat=arity):
        w = math.prod(probs[i] for i in idx)
        total += w * g(*(points[i] for i in idx))
    return total


def stream_sample(dist, n, seed):
    """n variates of ``dist`` through numpy's public Generator transforms
    on PCG64(seed), one fresh generator per call: the example law as
    a + S * U^(-1/2) with U = 1 - random(n) drawn before the signs
    S = 2 * integers(0, 2, n) - 1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if dist.kind == "example":
        a = dist.params[0]
        u = 1.0 - rng.random(n)
        s = 2.0 * rng.integers(0, 2, n) - 1.0
        return a + s * u ** -0.5
    if dist.kind == "normal":
        mu, sigma = dist.params
        return rng.normal(mu, sigma, n)
    if dist.kind == "pareto":
        alpha, xm = dist.params
        return xm * (1.0 - rng.random(n)) ** (-1.0 / alpha)
    idx = rng.choice(len(dist.points), size=n, p=dist.probs)
    return dist.points[idx]


def truncated_second_moment_mp(dist, slope, icpt, bound, dps=40):
    """E[h^2 1(|h| <= bound)] for h = slope * X + icpt by mpmath quadrature
    at ``dps`` digits over the window {t: |h(t)| <= bound}.  For the
    normal law the integral runs in t, split at the window's centre and at
    mu +- 4 sigma and cut at mu +- 12 sigma, beyond which the Gaussian
    leaves less than 1e-30 of the second moment; for the Pareto law it runs in
    ln t, split at the centre and cut at xm."""
    import mpmath as mp

    with mp.workdps(dps):
        s, c, b = mp.mpf(slope), mp.mpf(icpt), mp.mpf(bound)
        lo, hi = sorted(((-b - c) / s, (b - c) / s))
        centre = -c / s
        if dist.kind == "normal":
            mu, sigma = (mp.mpf(v) for v in dist.params)
            lo, hi = max(lo, mu - 12 * sigma), min(hi, mu + 12 * sigma)
            cuts = [centre, mu - 4 * sigma, mu + 4 * sigma]
            scale, rate = 1 / (sigma * mp.sqrt(2 * mp.pi)), 1 / (2 * sigma ** 2)

            def f(t):
                return (s * t + c) ** 2 * scale * mp.exp(-rate * (t - mu) ** 2)
        else:
            alpha, xm = (mp.mpf(v) for v in dist.params)
            lo = max(lo, xm)
            if hi <= lo:
                return 0.0
            lo, hi, cuts = mp.log(lo), mp.log(hi), [mp.log(centre)] if centre > 0 else []
            scale = alpha * xm ** alpha

            def f(y):
                return (s * mp.exp(y) + c) ** 2 * scale * mp.exp(-alpha * y)
        if hi <= lo:
            return 0.0
        points = [lo] + sorted(p for p in cuts if lo < p < hi) + [hi]
        return float(mp.quad(f, points))
