"""Monte Carlo experiment harness with seeded, order-stable replication.

Each experiment draws R independent replications, with replication r
seeded by ``replication_seed(base_seed, r)``.  A replication draws one
random stream and takes its sample at each n of the grid as a prefix of
that stream (``distributions.sample_grid``), so the grid shares its
random numbers and trends compare like against like.  Replications run
in chunks, each returning its values at every n; a chunk draws every
replication's stream into one reused sample buffer, and a replication
checks its stream once.  Results are reduced in replication order, which
makes reports byte-identical (runtime aside) for any worker count.

Experiments
-----------
CLT_T0       law of k * (U_k - theta) / jack_scale at k = [n t0] vs N(0, t0)
FCLT_SUP     law of the signed supremum of the Studentized path vs the
             reflection formula 2 Phi(x) - 1
RAIKOV       sum h1(X_i)^2 / (n ell^2(n)) vs 1 (mean +- SE)
JACK_RAIKOV  (n-1) sum (U^i - U_n)^2 / (m^2 ell^2(n)) vs 1
ARVESEN      (n-1)/m^2 sum (U^i - U_n)^2 vs the analytic E h1^2
             (finite-variance configurations only)
NEGLIGIBILITY  mean of |statistic| per n (decomposition.negligibility_value);
             passes when the last mean is below half the first

Replications whose normalizer degenerates are dropped and counted; a
drop rate above 1% fails the report.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from typing import Optional

import numpy as np

from .decomposition import (
    TREND_STATISTICS,
    check_trend,
    negligibility_value,
    trend_decreasing,
)
from .distributions import (
    Distribution,
    _GridSampler,
    derive_seed,
    dist_from_name,
    estimate_ell,
)
from .engine import _as_sample
from .errors import (
    ConfigError,
    DegenerateNormalizerError,
    InvalidArgumentError,
    UnsupportedOperationError,
)
from .jackknife import _jackknife
from .kernels import Kernel, kernel_from_name, theta_under
from .processes import _check_theta, _studentized, _studentized_value, sup_functional

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "PerNRecord",
    "ConvergenceReport",
    "normal_cdf",
    "wiener_sup_cdf",
    "ks_distance",
    "replication_seed",
    "run_experiment",
    "report_to_json",
    "report_from_json",
]

EXPERIMENTS = ("CLT_T0", "FCLT_SUP", "RAIKOV", "JACK_RAIKOV", "ARVESEN",
               "NEGLIGIBILITY")

MAX_DROP_RATE = 0.01


def replication_seed(base_seed: int, replication_index: int) -> int:
    """base_seed XOR (index * 0x9E3779B97F4A7C15) mod 2^64; injective in
    the index, matching the samplers' derivation rule."""
    return derive_seed(base_seed, replication_index)


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
    """One-sample Kolmogorov-Smirnov distance against a fully specified CDF."""
    v = np.sort(np.asarray(samples, dtype=np.float64))
    if v.size == 0:
        raise InvalidArgumentError("ks_distance needs a nonempty sample")
    f = np.array([cdf(t) for t in v])
    i = np.arange(1, v.size + 1, dtype=np.float64)
    return float(max(np.max(np.abs(i / v.size - f)),
                     np.max(np.abs(f - (i - 1) / v.size))))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "version", "experiment", "kernel", "dist", "theta", "t0", "n_grid",
    "replications", "base_seed", "ks_threshold", "rel_mean_threshold",
    "ell_method", "statistic",
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    kernel: str
    dist: str
    n_grid: tuple
    replications: int
    base_seed: int
    theta: Optional[float] = None
    t0: float = 1.0
    ks_threshold: Optional[float] = None
    rel_mean_threshold: Optional[float] = None
    ell_method: Optional[str] = None
    statistic: Optional[str] = None
    version: int = 1

    def validate(self) -> "ExperimentConfig":
        if self.version != 1:
            raise ConfigError(f"unsupported config version {self.version}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; one of {EXPERIMENTS}"
            )
        if not self.n_grid or list(self.n_grid) != sorted(self.n_grid):
            raise ConfigError("n_grid must be nonempty and ascending")
        if self.replications < 50:
            raise ConfigError("replications must be >= 50")
        if not (0.0 < self.t0 <= 1.0):
            raise ConfigError(f"t0 must lie in (0, 1], got {self.t0}")
        if self.ell_method not in (None, "analytic-finite-var",
                                   "example-asymptotic", "truncated-fixed-point"):
            raise ConfigError(f"unknown ell_method {self.ell_method!r}")
        if self.experiment == "NEGLIGIBILITY":
            if self.statistic not in TREND_STATISTICS:
                raise ConfigError(
                    f"NEGLIGIBILITY needs statistic from {TREND_STATISTICS}"
                )
        elif self.statistic is not None:
            raise ConfigError("statistic only applies to NEGLIGIBILITY")
        if self.experiment in ("CLT_T0", "FCLT_SUP") and self.ks_threshold is None:
            raise ConfigError(f"{self.experiment} needs ks_threshold")
        if self.experiment in ("RAIKOV", "JACK_RAIKOV", "ARVESEN") \
                and self.rel_mean_threshold is None:
            raise ConfigError(f"{self.experiment} needs rel_mean_threshold")
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)} (fail-closed)")
        missing = {"version", "experiment", "kernel", "dist", "n_grid",
                   "replications", "base_seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys {sorted(missing)}")
        raw = dict(raw)
        raw["n_grid"] = tuple(int(n) for n in raw["n_grid"])
        try:
            cfg = cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cfg.validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = list(self.n_grid)
        return d


@dataclass(frozen=True)
class PerNRecord:
    n: int
    statistic: str
    mean: Optional[float]
    se: Optional[float]
    ks: Optional[float]
    dropped: int
    passed: bool


@dataclass(frozen=True)
class ConvergenceReport:
    config: dict
    per_n: list
    overall_pass: bool
    dropped_total: int
    notes: list = field(default_factory=list)
    runtime_seconds: float = 0.0
    # per-replication values by n, None where dropped; kept out of
    # to_dict() so report.json does not carry them
    values: dict = field(default_factory=dict, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "per_n": [asdict(r) for r in self.per_n],
            "overall_pass": self.overall_pass,
            "dropped_total": self.dropped_total,
            "notes": list(self.notes),
            "runtime_seconds": self.runtime_seconds,
        }


def report_to_json(report: ConvergenceReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def report_from_json(text: str) -> ConvergenceReport:
    d = json.loads(text)
    return ConvergenceReport(
        config=d["config"],
        per_n=[PerNRecord(**r) for r in d["per_n"]],
        overall_pass=d["overall_pass"],
        dropped_total=d["dropped_total"],
        notes=list(d["notes"]),
        runtime_seconds=d["runtime_seconds"],
    )


# ---------------------------------------------------------------------------
# per-replication statistics
# ---------------------------------------------------------------------------

def _resolve(config: ExperimentConfig):
    try:
        kernel = kernel_from_name(config.kernel)
        dist = dist_from_name(config.dist)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    theta = config.theta
    if theta is None:
        theta = theta_under(kernel, dist)
    if theta is None and config.experiment in ("CLT_T0", "FCLT_SUP"):
        raise ConfigError(
            f"theta unresolved for kernel '{config.kernel}' under "
            f"'{config.dist}'; pass it explicitly"
        )
    return kernel, dist, theta


def _projection_values(kernel: Kernel, dist: Distribution, x: np.ndarray) -> np.ndarray:
    if kernel.affine_projection is not None:
        slope, icpt = kernel.affine_projection(dist)
        return slope * x + icpt
    from .kernels import project_h1

    return np.array([project_h1(kernel, float(v), dist) for v in x])


def _rep_value(config: ExperimentConfig, kernel, dist, theta, ells,
               rep: int, sampler: _GridSampler) -> list:
    """Replication ``rep``'s value at every n of the grid, None where it
    is dropped; ``ells`` holds ell^2(n) per n.  One stream is drawn for
    the whole grid, by the chunk's ``sampler``."""
    samples = sampler(replication_seed(config.base_seed, rep))
    # the grid ascends, and each smaller n's sample is a prefix of the last
    # one or, for the example law, has its magnitudes |x - a| with other
    # signs: checking the last one checks them all
    _as_sample(samples[-1])
    return [_value(config, kernel, dist, theta, ell_sq, data)
            for ell_sq, data in zip(ells, samples)]


def _value(config: ExperimentConfig, kernel, dist, theta, ell_sq,
           data: np.ndarray) -> Optional[float]:
    n = len(data)
    try:
        if config.experiment == "CLT_T0":
            return _studentized_value(kernel, data, theta, int(n * config.t0))
        if config.experiment == "FCLT_SUP":
            return sup_functional(_studentized(kernel, data, theta))
        if config.experiment == "RAIKOV":
            proj = _projection_values(kernel, dist, data)
            v_sq = float(np.einsum("i,i->", proj, proj))
            if not v_sq > 0:
                raise DegenerateNormalizerError("V_n = 0")
            return v_sq / (n * ell_sq)
        if config.experiment == "JACK_RAIKOV":
            return _jackknife(kernel, data, keep_q=False)[2] / (kernel.order ** 2 * ell_sq)
        if config.experiment == "ARVESEN":
            return _jackknife(kernel, data, keep_q=False)[2] / kernel.order ** 2
        if config.experiment == "NEGLIGIBILITY":
            return negligibility_value(config.statistic, kernel, theta, data)
    except DegenerateNormalizerError:
        return None
    raise ConfigError(f"unhandled experiment {config.experiment}")


def _run_chunk(payload) -> list:
    """Replications start..stop-1, each as its list of values per n;
    ``ells`` holds the study's ell^2(n) per n.  The chunk draws every
    replication's stream into one sample buffer."""
    config_dict, ells, start, stop = payload
    config = ExperimentConfig.from_dict(config_dict)
    kernel, dist, theta = _resolve(config)
    sampler = _GridSampler(dist, config.n_grid)
    return [_rep_value(config, kernel, dist, theta, ells, rep, sampler)
            for rep in range(start, stop)]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig, workers: int = 1) -> ConvergenceReport:
    config.validate()
    started = time.monotonic()
    kernel, dist, theta = _resolve(config)
    notes: list = []
    if config.experiment == "NEGLIGIBILITY":
        check_trend(config.statistic, kernel, dist, config.n_grid, theta)
    if config.experiment in ("CLT_T0", "FCLT_SUP"):
        # the replications take theta and k unchecked
        _check_theta(theta)
    if config.experiment == "CLT_T0":
        for n in config.n_grid:
            k = int(n * config.t0)
            if k < max(kernel.order, 1):
                raise ConfigError(f"t0={config.t0} gives k={k} < m at n={n}")
    ells = [None] * len(config.n_grid)
    # degenerate configuration guard: a zero normalizing variance makes
    # every replication a drop, which the report records rather than hides
    if config.experiment in ("RAIKOV", "JACK_RAIKOV", "ARVESEN"):
        try:
            probe = estimate_ell(dist, kernel, max(config.n_grid),
                                 method=config.ell_method)
            if config.experiment == "ARVESEN" and probe.method != \
                    "analytic-finite-var":
                raise ConfigError(
                    "ARVESEN needs an analytic finite-variance projection "
                    f"(got ell method {probe.method!r})"
                )
        except UnsupportedOperationError as exc:
            raise ConfigError(str(exc)) from exc
        except InvalidArgumentError:
            per_n = [PerNRecord(n=n, statistic=_statistic_name(config), mean=None,
                                se=None, ks=None, dropped=config.replications,
                                passed=False)
                     for n in config.n_grid]
            notes.append(
                "degenerate configuration: the projection variance vanishes, "
                "every replication dropped"
            )
            return ConvergenceReport(
                config=config.to_dict(), per_n=per_n, overall_pass=False,
                dropped_total=config.replications * len(config.n_grid),
                notes=notes, runtime_seconds=time.monotonic() - started,
                values={n: [None] * config.replications for n in config.n_grid},
            )
        # ell^2(n) per n, once per study: the normalizer of RAIKOV and
        # JACK_RAIKOV, and ARVESEN's target E h1^2
        ells = [estimate_ell(dist, kernel, n, method=config.ell_method).ell_sq
                for n in config.n_grid]
    per_n = []
    values_by_n = {}
    dropped_total = 0
    rows = _collect(config, ells, workers)
    for j, n in enumerate(config.n_grid):
        values = values_by_n[n] = [row[j] for row in rows]
        kept = [v for v in values if v is not None]
        dropped = len(values) - len(kept)
        dropped_total += dropped
        per_n.append(_summarize(config, n, ells[j], kept, dropped))
    if config.experiment == "NEGLIGIBILITY":
        decreasing = trend_decreasing([r.mean for r in per_n])
        per_n = [replace(r, passed=decreasing) for r in per_n]
        if not decreasing:
            notes.append("trend flag: last mean not below half the first mean")
    overall = bool(per_n and per_n[-1].passed
                   and all(r.dropped <= MAX_DROP_RATE * config.replications
                           for r in per_n))
    if any(r.dropped > 0 for r in per_n):
        notes.append(f"dropped {dropped_total} degenerate replications")
    return ConvergenceReport(
        config=config.to_dict(), per_n=per_n, overall_pass=overall,
        dropped_total=dropped_total, notes=notes,
        runtime_seconds=time.monotonic() - started, values=values_by_n,
    )


def _collect(config: ExperimentConfig, ells: list, workers: int) -> list:
    """Every replication's values per n, in replication order: serially
    for one worker, else in workers * 4 chunks on one process pool."""
    R = config.replications
    if workers <= 1:
        return _run_chunk((config.to_dict(), ells, 0, R))
    bounds = np.linspace(0, R, workers * 4 + 1).astype(int)
    payloads = [(config.to_dict(), ells, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    rows: list = []
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for chunk in pool.map(_run_chunk, payloads):
            rows.extend(chunk)  # submission order == replication order
    finally:
        pool.shutdown(cancel_futures=True)
    return rows


def _statistic_name(config: ExperimentConfig) -> str:
    return {
        "CLT_T0": "studentized-at-t0",
        "FCLT_SUP": "studentized-signed-sup",
        "RAIKOV": "selfnorm-ratio",
        "JACK_RAIKOV": "jackknife-ratio",
        "ARVESEN": "jackknife-variance",
        "NEGLIGIBILITY": config.statistic or "trend",
    }[config.experiment]


def _summarize(config: ExperimentConfig, n: int, ell_sq: Optional[float],
               kept: list, dropped: int) -> PerNRecord:
    name = _statistic_name(config)
    drop_ok = dropped <= MAX_DROP_RATE * config.replications
    if not kept:
        return PerNRecord(n=n, statistic=name, mean=None, se=None, ks=None,
                          dropped=dropped, passed=False)
    arr = np.asarray(kept, dtype=np.float64)
    if config.experiment == "NEGLIGIBILITY":
        # passed is settled over the whole grid once the last n is in
        return PerNRecord(n=n, statistic=name, mean=float(arr.mean()),
                          se=_se(arr), ks=None, dropped=dropped, passed=False)
    if config.experiment == "CLT_T0":
        root = math.sqrt(config.t0)
        ks = ks_distance(arr, lambda x: normal_cdf(x / root))
        return PerNRecord(n=n, statistic=name, mean=float(arr.mean()),
                          se=_se(arr), ks=ks, dropped=dropped,
                          passed=bool(drop_ok and ks <= config.ks_threshold))
    if config.experiment == "FCLT_SUP":
        ks = ks_distance(arr, wiener_sup_cdf)
        return PerNRecord(n=n, statistic=name, mean=float(arr.mean()),
                          se=_se(arr), ks=ks, dropped=dropped,
                          passed=bool(drop_ok and ks <= config.ks_threshold))
    # mean-based experiments
    target = ell_sq if config.experiment == "ARVESEN" else 1.0
    mean = float(arr.mean())
    rel_gap = abs(mean - target) / abs(target)
    return PerNRecord(n=n, statistic=name, mean=mean, se=_se(arr), ks=None,
                      dropped=dropped,
                      passed=bool(drop_ok and rel_gap <= config.rel_mean_threshold))


def _se(arr: np.ndarray) -> float:
    if arr.size < 2:
        return 0.0
    return float(arr.std(ddof=1) / math.sqrt(arr.size))

