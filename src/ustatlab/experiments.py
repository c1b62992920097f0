"""Monte Carlo experiment harness with seeded, order-stable replication.

Each experiment draws R independent replications, with replication r
seeded by ``replication_seed(base_seed, r)``.  A replication draws one
random stream and takes its sample at each n of the grid as a prefix of
that stream (``distributions.sample_grid``), so the grid shares its
random numbers and trends compare like against like.  Replications run
in contiguous slices, each returning its values at every n; a slice draws
every replication's stream into one reused sample buffer, and a
replication checks its stream once.  With ``workers > 1`` the driver forks
(``os.fork``, so POSIX only) one child per slice, which runs it on the
driver's own resolved kernel, law and theta and sends its rows back as
one pickle over a pipe.  Results are reduced in replication order, which
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
NEGLIGIBILITY  mean of |statistic| per n (negligibility_value); passes when
             the last mean is below half the first

Replications whose normalizer degenerates are dropped and counted; a
drop rate above 1% fails the report.

Each experiment is one record of the ``_EXPERIMENTS`` table, which the
config check, the replications and the summary read: a new experiment
is one new record.  NEGLIGIBILITY is the Monte Carlo side of the
degenerate remainder that ``ustatlab.decomposition`` verifies exactly;
this module owns its statistics, its checks and its library loops
(:func:`negligibility_trend`, which returns the driver's own
:class:`ConvergenceReport`, and :func:`truncation_coupling_rate`) and never
loads ``decomposition``.  ``signal`` is imported only where a child
fails; no study loads ``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import time
from dataclasses import dataclass, field, fields, asdict, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .distributions import (ANALYTIC_FINITE_VAR, _ELL_METHODS, Distribution, _GridSampler,
                            dist_from_name, estimate_ell, replication_seed, sample_grid)
from .engine import _as_sample, _max_abs, _shared_pair_total, _square_sum, _total
from .errors import (
    ConfigError,
    DegenerateNormalizerError,
    InsufficientDataError,
    InvalidArgumentError,
    ResourceLimitError,
    UnsupportedOperationError,
)
from .jackknife import _jackknife
from .kernels import (Kernel, TruncationMode, TruncationRule, _check_count,
                      _projection_values, kernel_from_name, theta_under)
from .processes import (_check_theta, _studentized, _studentized_value, ks_distance,
                        normal_cdf, sup_functional, wiener_sup_cdf)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "PerNRecord",
    "ConvergenceReport",
    "run_experiment",
    "report_to_json",
    "TREND_STATISTICS",
    "negligibility_value",
    "negligibility_trend",
    "truncation_coupling_rate",
]

MAX_DROP_RATE = 0.01
TREND_STATISTICS = ("centered-usq", "diagonal-square", "shared-pair")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_NUMBER = (int, float)
_TYPE_NAMES = {str: "a string", int: "an integer", _NUMBER: "a number",
               (list, tuple): "a list"}
_KEY_TYPES = {
    "experiment": str, "kernel": str, "dist": str, "n_grid": (list, tuple),
    "replications": int, "base_seed": int, "theta": _NUMBER, "t0": _NUMBER,
    "ks_threshold": _NUMBER, "rel_mean_threshold": _NUMBER, "ell_method": str,
    "statistic": str, "version": int,
}
_OPTIONAL_KEYS = ("theta", "t0", "ell_method", "statistic", "ks_threshold",
                  "rel_mean_threshold")  # see _Experiment.reads_key


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
        self._check_types()
        if self.version != 1:
            raise ConfigError(f"unsupported config version {self.version}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; one of {EXPERIMENTS}"
            )
        if not self.n_grid or list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigError("n_grid must be nonempty and ascending")
        if self.n_grid[0] < 1:
            raise ConfigError(f"n_grid sizes must be >= 1, got {list(self.n_grid)!r}")
        if self.replications < 50:
            raise ConfigError("replications must be >= 50")
        experiment = _EXPERIMENTS[self.experiment]
        defaults = {f.name: f.default for f in fields(self)}
        for key in _OPTIONAL_KEYS:
            if not experiment.reads_key(key) and getattr(self, key) != defaults[key]:
                readers = ", ".join(n for n, e in _EXPERIMENTS.items() if e.reads_key(key))
                raise ConfigError(f"{key} only applies to {readers}")
        if not (0.0 < self.t0 <= 1.0):
            raise ConfigError(f"t0 must lie in (0, 1], got {self.t0}")
        if self.ell_method is not None and self.ell_method not in _ELL_METHODS:
            raise ConfigError(f"unknown ell_method {self.ell_method!r}")
        if experiment.rule == "statistic":
            if self.statistic not in TREND_STATISTICS:
                raise ConfigError(
                    f"{self.experiment} needs statistic from {TREND_STATISTICS}"
                )
        else:
            threshold = getattr(self, experiment.rule)
            if threshold is None:
                raise ConfigError(f"{self.experiment} needs {experiment.rule}")
            # NaN or 0 would fail every study, infinity pass every one
            if not 0 < threshold < math.inf:
                raise ConfigError(
                    f"{experiment.rule} must be finite and positive, got {threshold!r}")
        return self

    def _check_types(self) -> None:
        """Each key holds a value of its type (None only where that is the
        default), so no later check or replication meets a wrong one."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            kind = _KEY_TYPES[f.name]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in self.n_grid):
            raise ConfigError(f"n_grid must hold integers, got {list(self.n_grid)!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)} (fail-closed)")
        missing = {"version", "experiment", "kernel", "dist", "n_grid",
                   "replications", "base_seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys {sorted(missing)}")
        raw = dict(raw)
        if isinstance(raw["n_grid"], list):
            raw["n_grid"] = tuple(raw["n_grid"])
        return cls(**raw).validate()

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


# ---------------------------------------------------------------------------
# the experiments, one record each
# ---------------------------------------------------------------------------

class _Experiment(NamedTuple):
    """``statistic`` names the values (None: the config's ``statistic``);
    ``rule`` is the config key of the pass rule: KS distance to the CDF
    ``reference(config, ell_sq)``, relative gap of the mean to that
    target, or a falling trend; ``preflight(config, kernel, dist, theta)``
    runs before any replication and returns ell^2(n) per n, or None for a
    degenerate configuration; ``value(config, kernel, dist, theta,
    ell_sq, x)`` is the value on one checked sample; ``reads`` names the
    optional config keys the experiment reads besides its rule's."""

    statistic: Optional[str]
    rule: str
    preflight: Callable
    value: Callable
    reference: Optional[Callable] = None
    reads: tuple = ()

    def reads_key(self, key: str) -> bool:
        """Whether the experiment reads the optional config key ``key``."""
        return key in self.reads or key == self.rule


def _theta_ready(config, kernel, dist, theta) -> list:
    """The Studentized replications take theta unchecked: it must be
    resolved and finite."""
    if theta is None:
        raise ConfigError(
            f"theta unresolved for kernel '{config.kernel}' under "
            f"'{config.dist}'; pass it explicitly"
        )
    _check_theta(theta)
    return [None] * len(config.n_grid)


def _loo_ready(preflight: Callable) -> Callable:
    """``preflight`` of an experiment whose value takes a jackknife, after
    the leave-one-out size check: n >= m + 1 at every n."""
    def ready(config, kernel, dist, theta):
        n, m = config.n_grid[0], kernel.order
        if n < m + 1:
            raise ConfigError(f"{config.experiment} needs n >= m + 1 = {m + 1} "
                              f"for the jackknife, got n={n}")
        return preflight(config, kernel, dist, theta)
    return ready


def _t0_ready(config, kernel, dist, theta) -> list:
    """CLT_T0 also takes k = [n t0] unchecked: k >= m at every n."""
    ells = _theta_ready(config, kernel, dist, theta)
    for n in config.n_grid:
        k = int(n * config.t0)
        if k < max(kernel.order, 1):
            raise ConfigError(f"t0={config.t0} gives k={k} < m at n={n}")
    return ells


def _trend_check(statistic_id: str, kernel: Kernel, theta: Optional[float],
                 n: int) -> None:
    """NEGLIGIBILITY's argument rules, which :func:`negligibility_value`
    and the study's preflight both ask: a known statistic, an order-3
    kernel for ``shared-pair``, n >= m for ``centered-usq`` and n >= 2m - 1
    for the others, whose scale [n]_(2m-1) vanishes below it, and a theta
    for ``centered-usq``, finite wherever one is given."""
    if statistic_id not in TREND_STATISTICS:
        raise InvalidArgumentError(
            f"unknown statistic {statistic_id!r}; choose from {TREND_STATISTICS}")
    m = kernel.order
    if statistic_id == "shared-pair" and m != 3:
        raise InvalidArgumentError("shared-pair statistic needs an order-3 kernel")
    rule, least = ("m", m) if statistic_id == "centered-usq" else ("2m - 1", 2 * m - 1)
    if n < least:
        raise InsufficientDataError(
            f"{statistic_id} needs n >= {rule} = {least}, got n={n}")
    if statistic_id == "centered-usq" and theta is None:
        raise InvalidArgumentError(f"centered-usq needs theta for kernel '{kernel.name}'")
    if theta is not None:
        _check_theta(theta)


def _trend_ready(config, kernel, dist, theta) -> list:
    """NEGLIGIBILITY's checks, all of them before any replication: the
    kernel order and the size caps, then :func:`_trend_check` at the
    grid's first n, where a grid too short is a configuration error.  The
    grid is checked by ``validate`` or :func:`negligibility_trend`."""
    m = kernel.order
    if m > 3:
        raise ResourceLimitError("trend statistics capped at kernel order 3")
    cap = 400 if m <= 2 else 60
    if config.n_grid[-1] > cap:
        raise ResourceLimitError(f"trend sample size capped at {cap} for m={m}")
    try:
        _trend_check(config.statistic, kernel, theta, config.n_grid[0])
    except InsufficientDataError as exc:
        raise ConfigError(str(exc)) from exc
    return [None] * len(config.n_grid)


def negligibility_value(statistic_id: str, kernel: Kernel, theta: Optional[float],
                        x: np.ndarray) -> float:
    """|statistic| on one sample x.

    Statistics: ``centered-usq`` = (U_n - theta)^2; ``diagonal-square`` =
    the sum of h^2 over distinct tuples scaled by the falling factorial
    [n]^-(2m-1); ``shared-pair`` = the order-3 statistic pairing two
    kernel evaluations that share their first two arguments, same scale.
    The sample is checked first, so a non-finite value raises DomainError,
    and then the arguments, by :func:`_trend_check`, before any reduction.
    """
    x = _as_sample(x)
    _trend_check(statistic_id, kernel, theta, x.shape[0])
    return _negligibility_value(statistic_id, kernel, theta, x)


def _negligibility_value(statistic_id: str, kernel: Kernel, theta: Optional[float],
                         x: np.ndarray) -> float:
    """:func:`negligibility_value` of a checked sample."""
    n, m = x.shape[0], kernel.order
    if statistic_id == "centered-usq":
        return float(abs((_total(kernel, x) / math.comb(n, m) - theta) ** 2))
    if statistic_id == "diagonal-square":
        total = math.factorial(m) * _square_sum(kernel, x)
    else:
        total = _shared_pair_total(kernel, x)  # m == 3 here
    return float(abs(total / float(math.perm(n, 2 * m - 1))))


def _ells(config, kernel, dist, theta, analytic: bool = False) -> Optional[list]:
    """ell^2(n) per n, once per study: the normalizer of the Raikov ratios
    and, with ``analytic``, the target E h1^2 of ARVESEN.  None where the
    projection variance vanishes: every replication would be a drop, which
    the report records rather than hides."""
    try:
        estimates = [estimate_ell(dist, kernel, n, method=config.ell_method)
                     for n in config.n_grid]
    except UnsupportedOperationError as exc:
        raise ConfigError(str(exc)) from exc
    except InvalidArgumentError:
        return None
    if analytic and estimates[-1].method != ANALYTIC_FINITE_VAR:
        raise ConfigError(
            f"{config.experiment} needs an analytic finite-variance projection "
            f"(got ell method {estimates[-1].method!r})"
        )
    return [estimate.ell_sq for estimate in estimates]


def _raikov_value(config, kernel, dist, theta, ell_sq, x) -> float:
    proj = _projection_values(kernel, dist, x)
    v_sq = float(np.einsum("i,i->", proj, proj))
    if not v_sq > 0:
        raise DegenerateNormalizerError("V_n = 0")
    return v_sq / (len(x) * ell_sq)


def _t0_cdf(config, ell_sq):
    root = math.sqrt(config.t0)
    return lambda x: normal_cdf(x / root)


_EXPERIMENTS = {
    "CLT_T0": _Experiment(
        "studentized-at-t0", "ks_threshold", _loo_ready(_t0_ready),
        lambda config, kernel, dist, theta, ell_sq, x:
            _studentized_value(kernel, x, theta, int(len(x) * config.t0)),
        _t0_cdf, ("theta", "t0")),
    "FCLT_SUP": _Experiment(
        "studentized-signed-sup", "ks_threshold", _loo_ready(_theta_ready),
        lambda config, kernel, dist, theta, ell_sq, x:
            sup_functional(_studentized(kernel, x, theta)),
        lambda config, ell_sq: wiener_sup_cdf, ("theta",)),
    "RAIKOV": _Experiment(
        "selfnorm-ratio", "rel_mean_threshold", _ells, _raikov_value,
        lambda config, ell_sq: 1.0, ("ell_method",)),
    "JACK_RAIKOV": _Experiment(
        "jackknife-ratio", "rel_mean_threshold", _loo_ready(_ells),
        lambda config, kernel, dist, theta, ell_sq, x:
            _jackknife(kernel, x, keep_q=False)[2] / (kernel.order ** 2 * ell_sq),
        lambda config, ell_sq: 1.0, ("ell_method",)),
    "ARVESEN": _Experiment(
        "jackknife-variance", "rel_mean_threshold",
        _loo_ready(lambda *args: _ells(*args, analytic=True)),
        lambda config, kernel, dist, theta, ell_sq, x:
            _jackknife(kernel, x, keep_q=False)[2] / kernel.order ** 2,
        lambda config, ell_sq: ell_sq, ("ell_method",)),
    "NEGLIGIBILITY": _Experiment(
        None, "statistic", _trend_ready,
        lambda config, kernel, dist, theta, ell_sq, x:
            _negligibility_value(config.statistic, kernel, theta, x),
        reads=("theta",)),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


# ---------------------------------------------------------------------------
# replications
# ---------------------------------------------------------------------------

def _resolve(config: ExperimentConfig):
    try:
        kernel = kernel_from_name(config.kernel)
        dist = dist_from_name(config.dist)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    theta = config.theta if config.theta is not None else theta_under(kernel, dist)
    return kernel, dist, theta


def _rep_value(config: ExperimentConfig, kernel, dist, theta, ells,
               rep: int, sampler: _GridSampler) -> list:
    """Replication ``rep``'s value at every n of the grid, None where it
    is dropped; ``ells`` holds ell^2(n) per n.  One stream is drawn for
    the whole grid, by the slice's ``sampler``."""
    samples = sampler(replication_seed(config.base_seed, rep))
    # the grid ascends, and each smaller n's sample is a prefix of the last
    # one or, for the example law, has its magnitudes |x - a| with other
    # signs: checking the last one checks them all
    _as_sample(samples[-1])
    value = _EXPERIMENTS[config.experiment].value
    values = []
    for ell_sq, x in zip(ells, samples):
        try:
            values.append(value(config, kernel, dist, theta, ell_sq, x))
        except DegenerateNormalizerError:
            values.append(None)
    return values


def _replicate(config: ExperimentConfig, kernel, dist, theta, ells,
               start: int, stop: int) -> list:
    """Replications start..stop-1, each as its list of values per n; the
    slice draws every replication's stream into one sample buffer."""
    sampler = _GridSampler(dist, config.n_grid)
    return [_rep_value(config, kernel, dist, theta, ells, rep, sampler)
            for rep in range(start, stop)]


class _Child:
    """A forked child that runs ``work()`` and sends back its result, or
    the exception it raised, as one pickle over a pipe.  ``inherited``
    holds the read ends of the children forked before it, which the child
    closes."""

    def __init__(self, work: Callable, inherited: list):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            _serve(work, write_fd, [read_fd, *inherited])
        os.close(write_fd)
        self.pid, self.fd = pid, read_fd

    def result(self):
        """What ``work()`` returned; its exception is raised again here."""
        with open(self.fd, "rb") as pipe:
            self.fd = None
            message = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status or not message:
            import signal

            code = os.waitstatus_to_exitcode(status)
            how = (f"exit code {code}" if code >= 0
                   else f"killed by {signal.Signals(-code).name}")
            raise RuntimeError(f"a study worker ended without a result ({how})")
        ok, payload = pickle.loads(message)
        if not ok:
            raise payload
        return payload

    def stop(self) -> None:
        """Close the pipe, kill the child if it has not been reaped and
        reap it; an unreaped child's pid cannot name another process."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _serve(work: Callable, write_fd: int, unused: list) -> None:
    """The child's side of :class:`_Child`.  It ends with ``os._exit``, so
    it never flushes the parent's stdio buffers or runs its atexit
    handlers, and it exits 0 only once the whole message is written."""
    code = 1
    try:
        for fd in unused:
            os.close(fd)
        try:
            message = pickle.dumps((True, work()), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            message = _pickled_error(exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(message)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    """``(False, exc)`` pickled, or a RuntimeError carrying ``repr(exc)``
    where ``exc`` does not survive the round trip."""
    try:
        message = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(message)
        return message
    except Exception:
        return pickle.dumps((False, RuntimeError(repr(exc))), pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig, workers: int = 1) -> ConvergenceReport:
    config.validate()
    return _run(config, *_resolve(config), workers=workers)


def _check_workers(workers: int) -> None:
    """A worker count the driver can run: an integer at least 1, and 1
    without os.fork."""
    _check_count("workers", workers, ConfigError)
    if workers > 1 and not hasattr(os, "fork"):
        raise ConfigError("workers > 1 needs os.fork, which this platform lacks")


def _run(config: ExperimentConfig, kernel, dist, theta,
         workers: int = 1) -> ConvergenceReport:
    """The study of ``config`` on resolved objects, which the forked
    children share as they are: a kernel the registry cannot name runs at
    any worker count."""
    _check_workers(workers)
    started = time.monotonic()
    experiment = _EXPERIMENTS[config.experiment]
    ells = experiment.preflight(config, kernel, dist, theta)
    R = config.replications
    rows = ([[None] * len(config.n_grid)] * R if ells is None
            else _collect(config, (kernel, dist, theta), ells, workers))
    drop_cap = MAX_DROP_RATE * R
    per_n = []
    values_by_n = {}
    dropped_total = 0
    for j, n in enumerate(config.n_grid):
        values = values_by_n[n] = [row[j] for row in rows]
        kept = np.asarray([v for v in values if v is not None], dtype=np.float64)
        dropped = R - kept.size
        dropped_total += dropped
        mean = se = ks = None
        passed = False
        if kept.size:
            mean, se = float(kept.mean()), _se(kept)
            if experiment.rule == "ks_threshold":
                ks = ks_distance(kept, experiment.reference(config, ells[j]))
                passed = ks <= config.ks_threshold
            elif experiment.rule == "rel_mean_threshold":
                target = experiment.reference(config, ells[j])
                passed = abs(mean - target) / abs(target) <= config.rel_mean_threshold
        per_n.append(PerNRecord(
            n=n, statistic=experiment.statistic or config.statistic, mean=mean,
            se=se, ks=ks, dropped=dropped, passed=bool(dropped <= drop_cap and passed)))
    notes = []
    if experiment.rule == "statistic":
        # passed is settled over the whole grid once the last n is in: the
        # last mean is below half the first
        decreasing = bool(per_n[-1].mean < 0.5 * per_n[0].mean)
        per_n = [replace(r, passed=decreasing) for r in per_n]
        if not decreasing:
            notes.append("trend flag: last mean not below half the first mean")
    if ells is None:
        notes.append("degenerate configuration: the projection variance vanishes, "
                     "every replication dropped")
    elif dropped_total:
        notes.append(f"dropped {dropped_total} degenerate replications")
    overall = bool(per_n and per_n[-1].passed
                   and all(r.dropped <= drop_cap for r in per_n))
    return ConvergenceReport(
        config=config.to_dict(), per_n=per_n, overall_pass=overall,
        dropped_total=dropped_total, notes=notes,
        runtime_seconds=time.monotonic() - started, values=values_by_n,
    )


def _collect(config: ExperimentConfig, resolved: tuple, ells: list,
             workers: int) -> list:
    """Every replication's values per n, in replication order: serially on
    ``resolved`` = (kernel, dist, theta), else in min(workers, R) forked
    children, one contiguous slice each, read back in slice order.  On
    every way out, any child still running is killed and every child is
    reaped."""
    R = config.replications
    workers = min(workers, R)
    if workers == 1:
        return _replicate(config, *resolved, ells, 0, R)
    bounds = [R * i // workers for i in range(workers + 1)]
    children: list = []
    try:
        for start, stop in zip(bounds, bounds[1:]):
            children.append(_Child(partial(_replicate, config, *resolved, ells, start, stop),
                                   [child.fd for child in children]))
        rows: list = []
        for child in children:
            rows.extend(child.result())
        return rows
    finally:
        for child in children:
            child.stop()


def _se(arr: np.ndarray) -> float:
    if arr.size < 2:
        return 0.0
    return float(arr.std(ddof=1) / math.sqrt(arr.size))


# ---------------------------------------------------------------------------
# NEGLIGIBILITY library loops
# ---------------------------------------------------------------------------

def negligibility_trend(statistic_id: str, kernel: Kernel, dist: Distribution,
                        n_grid, R: int, seed: int) -> ConvergenceReport:
    """Monte Carlo mean of |statistic| (see :func:`negligibility_value`)
    along ``n_grid``: the report of the study driver's NEGLIGIBILITY run on
    this kernel and law, replication r seeded by ``replication_seed(seed,
    r)``.  It skips ``validate``, so it checks R and the grid itself; the
    preflight checks the statistic."""
    _check_count("R", R)
    n_grid = tuple(n_grid)
    if not n_grid or sorted(set(n_grid)) != list(n_grid):
        raise InvalidArgumentError("n_grid must be nonempty ascending")
    config = ExperimentConfig(
        experiment="NEGLIGIBILITY", kernel=kernel.name, dist=dist.name, n_grid=n_grid,
        replications=R, base_seed=seed, statistic=statistic_id)
    return _run(config, kernel, dist, theta_under(kernel, dist))


def truncation_coupling_rate(kernel: Kernel, dist: Distribution, n_grid,
                             R: int, seed: int):
    """Fraction of samples where some evaluated tuple escapes the
    order-level threshold n^(3m/5), i.e. the truncated statistic differs
    from the raw one; decreases with n when E|h|^(5/3) is finite."""
    _check_count("R", R)
    m = kernel.order
    n_grid = list(n_grid)
    hits = [0] * len(n_grid)
    for rep in range(R):
        for j, x in enumerate(sample_grid(dist, n_grid, replication_seed(seed, rep))):
            threshold = TruncationRule(TruncationMode.FULL_M, len(x)).threshold(m)
            hits[j] += _max_abs(kernel, x) > threshold
    return [(n, h / R) for n, h in zip(n_grid, hits)]
