"""The study's process layer: with ``workers > 1`` the driver forks one
child per contiguous slice of the replications.  Fork copies the test
process's memory, so a monkeypatch made here also applies in the
children.  Every test starts a handful of processes at most."""

import json
import os
import re
import signal
import time
from dataclasses import replace

import pytest

from ustatlab import (ConfigError, ExperimentConfig, ResourceLimitError, make_kernel,
                      normal, run_experiment)
from ustatlab import experiments
from ustatlab.cli import main
from ustatlab.experiments import _run, report_to_json

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

_RAW = dict(version=1, experiment="FCLT_SUP", kernel="identity", dist="normal:0,1",
            n_grid=[20, 40], replications=50, base_seed=11, ks_threshold=0.5)


def _config(**overrides) -> ExperimentConfig:
    return ExperimentConfig.from_dict(dict(_RAW, **overrides))


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def no_leftovers():
    """Fails a test that hangs, or whose study leaves a child unreaped or a
    descriptor open."""
    def hung(signum, frame):
        raise TimeoutError("the study hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    fds = _open_fds()
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _patch_rep(monkeypatch, act):
    """Replication values run ``act(rep)`` first, in whichever process
    runs the replication."""
    real = experiments._rep_value

    def rep_value(config, kernel, dist, theta, ells, rep, sampler):
        act(rep)
        return real(config, kernel, dist, theta, ells, rep, sampler)

    monkeypatch.setattr(experiments, "_rep_value", rep_value)


def _cap_at_40(rep):
    # replication 40 is in the second of two slices
    if rep == 40:
        raise ResourceLimitError("replication 40 capped")


def _canonical(report) -> tuple:
    return report_to_json(replace(report, runtime_seconds=0.0)), report.values


def test_a_childs_error_is_raised_again_with_its_type_and_message(monkeypatch,
                                                                  no_leftovers):
    _patch_rep(monkeypatch, _cap_at_40)
    with pytest.raises(ResourceLimitError, match=r"^replication 40 capped$"):
        run_experiment(_config(), workers=2)


def test_a_childs_error_exits_2_from_the_cli(monkeypatch, tmp_path, capsys, no_leftovers):
    _patch_rep(monkeypatch, _cap_at_40)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_RAW))
    assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: replication 40 capped\n"
    assert captured.out == ""


def _exit_7(rep):
    os._exit(7)


def _killed(rep):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("act,how", [(_exit_7, "exit code 7"), (_killed, "killed by SIGKILL")])
def test_a_child_that_dies_raises_and_does_not_hang(monkeypatch, no_leftovers, act, how):
    _patch_rep(monkeypatch, act)
    with pytest.raises(RuntimeError,
                       match=rf"^a study worker ended without a result \({how}\)$"):
        run_experiment(_config(), workers=2)


def test_an_exception_that_does_not_pickle_comes_back_as_its_repr(monkeypatch,
                                                                  no_leftovers):
    class Local(Exception):
        """pickle finds no class of this name, so it cannot pickle one"""

    def fail(rep):
        raise Local("not picklable")

    _patch_rep(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=f"^{re.escape(repr(Local('not picklable')))}$"):
        run_experiment(_config(), workers=2)


def test_a_childs_error_kills_the_child_still_running(monkeypatch, no_leftovers):
    # the first slice fails at once and the second would run for a minute
    def act(rep):
        if rep == 0:
            raise ResourceLimitError("first slice capped")
        if rep == 25:
            time.sleep(60)

    _patch_rep(monkeypatch, act)
    started = time.monotonic()
    with pytest.raises(ResourceLimitError, match="first slice capped"):
        run_experiment(_config(), workers=2)
    assert time.monotonic() - started < 30


def test_an_interrupted_driver_kills_and_reaps_its_children(monkeypatch, no_leftovers):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # each of the two slices would run for a minute
    _patch_rep(monkeypatch, lambda rep: time.sleep(60) if rep in (0, 25) else None)
    signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_experiment(_config(), workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def test_a_kernel_the_registry_cannot_name_runs_in_children(no_leftovers):
    kernel = make_kernel("mean2", 2, lambda x, y: 0.5 * (x + y))
    config = _config(kernel="mean2 (unregistered)")
    serial = _run(config, kernel, normal(0.0, 1.0), 0.0, workers=1)
    forked = _run(config, kernel, normal(0.0, 1.0), 0.0, workers=2)
    assert _canonical(forked) == _canonical(serial)
    assert all(v is not None for v in serial.values[40])


@pytest.mark.parametrize("workers", [3, 7])
def test_reports_are_identical_to_the_serial_run(no_leftovers, workers):
    config = _config()
    assert _canonical(run_experiment(config, workers=workers)) == \
        _canonical(run_experiment(config, workers=1))


def test_workers_need_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ConfigError, match="needs os.fork"):
        run_experiment(_config(), workers=2)
    assert run_experiment(_config(), workers=1).per_n
