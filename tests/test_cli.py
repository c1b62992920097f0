import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ustatlab import experiments, leave_one_out, normal, product_kernel, sample
from ustatlab.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_path_csv_zero_branch(tmp_path):
    out = tmp_path / "path.csv"
    svg = tmp_path / "path.svg"
    code = run_cli("path", "--kernel", "product:m=2,a=2", "--dist", "example:a=2",
                   "--n", "200", "--seed", "3", "--process", "studentized",
                   "--out", str(out), "--svg", str(svg))
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "t", "value"]
    assert len(rows) == 202  # header + 201 grid values
    assert float(rows[1][2]) == 0.0
    assert float(rows[2][2]) == 0.0  # k = 0, 1 below m = 2
    assert svg.read_text().startswith("<svg")


def test_path_pseudo_process(tmp_path):
    out = tmp_path / "p.csv"
    code = run_cli("path", "--kernel", "product:m=2", "--dist", "normal:1,1",
                   "--n", "50", "--seed", "1", "--process", "pseudo",
                   "--out", str(out))
    assert code == 0


def test_path_bad_kernel_exits_2(tmp_path, capsys):
    code = run_cli("path", "--kernel", "nosuch", "--dist", "normal:0,1",
                   "--n", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "registry" in capsys.readouterr().err


def test_path_non_finite_law_exits_2(tmp_path, capsys):
    # NaN probabilities are refused where the law is built, as a usage
    # error, not by the sampler with a traceback
    code = run_cli("path", "--kernel", "identity", "--dist", "finite:[0,1];[nan,nan]",
                   "--n", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_path_degenerate_exits_3(tmp_path):
    code = run_cli("path", "--kernel", "constant:c=1,m=2", "--dist",
                   "normal:0,1", "--n", "20", "--theta", "1.0",
                   "--process", "studentized", "--out", str(tmp_path / "x.csv"))
    assert code == 3


def test_jackknife_json(capsys):
    code = run_cli("jackknife", "--kernel", "product:m=2", "--dist",
                   "normal:1,1", "--n", "12", "--seed", "4")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["leave_one_out", "m", "n", "q", "sum_sq", "u_n",
                             "variance_estimator"]
    assert payload["n"] == 12 and payload["m"] == 2
    data = sample(normal(1, 1), 12, 4)
    assert payload["leave_one_out"] == pytest.approx(
        leave_one_out(product_kernel(2), data).tolist(), rel=1e-12, abs=1e-12)
    assert payload["variance_estimator"] == pytest.approx(
        payload["sum_sq"] / 4)


def _study_config(tmp_path, **overrides):
    raw = dict(
        version=1, experiment="ARVESEN", kernel="product:m=2",
        dist="normal:1,1", n_grid=[100, 200], replications=50, base_seed=7,
        rel_mean_threshold=0.1,
    )
    raw.update(overrides)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def test_study_pass(tmp_path):
    cfg = _study_config(tmp_path)
    out = tmp_path / "study"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is True
    summary = read_csv(out / "summary.csv")
    assert summary[0] == ["n", "statistic", "mean", "se", "ks", "pass"]
    values = read_csv(out / "values_n100.csv")
    assert values[0] == ["replication", "value"]
    assert len(values) == 51


def test_study_negligibility_writes_values(tmp_path):
    cfg = _study_config(tmp_path, experiment="NEGLIGIBILITY", kernel="product:m=3",
                        dist="normal:0,1", n_grid=[8, 16], replications=60,
                        rel_mean_threshold=None, statistic="shared-pair")
    out = tmp_path / "study"
    assert run_cli("study", "--config", str(cfg), "--out", str(out),
                   "--workers", "2") == 0
    report = json.loads((out / "report.json").read_text())
    for rec in report["per_n"]:
        rows = read_csv(out / f"values_n{rec['n']}.csv")
        assert [r[0] for r in rows[1:]] == [str(r) for r in range(60)]
        values = [float(v) for _, v in rows[1:]]
        assert math.fsum(values) / 60 == pytest.approx(rec["mean"], rel=1e-12)


@pytest.mark.parametrize("overrides,message", [
    (dict(kernel="product:m=2"), "order-3 kernel"),
    (dict(n_grid=[12, 61]), "capped at 60"),
    (dict(n_grid=[2, 24]), "NEGLIGIBILITY needs n >= 2m - 1 = 5, got n=2"),
])
def test_study_negligibility_bad_shape_exits_2(tmp_path, capsys, overrides, message):
    raw = dict(experiment="NEGLIGIBILITY", kernel="product:m=3", dist="normal:0,1",
               n_grid=[12, 24], rel_mean_threshold=None, statistic="shared-pair")
    raw.update(overrides)
    cfg = _study_config(tmp_path, **raw)
    assert run_cli("study", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--workers", "2") == 2
    assert message in capsys.readouterr().err


def test_study_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run_cli("study", "--config", str(cfg), "--out",
                   str(tmp_path / "o")) == 2


def test_study_low_replications_rejected(tmp_path):
    cfg = _study_config(tmp_path, replications=10)
    assert run_cli("study", "--config", str(cfg), "--out",
                   str(tmp_path / "o")) == 2


def test_study_unknown_key_rejected(tmp_path):
    cfg = _study_config(tmp_path, extra_field=1)
    assert run_cli("study", "--config", str(cfg), "--out",
                   str(tmp_path / "o")) == 2


def test_study_failing_tolerance_exits_1(tmp_path):
    cfg = _study_config(tmp_path, rel_mean_threshold=0.0001)
    assert run_cli("study", "--config", str(cfg), "--out",
                   str(tmp_path / "o")) == 1


def test_study_degenerate_config_exits_1_with_values(tmp_path):
    # every replication dropped: the report fails, and each values CSV
    # still holds one empty row per replication
    cfg = _study_config(tmp_path, experiment="JACK_RAIKOV",
                        kernel="constant:c=1,m=2", dist="normal:0,1")
    out = tmp_path / "o"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 1
    for n in (100, 200):
        rows = read_csv(out / f"values_n{n}.csv")
        assert rows[1:] == [[str(r), ""] for r in range(50)]


def test_verify_identity_pass(capsys):
    code = run_cli("verify-identity", "--kernel", "product:m=2", "--dist",
                   "normal:0,1", "--n", "30", "--trials", "30", "--seed", "1")
    assert code == 0
    assert "discrepancy" in capsys.readouterr().out


def test_verify_identity_constant_kernel():
    assert run_cli("verify-identity", "--kernel", "constant:c=3,m=2", "--dist",
                   "normal:0,1", "--n", "10", "--trials", "5", "--seed", "1") == 0


def test_verify_identity_n_equals_m_exits_2():
    assert run_cli("verify-identity", "--kernel", "product:m=2", "--dist",
                   "normal:0,1", "--n", "2", "--trials", "5", "--seed", "1") == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_identity_without_trials_exits_2(capsys, trials):
    # no trial would compare nothing and report a discrepancy of 0
    assert run_cli("verify-identity", "--kernel", "product:m=2", "--dist",
                   "normal:0,1", "--n", "10", "--trials", trials) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --trials must be >= 1, got {trials}\n"
    assert captured.out == ""


def test_decomp_report(tmp_path):
    out = tmp_path / "decomp.json"
    code = run_cli("decomp", "--kernel", "product:m=2", "--dist",
                   "finite:[-1,1];[0.5,0.5]", "--shared", "1",
                   "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["reconstruction_max_error"] <= 1e-10
    assert {t["id"] for t in report["terms"]} >= {"V(1)", "V(1,2,3)"}


def test_decomp_requires_finite():
    assert run_cli("decomp", "--kernel", "product:m=2",
                   "--dist", "normal:0,1") == 2


@pytest.mark.parametrize("bound_n", ["0", "-1"])
def test_decomp_bound_n_below_one_exits_2(capsys, bound_n):
    # below 1 the second-moment bound would drop out of every term
    assert run_cli("decomp", "--kernel", "product:m=2", "--dist",
                   "finite:[-1,1];[0.5,0.5]", "--bound-n", bound_n) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --bound-n must be >= 1, got {bound_n}\n"
    assert captured.out == ""


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    # a missing directory in an output path is a usage error, not a traceback
    missing = tmp_path / "missing"
    for argv in (["path", "--kernel", "identity", "--dist", "normal:0,1", "--n", "10",
                  "--out", str(missing / "p.csv")],
                 ["path", "--kernel", "identity", "--dist", "normal:0,1", "--n", "10",
                  "--out", str(tmp_path / "p.csv"), "--svg", str(missing / "p.svg")],
                 ["decomp", "--kernel", "product:m=2", "--dist", "finite:[-1,1];[0.5,0.5]",
                  "--out", str(missing / "d.json")]):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err
        assert str(missing) in err
    assert not missing.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ustatlab", "jackknife", "--kernel", "identity",
         "--dist", "normal:0,1", "--n", "5", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 5


def _module_run(*argv):
    """``python -m ustatlab ARGV`` on this checkout's src/, stdout piped
    and block-buffered (PYTHONUNBUFFERED removed)."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ustatlab", *map(str, argv)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=300)


def _output_bytes(out) -> dict:
    """Every output file's bytes, report.json without its runtime line."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if b'"runtime_seconds"' not in line)
        files[path.name] = data
    return files


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("threshold,code,status", [(0.1, 0, "PASS"), (0.0001, 1, "FAIL")])
def test_module_study_matches_main(tmp_path, workers, threshold, code, status):
    # the process exits with main()'s code once its outputs are written,
    # and its stdout line and files are those of an in-process main()
    cfg = _study_config(tmp_path, rel_mean_threshold=threshold)
    out = tmp_path / "module"
    proc = _module_run("study", "--config", cfg, "--out", out, "--workers", workers)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == f"ARVESEN: {status} (report: {out / 'report.json'})\n"
    assert proc.stderr == ""
    assert run_cli("study", "--config", str(cfg), "--out", str(tmp_path / "main"),
                   "--workers", str(workers)) == code
    files = _output_bytes(out)
    assert sorted(files) == ["report.json", "summary.csv", "values_n100.csv",
                             "values_n200.csv"]
    assert files == _output_bytes(tmp_path / "main")


@pytest.mark.parametrize("workers", [1, 2])
def test_module_study_config_error_exits_2(tmp_path, workers):
    cfg = _study_config(tmp_path, replications="50")
    out = tmp_path / "module"
    proc = _module_run("study", "--config", cfg, "--out", out, "--workers", workers)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: replications must be an integer, got '50'\n"
    assert not out.exists()


def test_module_degenerate_normalizer_exits_3(tmp_path):
    proc = _module_run("path", "--kernel", "constant:c=1,m=2", "--dist", "normal:0,1",
                       "--n", 20, "--theta", 1.0, "--out", tmp_path / "x.csv")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("degenerate normalizer: ")


def test_workers_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("USTAT_WORKERS", "2")
    cfg = _study_config(tmp_path)
    out = tmp_path / "study_env"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 0


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_study_threshold_out_of_range_exits_2(tmp_path, capsys, threshold):
    # json writes NaN and Infinity bare, and json.load reads them back
    cfg = _study_config(tmp_path, rel_mean_threshold=threshold)
    out = tmp_path / "o"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: rel_mean_threshold must be finite and positive, got {threshold!r}\n")
    assert not out.exists()


def test_study_out_is_a_file_exits_2_before_any_replication(tmp_path, monkeypatch, capsys):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "_collect", no_replications)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run_cli("study", "--config", str(_study_config(tmp_path)), "--out", str(out),
                   "--workers", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {str(out)!r}: ")
    assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("flag,env", [("0", None), ("-2", None), (None, "-1")])
def test_study_worker_count_below_one_exits_2(tmp_path, monkeypatch, capsys, flag, env):
    if env is not None:
        monkeypatch.setenv("USTAT_WORKERS", env)
    argv = ["study", "--config", str(_study_config(tmp_path)), "--out", str(tmp_path / "o")]
    if flag is not None:
        argv += ["--workers", flag]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: workers must be >= 1, got {flag or env}\n"
    assert not (tmp_path / "o").exists()
