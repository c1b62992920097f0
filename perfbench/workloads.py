"""The four benchmark workloads, as data.

A workload is built from the benchmark seed and a size ("full" for
measured runs, "tiny" for the self-test).  The seed picks one of
``POOL_SIZE`` base seeds; ``reference.json`` holds the expected results
for every base seed, so each run's outputs can be checked against
values recorded from the program rather than re-derived from it.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

POOL_SIZE = 16

STUDY_WORKLOADS = ("fclt_path", "clt_heavy", "negligibility_lab")
LAB_WORKLOAD = "truncated_lab"
WORKLOADS = STUDY_WORKLOADS + (LAB_WORKLOAD,)
SIZES = ("full", "tiny")


def base_seed(seed: int) -> int:
    return 20261017 + 1000 * (seed % POOL_SIZE)


def _fclt(n_grid, reps):
    return {"fclt": {
        "version": 1, "experiment": "FCLT_SUP", "kernel": "identity",
        "dist": "normal:0,1", "n_grid": n_grid, "replications": reps,
        "ks_threshold": 0.5,
    }}


def _clt(n_grid, reps):
    return {"clt": {
        "version": 1, "experiment": "CLT_T0", "kernel": "product:m=2,a=2",
        "dist": "example:a=2", "n_grid": n_grid, "replications": reps,
        "ks_threshold": 0.5,
    }}


def _negligibility(sp_grid, sp_reps, sq_grid, sq_reps, cu_grid, cu_reps):
    return {
        "shared_pair": {
            "version": 1, "experiment": "NEGLIGIBILITY", "kernel": "product:m=3",
            "dist": "normal:0,1", "n_grid": sp_grid, "replications": sp_reps,
            "statistic": "shared-pair",
        },
        "diagonal_square": {
            "version": 1, "experiment": "NEGLIGIBILITY",
            "kernel": "constant:c=1,m=2", "dist": "normal:0,1", "n_grid": sq_grid,
            "replications": sq_reps, "statistic": "diagonal-square",
        },
        "centered_usq": {
            "version": 1, "experiment": "NEGLIGIBILITY", "kernel": "variance",
            "dist": "normal:0,1", "n_grid": cu_grid, "replications": cu_reps,
            "statistic": "centered-usq",
        },
    }


# `ustatlab study` configs per workload and size, without base_seed.
# The study validator requires replications >= 50.
_STUDIES = {
    "fclt_path": {
        "full": _fclt([10000, 100000], 50),
        "tiny": _fclt([1000, 3000], 50),
    },
    "clt_heavy": {
        "full": _clt([500, 2000, 5000, 10000], 2000),
        "tiny": _clt([200, 500], 50),
    },
    "negligibility_lab": {
        "full": _negligibility([12, 24, 48], 600, [50, 100, 200, 400], 200,
                               [50, 100, 200, 400], 1200),
        "tiny": _negligibility([8, 16], 50, [20, 80], 50, [20, 80], 50),
    },
}

# truncated_lab cases: (name, kernel, dist, n, replications, oracle_n).
# Every case is truncated with TruncationMode.FULL_M at its own n.  The lab
# also reports the truncated jackknife sum of squares of one sample of
# size oracle_n, which the brute-force leave-one-out oracle re-computes.
_LAB_CASES = {
    "full": [
        ("product2", "product:m=2,a=2", "example:a=2", 2000, 12, 30),
        ("variance", "variance", "normal:0,1", 2000, 12, 30),
        ("product3", "product:m=3", "normal:1,1", 200, 4, 14),
    ],
    "tiny": [
        ("product2", "product:m=2,a=2", "example:a=2", 200, 3, 20),
        ("variance", "variance", "normal:0,1", 200, 3, 20),
        ("product3", "product:m=3", "normal:1,1", 40, 3, 10),
    ],
}


def study_configs(workload: str, seed: int, size: str) -> dict:
    """name -> full `ustatlab study` config for one invocation."""
    out = {}
    for name, cfg in _STUDIES[workload][size].items():
        cfg = dict(cfg)
        cfg["base_seed"] = base_seed(seed)
        out[name] = cfg
    return out


def lab_plan(seed: int, size: str) -> dict:
    return {
        "base_seed": base_seed(seed),
        "cases": [
            {"name": name, "kernel": kernel, "dist": dist, "n": n,
             "replications": reps, "oracle_n": oracle_n}
            for name, kernel, dist, n, reps, oracle_n in _LAB_CASES[size]
        ],
    }


def replications(workload: str, seed: int, size: str) -> int:
    """Replications one invocation completes, summed over the n-grid."""
    if workload == LAB_WORKLOAD:
        return sum(c["replications"] for c in lab_plan(seed, size)["cases"])
    return sum(c["replications"] * len(c["n_grid"])
               for c in study_configs(workload, seed, size).values())
