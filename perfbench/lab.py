"""truncated_lab: a Monte Carlo loop through ustatlab's public functions.

    python3 perfbench/lab.py --plan PLAN.json --out DIR

For each case of the plan (see workloads.lab_plan), every replication
draws a sample, truncates the kernel with TruncationMode.FULL_M at the
sample size, builds the Studentized path and takes its signed supremum.
Truncated kernels have no config or CLI entry, so this loop is the only
workload that reaches the enumeration routes of ``ustatlab._accel``.

Writes DIR/result.json: per case the mean, standard error and KS distance
(against the Wiener supremum law) of the suprema, the dropped count, and
one small sample with its truncated jackknife sum of squares for the
leave-one-out oracle.  Functions are looked up on the ``ustatlab``
package at call time, so a tracer can wrap them there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import ustatlab as us


def resolve(plan: dict) -> list:
    """(case, kernel, dist, theta) per case; theta of the untruncated kernel."""
    out = []
    for case in plan["cases"]:
        kernel = us.kernel_from_name(case["kernel"])
        dist = us.dist_from_name(case["dist"])
        out.append((case, kernel, dist, us.theta_under(kernel, dist)))
    return out


def _truncated(kernel, n: int):
    return us.truncate_kernel(kernel, us.TruncationRule(us.TruncationMode.FULL_M, n))


def replicate(kernel, dist, theta: float, n: int, seed: int):
    """Signed supremum of one truncated Studentized path, None if dropped."""
    x = us.sample(dist, n, seed)
    try:
        return us.sup_functional(us.studentized_path(_truncated(kernel, n), x, theta))
    except us.DegenerateNormalizerError:
        return None


def run_case(case: dict, kernel, dist, theta: float, base_seed: int) -> dict:
    values = [replicate(kernel, dist, theta, case["n"], us.replication_seed(base_seed, r))
              for r in range(case["replications"])]
    kept = [v for v in values if v is not None]
    mean = math.fsum(kept) / len(kept)
    se = math.sqrt(math.fsum((v - mean) ** 2 for v in kept)
                   / (len(kept) - 1) / len(kept)) if len(kept) > 1 else 0.0
    n0 = case["oracle_n"]
    x0 = us.sample(dist, n0, us.replication_seed(base_seed, 0))
    summary = us.jackknife_closed_form(_truncated(kernel, n0), x0)
    return {
        "mean": mean, "se": se,
        "ks": us.ks_distance(kept, us.wiener_sup_cdf),
        "dropped": len(values) - len(kept),
        "oracle": {"x": x0.tolist(), "sum_sq": summary.sum_sq},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(args.plan) as fp:
        plan = json.load(fp)
    result = {case["name"]: run_case(case, kernel, dist, theta, plan["base_seed"])
              for case, kernel, dist, theta in resolve(plan)}
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "result.json"), "w") as fp:
        json.dump(result, fp, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
