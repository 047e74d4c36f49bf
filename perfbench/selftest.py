#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size run of every workload, untraced
and traced, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the oracle (and read_write's durability check) passed, that the
traced layers reconcile with the client round trip within MAX_GAP, and
that the benchmark refuses to run without the repository's sources.
Prints each workload's measured reconciliation gap next to its
service.unattributed_share, the share of Query time that no span covers
(the gap only compares two runs of the service; see NOTES.md). Exits
non-zero on any failure.
"""

import json
import os
import shutil
import subprocess
import sys

# Tiny traced phases last a second each (functional sends ~80 requests
# per phase), so the gap they measure carries several percent of noise;
# full-scale gaps are recorded in NOTES.md.
MAX_GAP = 0.15
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "3",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(workload, trace)
            label = f"{workload} trace={trace}"
            if code != 0 or not lines:
                failures.append(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"]:
                failures.append(f"{label}: oracle or durability check failed: {lines[-2]}")
            if result["attempted"] < 1:
                failures.append(f"{label}: nothing attempted")
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(f"{label}: metric {metric['name']} missing or wrong unit")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                failures.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace == 1 and "recon.gap_share" in metrics:
                # The gap compares the in-process replay's Query time with
                # the socket run's; span coverage is the unattributed share.
                gap = metrics["recon.gap_share"]["value"]
                print(f"{workload}: reconciliation gap {gap:+.4f} of the mean round trip "
                      f"({metrics['recon.rtt_us_mean']['value']:.1f} us); "
                      f"unattributed {metrics['service.unattributed_share']['value']:.4f} "
                      f"of Query time")
                if abs(gap) > MAX_GAP:
                    failures.append(f"{label}: reconciliation gap {gap:+.4f} > {MAX_GAP}")
            print(f"{label}: ok={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")

    # Without the repository's sources the benchmark must fail, not print.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    env_cmd = [sys.executable, os.path.join(bare, "perfbench", "run.py"),
               "--workload", "read_cold", "--seed", "1", "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    out = subprocess.run(env_cmd, cwd=bare, capture_output=True, text=True, env=env,
                         timeout=180)
    if out.returncode == 0 or out.stdout.strip():
        failures.append("bare directory: expected a non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
