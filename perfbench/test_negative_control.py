#!/usr/bin/env python3
"""Negative control for the benchmark's output checks.

Runs a short paper-network run three times through run.py: once as is,
which must pass its checks, and once with each of the two perturbations
(--perturb drop removes an oid from one recorded range answer, --perturb
add inserts one), which must make the checker fail: the result line reads
"correct": false and the exit code is non-zero. Exits 0 when all three
behave so.

    python3 perfbench/test_negative_control.py
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
BASE = ["--workload", "paper-network", "--seed", "7", "--seconds", "0.5",
        "--trace", "0"]


def run(extra):
    p = subprocess.run([sys.executable, RUN] + BASE + extra,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def main():
    failures = []
    code, result, err = run([])
    if code != 0 or result is None or result["correct"] is not True:
        failures.append("unperturbed run did not pass (exit %d)\n%s"
                        % (code, err))
    for how in ("drop", "add"):
        code, result, err = run(["--perturb", how])
        if code == 0 or result is None or result["correct"] is not False:
            failures.append("--perturb %s was not caught (exit %d)\n%s"
                            % (how, code, err))
        elif "1 mismatches" not in err:
            failures.append("--perturb %s: expected exactly one mismatch\n%s"
                            % (how, err))
    for f in failures:
        sys.stderr.write("FAIL: %s\n" % f)
    print("negative control: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
