#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a corrupted reference digest raises error_rate, that
point_s_p90 is omitted when fewer than 10 samples lie beyond it, and
that any UNIMEM_* variable makes the benchmark refuse to run. Builds
perfbench/ first if needed; takes a few seconds.
"""

import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit("selftest: FAILED: " + what)
    print("selftest: ok: " + what)


def corrupted_digest_raises_error_rate():
    good = run.digest_path("chip", 1)
    bad_dir = os.path.join(run.BUILD, "selftest-digests")
    os.makedirs(bad_dir, exist_ok=True)
    bad = os.path.join(bad_dir, "chip-1.txt")
    with open(good) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("sgemv/"):
            fields = line.split()
            fields[1] = str(int(fields[1]) + 1)  # one cycle off
            lines[i] = " ".join(fields)
    with open(bad, "w") as f:
        f.write("\n".join(lines) + "\n")

    clean = run.run_process("chip", 1, good, False)
    check(clean["mismatches"] == 0 and run.error_rate([clean]) == 0,
          "chip matches its recorded digests (error_rate 0)")
    broken = run.run_process("chip", 1, bad, False)
    check(broken["mismatches"] == 1 and
          run.error_rate([broken]) == 1 / broken["attempted"],
          "one corrupted digest gives one mismatch (error_rate %.3f)"
          % run.error_rate([broken]))


def p90_needs_ten_samples_beyond():
    check(run.tail_percentile(list(range(26))) is None,
          "p90 omitted over 26 points (replay)")
    check(run.tail_percentile(list(range(100))) is None,
          "p90 omitted over 100 points (9 beyond)")
    check(run.tail_percentile(list(range(110))) == 99,
          "p90 reported over 110 points (10 beyond)")
    check(run.tail_percentile(list(range(156))) is not None,
          "p90 reported over 156 points (sweep)")


def unimem_knobs_are_refused():
    env = dict(os.environ, UNIMEM_JOBS="1")
    direct = subprocess.run(
        [run.BINARY, "--workload=chip", "--seed=1",
         "--digests=" + run.digest_path("chip", 1)],
        env=env, capture_output=True, text=True)
    check(direct.returncode != 0 and "UNIMEM_JOBS" in direct.stderr and
          not direct.stdout.strip(),
          "unimem_perf refuses to run with UNIMEM_JOBS set")
    script = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "chip", "--seed", "1", "--seconds", "1", "--trace", "0"],
        env=dict(env, PYTHONDONTWRITEBYTECODE="1"), capture_output=True,
        text=True)
    check(script.returncode != 0 and "UNIMEM_JOBS" in script.stderr and
          not script.stdout.strip(),
          "run.py refuses to run with UNIMEM_JOBS set")


def main():
    run.refuse_unimem_knobs()
    run.build()
    p90_needs_ten_samples_beyond()
    corrupted_digest_raises_error_rate()
    unimem_knobs_are_refused()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
