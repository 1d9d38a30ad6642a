#!/usr/bin/env python3
"""Build and run ffqbench, the steady benchmark of the FFQ queue family.

Run from the root of the repository:

  python3 ffqbench/run.py --workload rpc_low --seed 1 --seconds 10 --trace 0
  python3 ffqbench/run.py --selftest

The first form builds the benchmark (CMake, into .bench_build/ffqbench)
when needed, runs one workload and passes its output through: the last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is the benchmark's (0 = every output checked).

--selftest runs the fault-injection checks described in README.md.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ffqbench")
BINARY = os.path.join(BUILD, "ffqbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"ffqbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "include", "ffq", "core", "spmc.hpp")):
        fail("no FFQ sources next to the benchmark (expected include/ffq/)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit status, stdout)."""
    try:
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"no result within {timeout} s: {' '.join(args)}", 3)
    return p.returncode, p.stdout


def last_json(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest():
    """Fault injection: a lost item must fail the run, and an executor stall
    must end in counted refusals, not a hang."""
    ok = True

    def check(name, cond, detail):
        nonlocal ok
        print(f"{'PASS' if cond else 'FAIL'} {name}: {detail}")
        ok = ok and cond

    for w in ("rpc_low", "fanin_bulk", "mpmc_pairs"):
        code, out = run(["--workload", w, "--seed", "7", "--seconds", "1",
                         "--trace", "0", "--inject", "drop"], timeout=60)
        r = last_json(out)
        share = r["failed"] / r["attempted"] if r else 0
        check(f"drop/{w}", code == 1 and r and not r["correct"] and share > 0,
              f"exit {code}, error_share {share:.3g}")

    code, out = run(["--workload", "rpc_high", "--seed", "7", "--seconds", "2",
                     "--trace", "0", "--inject", "stall"], timeout=60)
    r = last_json(out)
    check("stall/rpc_high",
          code == 0 and r and r["correct"] and r["failed"] > 0,
          f"exit {code}, refused {r['failed'] if r else '?'} of "
          f"{r['attempted'] if r else '?'}")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv == ["--selftest"]:
        build()
        sys.exit(selftest())
    if not argv or argv[0].startswith("-h"):
        print(__doc__)
        sys.exit(2)
    build()
    code, out = run(argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
