#!/usr/bin/env python3
"""Alternating ffqbench pairs: a git revision against the working tree.

Run from anywhere inside the repository:

  python3 tools/bench_pairs.py --base HEAD~1 --workload fanin_bulk \\
      --pairs 10 --seconds 10 --seed 1 --scratch /tmp/pairs
  python3 tools/bench_pairs.py --summarize runs.txt

The first form extracts revision --base (git archive) into a tree of its
own under --scratch, and runs

  python3 ffqbench/run.py --workload W --seed S --seconds N --trace 0

there and in the working tree, alternately: each pair runs both sides,
and the side that runs first swaps from one pair to the next. Each side
builds its own benchmark from its own sources (run.py builds into the
tree's .bench_build/). Every run is printed as one `run ...` line as soon
as it ends, then the summary: per workload and per end-to-end metric of
BENCHMARK.json, the median and quartiles of each side, the ratio of the
medians, and in how many pairs the working tree was better, in the
metric's own direction. Nothing is judged: the tool prints no verdict
and applies no bound.

--summarize reads `run ...` lines (as printed; `-` = stdin) and prints
only the summary. Exit status: 0, or 2 on a usage error, a build that
fails, or input without run lines.
"""
import argparse
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def fail(msg):
    print(f"bench_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def end_to_end_metrics(root=ROOT):
    """(name, better) of every end-to-end metric in BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


# --- summary ---------------------------------------------------------------


def quantile(values, q):
    """Linear interpolation between the closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def format_run(run):
    """One `run ...` line: key=value fields, metrics last."""
    fields = [f"workload={run['workload']}", f"pair={run['pair']}",
              f"side={run['side']}", f"order={run['order']}",
              f"exit={run['exit']}", f"failed={run['failed']}"]
    fields += [f"{k}={v:.6g}" for k, v in run["metrics"].items()]
    return "run " + " ".join(fields)


def parse_run(line):
    """The run of one `run ...` line, or None for any other line."""
    parts = line.split()
    if not parts or parts[0] != "run":
        return None
    run = {"metrics": {}}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"field without '=': {part!r}")
        if key in ("workload", "side"):
            run[key] = value
        elif key in ("pair", "order", "exit", "failed"):
            run[key] = int(value)
        else:
            run["metrics"][key] = float(value)
    for key in ("workload", "pair", "side"):
        if key not in run:
            raise ValueError(f"run line without {key}: {line.strip()!r}")
    if run["side"] not in SIDES:
        raise ValueError(f"unknown side {run['side']!r}")
    return run


def summarize(runs, metrics):
    """Per workload, per metric: each side's (median, q1, q3, n), the ratio
    of the medians (change / base) and the change's wins over the pairs
    that have both sides. Returns {workload: [row, ...]}."""
    table = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        rows = []
        for name, better in metrics:
            by_side = {s: {} for s in SIDES}
            for r in mine:
                if name in r["metrics"]:
                    by_side[r["side"]][r["pair"]] = r["metrics"][name]
            if not by_side["base"] and not by_side["change"]:
                continue
            stats = {}
            for side in SIDES:
                vals = list(by_side[side].values())
                stats[side] = ((quantile(vals, 0.5), quantile(vals, 0.25),
                                quantile(vals, 0.75), len(vals))
                               if vals else None)
            both = sorted(set(by_side["base"]) & set(by_side["change"]))
            wins = sum(1 for p in both
                       if (by_side["change"][p] > by_side["base"][p]
                           if better == "higher"
                           else by_side["change"][p] < by_side["base"][p]))
            ratio = None
            if stats["base"] and stats["change"] and stats["base"][0] != 0:
                ratio = stats["change"][0] / stats["base"][0]
            rows.append({"metric": name, "better": better, "base": stats["base"],
                         "change": stats["change"], "ratio": ratio,
                         "wins": wins, "pairs": len(both)})
        table[workload] = rows
    return table


def format_summary(table):
    def side(s):
        if s is None:
            return "-"
        med, q1, q3, n = s
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={n}"

    lines = []
    for workload, rows in table.items():
        lines.append(f"summary {workload}: median [q1, q3]; wins = pairs "
                     f"where the change is better")
        for row in rows:
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.4f}"
            lines.append(
                f"  {row['metric']:<10} {row['better']:<6} "
                f"base {side(row['base'])}  change {side(row['change'])}  "
                f"change/base {ratio}  wins {row['wins']}/{row['pairs']}")
    return "\n".join(lines)


# --- runs ------------------------------------------------------------------


def extract(rev, scratch):
    """A tree of revision `rev` under `scratch` (reused if present)."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True, text=True)
    if sha.returncode:
        fail(f"unknown revision {rev!r}")
    tree = os.path.join(scratch, "base-" + sha.stdout.strip()[:12])
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or untar.returncode:
            fail(f"could not extract {rev!r} into {tree}")
    return tree


def run_once(tree, workload, seed, seconds):
    """(exit status, failed, metrics) of one run.py run in `tree`."""
    cmd = [sys.executable, os.path.join(tree, "ffqbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, -1, {}
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    return p.returncode, result.get("failed", -1), metrics


def build(tree):
    """Build the benchmark of `tree` before any timed run, with that tree's
    own run.py build steps (a failed build exits 2 from there)."""
    spec = importlib.util.spec_from_file_location(
        "ffqbench_run_" + os.path.basename(tree),
        os.path.join(tree, "ffqbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.build()


def main():
    ap = argparse.ArgumentParser(
        description="Alternating ffqbench pairs: a revision against the "
                    "working tree (no verdict).")
    ap.add_argument("--base", help="git revision of the base side")
    ap.add_argument("--workload", action="append",
                    help="ffqbench workload (repeatable)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scratch", help="directory for the base tree")
    ap.add_argument("--summarize", metavar="FILE",
                    help="summarize run lines from FILE ('-' = stdin)")
    args = ap.parse_args()
    metrics = end_to_end_metrics()

    if args.summarize:
        src = sys.stdin if args.summarize == "-" else open(args.summarize)
        try:
            runs = [r for r in map(parse_run, src) if r is not None]
        except ValueError as e:
            fail(str(e))
        if not runs:
            fail("no run lines")
        print(format_summary(summarize(runs, metrics)))
        return 0

    if not (args.base and args.workload and args.scratch) or args.pairs < 1:
        ap.print_usage(sys.stderr)
        fail("--base, --workload and --scratch are required, --pairs >= 1")
    trees = {"base": extract(args.base, os.path.abspath(args.scratch)),
             "change": ROOT}
    for tree in trees.values():
        build(tree)
    runs = []
    for workload in args.workload:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for i, side in enumerate(order):
                code, failed, values = run_once(trees[side], workload,
                                                args.seed, args.seconds)
                run = {"workload": workload, "pair": pair, "side": side,
                       "order": i + 1, "exit": code, "failed": failed,
                       "metrics": values}
                runs.append(run)
                print(format_run(run), flush=True)
    print(format_summary(summarize(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
