#!/usr/bin/env python3
"""A/B pairs of perfbench runs: a base revision against the working tree.

    python3 tools/ab_pairs.py --base HEAD~1 --workload service_rw --seed 9 \
        --pairs 10 [--seconds 20]

Exports the base revision with `git archive` into .bench_build/ab/<sha>/
(an export, not a worktree, so nothing is registered in .git), then runs
`perfbench/run.py --trace 0` on the given workload and seed in each tree,
k pairs in turn, alternating which side runs first. Each tree builds its own
perfbench under its own .bench_build/.

Prints every pair, then for each end-to-end metric of BENCHMARK.json the
median and interquartile range of both sides, the change in the median, and
how many pairs the change won (in the metric's `better` direction; ties count
for neither side). Exits 1 when any run reports `correct: false`, exits with
no result or a non-zero status, or when `charged_steps_per_query` is not the
same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")
CHARGED = "charged_steps_per_query"


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export_base(rev):
    """Extract `rev` under .bench_build/ab/ once; return its directory."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(AB_DIR, sha[:12])
    if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("ab_pairs: git archive %s failed" % sha)
    return sha, tree


def run_once(tree, args):
    """One perfbench run in `tree`: its result dict, or an error string."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no result (exit %d): %s" % (done.returncode,
                                            done.stderr.strip()[-400:])
    if done.returncode != 0 or not result.get("correct"):
        return "correct: false (exit %d)" % done.returncode
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare to")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("ab_pairs: --pairs must be at least 1")

    sha, base_tree = export_base(args.base)
    sides = {"base": base_tree, "change": ROOT}
    metrics = spec["end_to_end"]
    runs = {"base": [], "change": []}
    whole = []  # pairs in which both sides produced a result
    errors = []
    print("ab_pairs: base %s, change = working tree; %s seed %d, %d pairs "
          "of %g s" % (sha[:12], args.workload, args.seed, args.pairs,
                       args.seconds))
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        for side in order:
            r = run_once(sides[side], args)
            if isinstance(r, str):
                errors.append("pair %d %s: %s" % (i, side, r))
                pair[side] = None
                continue
            pair[side] = {m["name"]: r["metrics"][m["name"]]["value"]
                          for m in metrics}
            runs[side].append(pair[side])
        if pair["base"] and pair["change"]:
            whole.append((pair["base"], pair["change"]))
        cells = []
        for m in metrics:
            b, c = (pair[s][m["name"]] if pair[s] else float("nan")
                    for s in ("base", "change"))
            cells.append("%s %.4g/%.4g" % (m["name"], b, c))
        print("pair %2d (%s first): %s" % (i, order[0], "  ".join(cells)),
              flush=True)

    if runs["base"] and runs["change"]:
        print("\n%-24s %-30s %-30s %8s %s" % ("metric (base/change)",
                                               "base median [q1, q3]",
                                               "change median [q1, q3]",
                                               "delta", "change wins"))
        for m in metrics:
            name = m["name"]
            b = [r[name] for r in runs["base"]]
            c = [r[name] for r in runs["change"]]
            bq, cq = quartiles(b), quartiles(c)
            wins = 0
            for rb, rc in whole:
                d = rc[name] - rb[name]
                wins += d > 0 if m["better"] == "higher" else d < 0
            delta = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
            print("%-24s %-30s %-30s %+7.1f%% %d/%d (%s is better)" % (
                name, "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]), delta, wins,
                len(whole), m["better"]))
        charged = {r[CHARGED] for side in runs.values() for r in side}
        if len(charged) > 1:
            errors.append("%s differs between runs: %s" %
                          (CHARGED, sorted(charged)))
    for e in errors:
        print("ab_pairs: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
