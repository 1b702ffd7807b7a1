"""Run the benchmark on two chunkkit trees in alternating pairs and compare.

    python tools/bench_pairs.py PARENT_DIR --workload eval --pairs 10 --seed 1 --seconds 30 [--record [BENCH_n.json]]

Run from the repository root. Each pair runs ``perfbench/run.py`` once in
PARENT_DIR and once in this tree, each from its own root with its own
untouched ``run.py``; even pairs run the parent first and odd pairs this
tree, so a drift in the host's speed does not favour either. ``--workload``
takes one of ``run.WORKLOADS`` or a comma-separated list of them.

For each end-to-end metric of ``BENCHMARK.json`` it prints the median of
each tree's runs, the relative change of the medians, the interquartile
range of the parent's runs, and in how many pairs this tree's run was the
better one. It also says whether the exact counters (``run.EXACT``) of
every run agree, and names each run that was not correct.

``--record`` writes the runs to the next free ``BENCH_<n>.json`` at the
repository root; ``--record BENCH_<n>.json`` adds these workloads to that
file instead, when it records the same trees. A record holds each tree's
git SHA and whether its tracked files differed from it when the runs
began, the Python version, the CPU count, and per workload
the command line, the summary and each run's JSON line and exact
counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

import run  # noqa: E402

TREES = ("parent", "change")


def run_order(pairs: int) -> list[tuple[str, str]]:
    """The order of the two runs of each pair: parent first in even pairs."""
    return [TREES if i % 2 == 0 else TREES[::-1] for i in range(pairs)]


def iqr(values: list[float]) -> float:
    """Third quartile minus first (``statistics.quantiles``' default
    method); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs: list[dict[str, dict]], spec: list[dict]) -> list[dict]:
    """One row per end-to-end metric of ``spec`` (``BENCHMARK.json``'s
    ``end_to_end``) over ``pairs``, each ``{"parent": line, "change":
    line}`` of ``run.py`` JSON lines: both medians, the relative change, the
    parent's IQR, and the pairs this tree won (its value strictly better)."""
    rows = []
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {tree: [p[tree]["metrics"][name]["value"] for p in pairs] for tree in TREES}
        parent, change = (statistics.median(values[tree]) for tree in TREES)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        rows.append({"name": name, "unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], "parent": parent, "change": change,
                     "relative": (change - parent) / parent if parent else 0.0,
                     "parent_iqr": iqr(values["parent"]), "wins": wins,
                     "pairs": len(pairs)})
    return rows


def next_free(root: Path) -> Path:
    """``BENCH_<n>.json`` with the smallest n >= 1 that no file has."""
    taken = {int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    return root / f"BENCH_{min(set(range(1, len(taken) + 2)) - taken)}.json"


def exact_counters(stdout: str) -> dict[str, float]:
    """The ``run.EXACT`` figures that ``run.py`` prints, one per line."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in run.EXACT:
            found[parts[0]] = float(parts[1])
    return found


def run_once(tree: Path, command: list[str]) -> dict:
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"error: {' '.join(command)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"json": json.loads(proc.stdout.strip().splitlines()[-1]),
            "exact": exact_counters(proc.stdout)}


def git_state(tree: Path) -> dict:
    """The tree's HEAD SHA and whether tracked files differ from it; None
    for each when the tree is not a git checkout."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": sha, "dirty": None if status is None else bool(status)}


def print_summary(workload: str, rows: list[dict], runs: list[dict]) -> None:
    print(f"{workload}: {rows[0]['pairs']} pairs")
    print(f"  {'metric':<12} {'parent':>12} {'change':>12} {'rel':>8} "
          f"{'parent IQR':>11} {'wins':>6}  better")
    for r in rows:
        print(f"  {r['name']:<12} {r['parent']:>12.6g} {r['change']:>12.6g} "
              f"{r['relative']:>+8.1%} {r['parent_iqr']:>11.4g} "
              f"{r['wins']:>3}/{r['pairs']:<2}  {r['better']}")
    counters = [run_["exact"] | {k: run_["json"]["metrics"][k]["value"]
                                 for k in ("lm_calls", "lm_chars")} for run_ in runs]
    agree = all(c == counters[0] for c in counters)
    print(f"  exact counters agree: {'yes' if agree else 'NO'} "
          f"({', '.join(f'{k}={v:g}' for k, v in sorted(counters[0].items()))})")
    for i, run_ in enumerate(runs):
        if not run_["json"]["correct"]:
            print(f"  run {i} ({run_['tree']}, pair {run_['pair']}) not correct: "
                  f"{run_['json']['failed']} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--record", nargs="?", const="", default=None)
    args = parser.parse_args(argv)
    workloads = args.workload.split(",")
    unknown = set(workloads) - set(run.WORKLOADS)
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs < 1")
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    states = {tree: git_state(trees[tree]) for tree in TREES}  # as measured
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = None
    if args.record is not None:
        path = Path(args.record) if args.record else next_free(ROOT)
        record = {"trees": states, "python": platform.python_version(),
                  "cpus": os.cpu_count(), "workloads": {}}
        if path.exists():
            record = json.loads(path.read_text())
            if record["trees"] != states:
                raise SystemExit(f"error: {path} records other trees: {record['trees']}")

    measured = {}
    for workload in workloads:
        command = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds)]
        pairs, runs = [], []
        for i, order in enumerate(run_order(args.pairs)):
            pair = {}
            for tree in order:
                pair[tree] = run_once(trees[tree], command)
                runs.append({"tree": tree, "pair": i, **pair[tree]})
            pairs.append({tree: pair[tree]["json"] for tree in TREES})
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{tree} chars_per_s {pair[tree]['json']['metrics']['chars_per_s']['value']:.6g}"
                for tree in order), flush=True)
        rows = summarize(pairs, spec)
        print_summary(workload, rows, runs)
        measured[workload] = {"command": ["python3", *command[1:]], "pairs": args.pairs,
                              "summary": rows, "runs": runs}

    if record is not None:
        record["workloads"].update(measured)
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"recorded {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
