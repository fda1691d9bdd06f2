"""Alternating parent/change pairs of the end-to-end benchmark.

Run from the repository root:

    python3 tests/bench_pairs.py --name kernels --parent HEAD --first-seed 301 --pairs 10 \
        --seconds 30 --what "one line on the change being measured"

The parent revision's tree is extracted with `git archive` into a temporary
directory, and the change is a copy of the working tree's files that git
tracks or would add, in another: neither side has bytecode caches left by
earlier runs, which would otherwise speed one side's import (where
`PYTHONDONTWRITEBYTECODE` is set, the other side compiles on every run). For
each workload of
BENCHMARK.json (or those named by `--workloads`), pair i runs
`perfbench/run.py --trace 0` with seed `first-seed + i` on both sides, the
parent first when i is even and the change first when i is odd, so drift in
machine speed falls on both sides alike.

BENCH_<name>.json, at the repository root, holds every run's last output
line with workload, seed, side, pair and commit added, and, per workload and
end-to-end metric, each side's median and quartiles, the number of pairs
in which the change was strictly better, and `claim_rule_met`: whether the
change was better in at least 9 of 10 pairs and its median gain exceeds
the parent's interquartile range. It is rewritten after every pair,
so an interrupted session leaves the pairs it finished. Once the file is
written, the script exits non-zero and names every run whose last line
says `"correct": false`. Pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"


def git(*args: str, env: dict[str, str] | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True,
                          env=env).stdout.strip()


def extract(revision: str, directory: Path) -> None:
    """The revision's tree, as `git archive` writes it, under `directory`."""
    blob = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as archive:
        archive.extractall(directory, filter="data")


def copy_working_tree(directory: Path) -> None:
    """The working tree's files that git tracks or would add, under `directory`."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():
            (directory / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, directory / name)


def working_src_tree() -> str:
    """The git tree id of the working tree's `src/`: what `git rev-parse
    <commit>:src` gives once that tree is committed unchanged."""
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(scratch) / "index"))
        git("read-tree", "--empty", env=env)
        git("add", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """The last output line of one `perfbench/run.py --trace 0` in a checkout."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def claim_rule_met(wins: int, pairs: int, median_gain: float, parent_iqr: float) -> bool:
    """The rule for claiming a gain: the change is strictly better in at
    least nine tenths of the pairs, and its median is better than the
    parent's by more than the distance between the parent's quartiles."""
    return 10 * wins >= 9 * pairs and median_gain > parent_iqr


def summarize(runs: list[dict[str, Any]]) -> dict[str, dict[str, dict[str, Any]]]:
    """Per workload and metric: each side's median and quartiles, the pairs
    in which the change was strictly better, and whether the claim rule
    (`claim_rule_met`) holds, in the direction BENCHMARK.json calls better."""
    summary: dict[str, dict[str, dict[str, Any]]] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict[str, Any]]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
        complete = [pair for pair in pairs.values() if len(pair) == 2]
        if not complete:
            continue
        metrics = summary[workload] = {}
        for spec in SPEC["end_to_end"]:
            name, better = spec["name"], spec["better"]
            if not all(name in pair[side] for pair in complete for side in pair):
                continue
            row: dict[str, Any] = {}
            medians, quartiles = {}, {}
            for side in ("parent", "change"):
                values = [pair[side][name]["value"] for pair in complete]
                medians[side] = statistics.median(values)
                quartiles[side] = (statistics.quantiles(values, n=4) if len(values) > 1
                                   else [values[0]] * 3)
                row[f"{side}_median"] = round(medians[side], 6)
                row[f"{side}_quartiles"] = [round(quartiles[side][0], 6),
                                            round(quartiles[side][2], 6)]
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (pair["change"][name]["value"] - pair["parent"][name]["value"]) < 0
                       for pair in complete)
            row[f"change_{better}_in_pairs"] = wins
            row["pairs"] = len(complete)
            row["claim_rule_met"] = claim_rule_met(
                wins, len(complete), sign * (medians["parent"] - medians["change"]),
                quartiles["parent"][2] - quartiles["parent"][0])
            metrics[name] = row
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+",
                        default=[workload["name"] for workload in SPEC["workloads"]])
    parser.add_argument("--what", default="", help="what the change is, for the file's header")
    args = parser.parse_args(argv)

    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    out = ROOT / f"BENCH_{args.name}.json"
    doc: dict[str, Any] = {
        "what": ("Alternating parent/change pairs of the end-to-end benchmark"
                 + (f" for {args.what}" if args.what else "")
                 + ". Each run is the last output line of `perfbench/run.py`, with workload, "
                 "seed, side, pair index and commit added."),
        "command": COMMAND.format(seconds=args.seconds),
        "machine": (f"{len(os.sched_getaffinity(0))} CPUs available, {platform.machine()}, "
                    f"{platform.system()}, Python {platform.python_version()}; perfbench "
                    "rescales CPU time to its reference speed by its speed probe"),
        "order": (f"pair i runs the parent first when i is even and the change first when i is "
                  f"odd; pair i uses seed {seeds[0]} + i on both sides"),
        "commits": {
            "parent": parent,
            "change": ("the working tree on top of the parent; its src/ tree is "
                       f"{working_src_tree()}, as `git rev-parse <commit>:src` names it"),
        },
        "summary": {},
        "runs": [],
    }
    with (tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir,
          tempfile.TemporaryDirectory(prefix="bench-change-") as change_dir):
        extract(parent, Path(parent_dir))
        copy_working_tree(Path(change_dir))
        sides = {"parent": (Path(parent_dir), parent),
                 "change": (Path(change_dir), "working tree")}
        for workload in args.workloads:
            for pair, seed in enumerate(seeds):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    directory, commit = sides[side]
                    result = run_benchmark(directory, workload, seed, args.seconds)
                    result.update(workload=workload, seed=seed, side=side, pair=pair,
                                  commit=commit)
                    doc["runs"].append(result)
                    print(f"{workload} pair {pair} seed {seed} {side}: run_s "
                          f"{result['metrics'].get('run_s', {}).get('value')} "
                          f"correct {result['correct']}", file=sys.stderr, flush=True)
                doc["summary"] = summarize(doc["runs"])
                out.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n",
                               encoding="utf-8")
    for workload, metrics in doc["summary"].items():
        for name in ("run_s", "cpu_s", "eval_s", "peak_rss_mb"):
            row = metrics.get(name)
            if row:
                print(f"{workload:<13} {name:<12} parent {row['parent_median']:<10g} "
                      f"change {row['change_median']:<10g} change better in "
                      f"{row['change_lower_in_pairs']}/{row['pairs']} pairs, claim rule "
                      f"{'met' if row['claim_rule_met'] else 'not met'}")
    incorrect = [f"{run['workload']} seed {run['seed']} {run['side']}"
                 for run in doc["runs"] if run["correct"] is not True]
    if incorrect:
        print(f"not correct: {', '.join(incorrect)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
