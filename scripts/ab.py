#!/usr/bin/env python
"""Same-host A/B comparison of the benchmark: a git revision against this tree.

Usage (from the repository root)::

    python scripts/ab.py REV [--workload W ...] [--pairs N] [--seconds S]

A is ``REV``, exported with ``git archive`` into a temporary directory
(local git only; the directory is removed on exit).  B is the working
tree this script lives in, uncommitted edits included.

For every workload, ``perfbench/run.py`` runs ``--pairs`` times in each
tree, in ABBA order (pair 0 runs A then B, pair 1 B then A, ...) with
the same seed (:data:`SEED`), so drift in host speed hits both sides
alike.  For each end-to-end metric of ``BENCHMARK.json`` the script
prints the median of the per-pair B/A ratios with a seeded bootstrap 95%
interval, in how many pairs B beat A, and a verdict against that
metric's ``bound``:

``better``
    the whole interval lies beyond the bound on the good side (below
    ``1 - bound`` for a lower-is-better metric);
``worse``
    the whole interval lies beyond the bound on the bad side (above
    ``1 + bound`` for a lower-is-better metric);
``unresolved``
    neither, and the interval is wider than the bound or reaches past it
    on the bad side: these pairs cannot tell "unchanged" from "worse by
    more than the bound";
``within noise``
    anything else: the interval is narrower than the bound and stays
    inside it on the bad side.

The number of pairs is fixed before a run and never extended until an
interval closes: adding pairs after an ``unresolved`` verdict biases the
verdict toward ``within noise``, so report that verdict as it stands.

A failed run (exit status, ``correct: false`` or ``failed > 0``) is
reported and its pair is dropped.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: the workload seed of every run on both sides, and the bootstrap seed.
SEED = 0


# -- statistics ------------------------------------------------------------------


def bootstrap_median(
    ratios: Sequence[float],
    seed: int = 0,
    resamples: int = 2000,
    level: float = 0.95,
) -> Tuple[float, float, float]:
    """``(median, low, high)``: the median ratio and its bootstrap interval.

    The interval is the percentile interval of the medians of
    ``resamples`` resamples (with replacement) of ``ratios``, drawn from
    a ``random.Random(seed)``, so the same ratios always give the same
    interval.
    """
    if not ratios:
        raise ValueError("no ratios to summarize")
    rng = random.Random(seed)
    count = len(ratios)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=count)) for _ in range(resamples)
    )
    tail = (1.0 - level) / 2.0
    low = medians[int(tail * (resamples - 1))]
    high = medians[int(round((1.0 - tail) * (resamples - 1)))]
    return statistics.median(ratios), low, high


def wins(ratios: Sequence[float], better: str) -> int:
    """Pairs in which B beat A (a tie counts for neither side)."""
    if better == "lower":
        return sum(ratio < 1.0 for ratio in ratios)
    return sum(ratio > 1.0 for ratio in ratios)


def verdict(low: float, high: float, bound: float, better: str) -> str:
    """The verdict (see module doc) of a B/A interval against ``bound``."""
    if better == "lower":
        if high < 1.0 - bound:
            return "better"
        if low > 1.0 + bound:
            return "worse"
        past_bound = high > 1.0 + bound
    else:
        if low > 1.0 + bound:
            return "better"
        if high < 1.0 - bound:
            return "worse"
        past_bound = low < 1.0 - bound
    if past_bound or high - low > bound:
        return "unresolved"
    return "within noise"


# -- running the benchmark ---------------------------------------------------------


def _run(tree: Path, workload: str, seconds: float) -> Optional[dict]:
    """One ``perfbench/run.py`` run in ``tree``: its metric values, or None."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    if proc.returncode != 0 or not report or not report.get("correct") or report.get("failed"):
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        print(f"  run failed in {tree.name}: exit {proc.returncode}: {tail}", file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def _export(rev: str, into: Path) -> Path:
    """``git archive`` of ``rev`` unpacked under ``into``."""
    tree = into / "a"
    tree.mkdir()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree


def compare(
    a_tree: Path,
    b_tree: Path,
    workload: str,
    metrics: List[dict],
    pairs: int,
    seconds: float,
) -> List[Tuple[str, int, float, float, float, int, str]]:
    """ABBA pairs of one workload: a row per metric (see :func:`bootstrap_median`)."""
    ratios: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
    for index in range(pairs):
        order = [("A", a_tree), ("B", b_tree)]
        if index % 2:
            order.reverse()
        values = {label: _run(tree, workload, seconds) for label, tree in order}
        print(f"  {workload} pair {index + 1}/{pairs} done", file=sys.stderr)
        if values["A"] is None or values["B"] is None:
            continue
        for name in ratios:
            a, b = values["A"].get(name), values["B"].get(name)
            if a and b is not None:
                ratios[name].append(b / a)
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not ratios[name]:
            continue
        median, low, high = bootstrap_median(ratios[name], seed=SEED)
        rows.append(
            (name, len(ratios[name]), median, low, high,
             wins(ratios[name], metric["better"]),
             verdict(low, high, metric["bound"], metric["better"]))
        )
    return rows


def build_parser(spec: dict) -> argparse.ArgumentParser:
    """The command line over the workloads of ``spec`` (``BENCHMARK.json``)."""
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the A side: any git revision")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to compare (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seconds", type=float, default=float(spec.get("run_seconds", 15)))
    return parser


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = build_parser(spec).parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    try:
        a_tree = _export(args.rev, workdir)
        print(f"A = {args.rev} ({a_tree}), B = {ROOT}; {args.pairs} ABBA pairs, "
              f"seed {SEED}, {args.seconds:g} s per run")
        print(f"{'workload':<15} {'metric':<17} {'n':>3} {'B/A':>7} "
              f"{'95% CI':>17} {'B wins':>6}  verdict (bound)")
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            rows = compare(a_tree, ROOT, workload, spec["end_to_end"],
                           args.pairs, args.seconds)
            bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
            for name, count, median, low, high, won, label in rows:
                print(f"{workload:<15} {name:<17} {count:>3} {median:>7.3f} "
                      f"[{low:>6.3f}, {high:>6.3f}] {won:>6}  {label} (±{bounds[name]:g})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
