#!/usr/bin/env python
"""Same-host A/B comparison of the benchmark: a git revision against this tree.

Usage (from the repository root)::

    python scripts/ab.py REV [--workload W ...] [--pairs N] [--seconds S]

A is ``REV``, exported with ``git archive`` into a temporary directory
(local git only; the directory is removed on exit).  B is the working
tree this script lives in, copied into the same directory when the run
starts: tracked files as they stand on disk, uncommitted edits
included, plus untracked files that git does not ignore.  Both sides
are then the same shape of tree (no ``.git``, no caches, no ignored
build output), and edits made while the pairs run do not reach B.

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

Each row also gives the median of A's runs with their interquartile
range, and the median of B's runs: a gain is claimed only when B wins
at least nine pairs in ten and the two medians differ by more than A's
interquartile range.

The number of pairs is fixed before a run and never extended until an
interval closes: adding pairs after an ``unresolved`` verdict biases the
verdict toward ``within noise``, so report that verdict as it stands.

A failed run (exit status, ``correct: false`` or ``failed > 0``) is
reported and its pair is dropped.
"""

from __future__ import annotations

import argparse
import json
import os
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


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)`` of ``values``."""
    if len(values) < 2:
        return (values[0],) * 3
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


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


def _snapshot(into: Path, source: Path = ROOT) -> Path:
    """The working tree of ``source`` as it stands on disk, under ``into``.

    Tracked files (deleted ones skipped) plus untracked files that git
    does not ignore, the set ``git ls-files --cached --others
    --exclude-standard`` lists.
    """
    tree = into / "b"
    tree.mkdir()
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=source, capture_output=True, check=True,
    ).stdout
    for name in filter(None, listing.split(b"\0")):
        name = os.fsdecode(name)
        path = source / name
        if not os.path.lexists(path):
            continue
        target = tree / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(path, target, follow_symlinks=False)
    return tree


def compare(
    a_tree: Path,
    b_tree: Path,
    workload: str,
    metrics: List[dict],
    pairs: int,
    seconds: float,
) -> List[tuple]:
    """ABBA pairs of one workload: a row per metric (see :func:`bootstrap_median`).

    A row is ``(name, pairs, median B/A, low, high, B wins, verdict,
    quartiles of A's runs, median of B's runs)``.
    """
    ratios: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
    sides: Dict[str, Dict[str, List[float]]] = {
        "A": {m["name"]: [] for m in metrics},
        "B": {m["name"]: [] for m in metrics},
    }
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
                sides["A"][name].append(a)
                sides["B"][name].append(b)
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not ratios[name]:
            continue
        median, low, high = bootstrap_median(ratios[name], seed=SEED)
        rows.append(
            (name, len(ratios[name]), median, low, high,
             wins(ratios[name], metric["better"]),
             verdict(low, high, metric["bound"], metric["better"]),
             quartiles(sides["A"][name]), statistics.median(sides["B"][name]))
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
        b_tree = _snapshot(workdir)
        print(f"A = {args.rev} ({a_tree}), B = {ROOT} as copied to {b_tree}; "
              f"{args.pairs} ABBA pairs, seed {SEED}, {args.seconds:g} s per run")
        print(f"{'workload':<15} {'metric':<17} {'n':>3} {'B/A':>7} "
              f"{'95% CI':>17} {'B wins':>6}  verdict (bound); "
              f"A median [quartiles] -> B median")
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            rows = compare(a_tree, b_tree, workload, spec["end_to_end"],
                           args.pairs, args.seconds)
            bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
            for name, count, median, low, high, won, label, a_side, b_median in rows:
                print(f"{workload:<15} {name:<17} {count:>3} {median:>7.3f} "
                      f"[{low:>6.3f}, {high:>6.3f}] {won:>6}  {label} (±{bounds[name]:g}); "
                      f"{a_side[1]:.4g} [{a_side[0]:.4g}, {a_side[2]:.4g}] -> {b_median:.4g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
