"""Host fingerprint, run-owned state, leftover-process checks and statistics."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import signal
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent

#: everything a run writes lives under here (listed in .gitignore).
OUTPUT_DIR = ROOT / ".perfbench"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_times() -> Optional[List[int]]:
    """The aggregate ``cpu`` row of /proc/stat (user .. steal), or None."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:9]] if fields[:1] == ["cpu"] else None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> float:
    """Share of all CPU time the hypervisor stole between two samples."""
    if before is None or after is None:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def _loadavg() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


class HostProbe:
    """CPU model, core count, Python version, load and steal around a run.

    Absolute timings from two hosts must never be compared silently; the
    fingerprint travels with every result line and trace file.
    """

    def __init__(self) -> None:
        self.before = cpu_times()
        self.load_before = _loadavg()

    def snapshot(self) -> Dict[str, object]:
        return {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "load_before": self.load_before,
            "load_after": _loadavg(),
            "steal_share": round(steal_share(self.before, cpu_times()), 4),
        }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StateRoot:
    """One directory holding every file a run creates; removed on exit."""

    def __init__(self) -> None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="state-", dir=OUTPUT_DIR))

    def sub(self, name: str) -> Path:
        return self.path / name

    def remove(self, name: Optional[str] = None) -> None:
        shutil.rmtree(self.path if name is None else self.path / name, ignore_errors=True)


def child_pids() -> List[int]:
    """PIDs of live (non-zombie) processes whose parent is this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and fields[0] != "Z" and int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_children(grace: float = 5.0) -> int:
    """Wait for child processes to exit, then kill any left; returns that count."""
    deadline = time.monotonic() + grace
    while child_pids() and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = child_pids()
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for pid in survivors:
        try:
            os.waitpid(pid, 0)
        except OSError:
            pass
    return len(survivors)


# -- statistics -----------------------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the convention the service stats use)."""
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]
