"""The statistics of ``scripts/ab.py``: the bootstrap interval, the pair
wins and the verdict, plus the copy of the working tree that B runs in.

Only the helpers are tested here; running the benchmark pairs takes
minutes and stays a manual step.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", REPO_ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_ab()


class TestBootstrapMedian:
    def test_median_and_interval_bracket_it(self):
        ratios = [0.9, 1.0, 1.1, 0.95, 1.05, 1.02, 0.98]
        median, low, high = ab.bootstrap_median(ratios, seed=3)
        assert median == 1.0
        assert min(ratios) <= low <= median <= high <= max(ratios)

    def test_same_seed_same_interval(self):
        ratios = [0.5, 0.7, 0.6, 0.8, 0.65, 0.55]
        assert ab.bootstrap_median(ratios, seed=1) == ab.bootstrap_median(ratios, seed=1)

    def test_constant_ratios_collapse_the_interval(self):
        assert ab.bootstrap_median([0.2] * 10) == (0.2, 0.2, 0.2)

    def test_more_spread_widens_the_interval(self):
        tight = ab.bootstrap_median([1.0, 1.01, 0.99, 1.0, 1.02, 0.98], seed=0)
        loose = ab.bootstrap_median([1.0, 1.3, 0.7, 1.0, 1.5, 0.6], seed=0)
        assert loose[2] - loose[1] > tight[2] - tight[1]

    def test_no_ratios_is_an_error(self):
        with pytest.raises(ValueError):
            ab.bootstrap_median([])


class TestVerdict:
    @pytest.mark.parametrize(
        "low, high, expected",
        [
            (0.10, 0.20, "better"),  # wholly below 1 - bound
            (0.70, 0.80, "within noise"),  # straddles 1 - bound
            (0.95, 1.05, "within noise"),  # an A/A run
            (0.90, 1.20, "unresolved"),  # inside the bound, but wider than it
            (0.95, 1.30, "unresolved"),  # reaches past 1 + bound
            (1.20, 1.30, "unresolved"),  # may be worse by more than the bound
            (0.10, 0.60, "better"),  # wide, but wholly below 1 - bound
            (1.30, 1.40, "worse"),  # wholly above 1 + bound
        ],
    )
    def test_lower_is_better(self, low, high, expected):
        assert ab.verdict(low, high, bound=0.25, better="lower") == expected

    def test_higher_is_better_mirrors_it(self):
        assert ab.verdict(1.3, 1.4, bound=0.25, better="higher") == "better"
        assert ab.verdict(0.1, 0.2, bound=0.25, better="higher") == "worse"
        assert ab.verdict(0.9, 1.1, bound=0.25, better="higher") == "within noise"
        assert ab.verdict(0.7, 1.05, bound=0.25, better="higher") == "unresolved"


def test_wins_count_pairs_b_beat_a_and_not_ties():
    ratios = [0.5, 0.9, 1.0, 1.2]
    assert ab.wins(ratios, "lower") == 2
    assert ab.wins(ratios, "higher") == 1


def test_quartiles_give_the_spread_of_one_side():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert ab.quartiles([0.7]) == (0.7, 0.7, 0.7)


def test_thirty_pairs_by_default():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert ab.build_parser(spec).parse_args(["HEAD"]).pairs == 30


def test_b_side_is_the_working_tree_as_on_disk(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / ".gitignore").write_text("build/\n")
    (repo / "src" / "kept.py").write_text("committed\n")
    (repo / "src" / "gone.py").write_text("committed\n")
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "seed"], check=True)
    (repo / "src" / "kept.py").write_text("edited\n")  # tracked, modified
    (repo / "src" / "gone.py").unlink()  # tracked, deleted on disk
    (repo / "src" / "new.py").write_text("untracked\n")  # untracked, not ignored
    (repo / "build").mkdir()
    (repo / "build" / "out.bin").write_text("ignored\n")

    out = tmp_path / "out"
    out.mkdir()
    tree = ab._snapshot(out, source=repo)
    files = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/kept.py", "src/new.py"]
    assert (tree / "src" / "kept.py").read_text() == "edited\n"
