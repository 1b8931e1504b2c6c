"""The verdict of ``bench_pairs.summary`` on each metric's bound, on
handmade lists of run values, and the refusal of a tree with bytecode."""

import re
import subprocess

import pytest

from bench_pairs import main, summary

OLD = [1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("new, lower_is_better, worse", [
    ([1.2] * 4, True, False),    # 20 % slower, inside a 25 % bound
    ([1.3] * 4, True, True),     # 30 % slower
    ([0.5] * 4, True, False),    # faster
    ([0.8] * 4, False, False),   # 20 % fewer operations per second
    ([0.7] * 4, False, True),    # 30 % fewer
    ([1.6] * 4, False, False),   # more
])
def test_summary_flags_a_median_worse_than_its_bound(new, lower_is_better,
                                                     worse):
    line, flagged = summary("metric", OLD, new, lower_is_better, 0.25)
    assert flagged is worse
    assert line.endswith(("WORSE than" if worse else "within")
                         + " bound 25 %")


def test_summary_reads_the_medians_not_single_runs():
    """One slow run among four leaves the median inside the bound."""
    line, flagged = summary("latency_p50_s", [1.0, 1.1, 0.9, 1.0],
                            [1.0, 5.0, 1.1, 0.95], True, 0.25)
    assert not flagged
    assert "won 1/4" in line


def test_a_tree_with_bytecode_is_refused_before_any_run(tmp_path,
                                                        monkeypatch):
    """A ``__pycache__`` under either tree's ``src/`` stops the script,
    naming the directory, before it starts a run."""
    old, new = tmp_path / "old", tmp_path / "new"
    cache = old / "src" / "invlag" / "__pycache__"
    cache.mkdir(parents=True)
    (new / "src" / "invlag").mkdir(parents=True)

    def refused(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(subprocess, "run", refused)
    for trees in ((old, new), (new, old)):
        with pytest.raises(SystemExit, match=re.escape(str(cache))):
            main([str(trees[0]), str(trees[1]), "--workload", "certify",
                  "--seeds", "1-2"])
