"""The verdict of ``identity_corpus.summary`` on handmade result rows,
``[label, command, exit code, stdout, stderr]``."""

import pytest

from identity_corpus import summary

RAISED = "raised ZeroDivisionError"


def row(code, stdout="out\n", stderr=""):
    return ["readme [text]", "analyze free2 --format text", code, stdout,
            stderr]


@pytest.mark.parametrize("old, new, status, marks", [
    (row(0), row(0), 0, []),
    (row(1), row(2, stderr="refused\n"), 1, ["DIFFERS (exit code, stderr)"]),
    (row(0), row(0, stdout="other\n"), 1, ["DIFFERS (stdout)"]),
    # a mended crash: its exit code and output differ too
    (row(RAISED, "", "Traceback\n"), row(2, "", "invlag: error: x\n"), 0,
     ["MENDED, raises on OLD only (old raised ZeroDivisionError, new 2)"]),
    (row(RAISED, "", "Traceback\n"), row(0), 0, ["MENDED"]),
    (row(2, "", "invlag: error: x\n"), row(RAISED, "", "Traceback\n"), 1,
     ["DIFFERS (exit code, stderr)", "FAULT, raises on NEW only"]),
    (row(RAISED, "", "Traceback\n"), row(RAISED, "", "Traceback\n"), 1,
     ["FAULT, raises on both"]),
    (row(RAISED), row(7), 1, ["DIFFERS (exit code)",
                              "FAULT, raises on both"]),
])
def test_summary_lets_only_a_mended_crash_pass(old, new, status, marks):
    lines, code = summary([old], [new])
    assert code == status
    assert [line for line in lines[:-1]
            if not any(line.startswith(mark) for mark in marks)] == []
    assert len(lines) == len(marks) + 1


def test_summary_counts_each_kind_and_a_mended_call_does_not_hide_others():
    old = [row(RAISED), row(0), row(RAISED)]
    new = [row(2), row(0, stdout="other\n"), row(RAISED)]
    lines, code = summary(old, new)
    assert code == 1
    assert lines[-1] == ("3 calls, 1 differ, 1 raise or exit outside 0-4 "
                         "on NEW, 1 mended")
