"""Runs the invlag command line in process, shared by the test modules.

``run_cli`` calls ``invlag.cli.main`` with standard output and error
captured, the way ``python -m invlag.cli`` would print them, so a test
pays for one interpreter start-up in total rather than one per call. ``INVLAG_SEED`` is set (or unset) for the call and restored
afterwards; argparse's usage errors come back as their exit code.
"""

import contextlib
import io
import json
import os
from typing import NamedTuple

from invlag import cli


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*args, seed=None) -> CliResult:
    saved = os.environ.pop("INVLAG_SEED", None)
    if seed is not None:
        os.environ["INVLAG_SEED"] = str(seed)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop("INVLAG_SEED", None)
        if saved is not None:
            os.environ["INVLAG_SEED"] = saved
    return CliResult(code, out.getvalue(), err.getvalue())


def run_json(*args, seed=None):
    result = run_cli(*args, "--format", "json", seed=seed)
    return result, json.loads(result.stdout)
