"""Compare what two source trees of invlag print on a fixed corpus of calls.

Usage::

    python tests/identity_corpus.py OLD_TREE NEW_TREE [--workdir DIR]

Each tree is a checkout of this repository, for example a ``git
worktree`` of the parent commit and the working tree. The corpus is:

* every row of the README command table, and ``solve chain4_gyro``
  under ``b=1/2``, ``b=-1/3`` and ``b=3/4``;
* the op lists of seeds 301-303 of the three benchmark workloads, as
  ``perfbench/workloads.calls(workload, seed, workdir, 22)`` builds them
  (this script only imports that module);
* ``analyze`` of copies of the ``planar_drag`` fixture whose first
  ``f`` entry is each malformed text of ``_MALFORMED`` in
  ``test_exprcore.py`` (read from its source, not imported), so the
  parser's exit code and error message are compared too;
* ``analyze`` of such copies whose first ``f`` entry is a well-formed
  non-canonical text: each text of the ``cases`` of
  ``test_a_term_leaves_the_integer_path_with_the_value_read_so_far``
  (read the same way) and ``exprgen.random_text`` of depth 4 in the
  fixture's context for seeds 1-12, so texts the parser reads with the
  ``Expr`` operators are compared byte for byte too;
* ``analyze`` of such copies whose first ``f`` entry is each text of
  ``POWERS``: powers of multi-term sums with rational coefficients and
  a parameter, above the exponents ``random_text`` draws (-2..3), so
  the multiply-and-square loop of ``Poly.__pow__`` is compared too;
* ``analyze`` of a copy of ``coupled3`` whose every ``f`` entry is
  divided by ``(q2^2 + 3)``, and of a copy of ``chain4_gyro`` with and
  without ``--instantiate b=-1/3``: rational curvature entries with
  negative leading coefficients, and parameters, so the texts the
  command line negates for an antisymmetric partner are compared too;
* ``check --suite thm3`` and ``analyze`` (the largest printed output)
  of a copy of ``tests/problems/dense4.json``, the dense n = 4 system
  with a position-dependent kinetic energy, and ``solve`` of a copy of
  ``tests/problems/search_n4_thm3.json``, whose ring has 50 unknowns
  among 59 generators, and of a copy of
  ``tests/problems/fixed_drag_n4.json``, a ``dissipative`` search with
  ``D`` fixed whose space of dimension 2 has a non-integer particular
  solution, and of a copy of ``tests/problems/lin5.json``, the lin
  n = 5 search of ``tests/shapes.py``, whose elimination reads 27,947
  rows in 90 unknowns;
* ``solve`` of each ``EXPLICIT`` ansatz: ``thm3`` with
  velocity-dependent, rational and parametric basis functions, and one
  for each other searchable suite (two-form unknowns with a rational
  basis function, a velocity-dependent ``thm4`` basis, a parametric
  ``D``), those on a fixture with parameters also under
  ``INSTANTIATE_EXPLICIT``;
* ``check`` of each ``CHECKED`` problem, so the checkers read fixed
  data beyond the README's: ``gyroscopic`` with a rational, parametric
  two-form and ``dissipative`` with a rational ``D``, on copies of
  ``planar_drag``, each also under ``INSTANTIATE_EXPLICIT``, and
  ``gyroscopic`` with a rational two-form on a copy of ``coupled3``,
  where (n = 3) its exterior derivative enters the cells;
* ``reconstruct`` of each ``RECONSTRUCTED`` problem, a refusal under
  each of its suites (failing existence conditions, a singular
  multiplier on both routes, a multiplier rational in the velocities or
  with a pole at the origin, a potential rational in the positions, a
  non-symmetric multiplier), and of a copy of
  ``tests/problems/dense4.json`` whose multiplier has ``q2*v1`` added to
  its entry ``(2, 2)``, so every refusal of either route is compared;
* each refusal of an unknown key that the command line had before it
  refused stray ansatz keys (a top-level field, an option, an ansatz
  key, a preset key), on copies of ``planar_drag``;
* the refusal of each command on a problem in the other mode:
  ``analyze``, ``check``, ``solve``, ``reconstruct`` and ``verify`` of
  ``planar_drag_implicit``, and ``check --suite implicit`` of
  ``planar_drag``;
* ``check --suite implicit`` of ``IMPLICIT``: one n = 3 implicit system
  that passes (the Euler-Lagrange equations of a position-dependent
  kinetic energy with a Rayleigh dissipation) and one that fails;
* every call of ``cli_cases.REFUSALS`` (each refusal of a problem file,
  a flag or ``INVLAG_SEED``) and of ``cli_cases.RARE_VERDICTS`` (exit
  codes 1, 3 and 4 that the README table does not reach).

Every call runs in text and in JSON, in process (``invlag.cli.main``
with ``INVLAG_SEED`` unset unless the call sets it), once per tree, in a
fresh interpreter that imports the tree's ``src``. Both trees write
their problem files to the same work directory, so the paths they print
agree; each tree's own root is written ``<tree>`` in the output, since
the bundled fixtures live under it. A call that raises is recorded as
such, with the traceback as its stderr, and the corpus goes on.
The script lists every call whose stdout, stderr or exit code differs,
and every call that raises or exits outside 0-4 on either tree. A call
that does so on OLD only and exits within 0-4 on NEW is listed as
MENDED and does not fail the comparison: a change that mends a crash
also changes that call's output. Every other difference, and every
call that raises on NEW ("raises on NEW only" or "raises on both"),
makes the script exit 1; else it exits 0. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import traceback

REPO = pathlib.Path(__file__).resolve().parents[1]
SEEDS = (301, 302, 303)
TEXT_SEEDS = range(1, 13)
WORKLOADS = ("certify", "search", "rational_geometry")
RUN_SECONDS = 22
INSTANTIATIONS = ("b=1/2", "b=-1/3", "b=3/4")
POWERS = ("(1/2*q1 - 3*v2 + 2/3)^7", "(q1*v1 - 1/3*q2 + a)^9",
          "(v1 + 2*b)^(-3)", "(q1 - 2/5*v1)^12*(omega + 1/7)",
          "(2/3*q1^2 - q2*v1 + omega)^6/(q1 - 1)^2",
          "(a*q1 + b*v2 - 1)^5*(q2 + v1)^-2")
# ansatze that the generated problems never use, as (fixture, fields
# set in its problem, ansatz section): thm3 with velocity-dependent,
# rational and parametric basis functions, and one for each other
# searchable suite
EXPLICIT = {
    "velocity": ("coupled3", {}, {"suite": "thm3", "g": {"entries": {
        "1,1": ["1", "v1", "q2*v3"], "2,2": ["1", "v2"], "1,3": ["v2"],
        "3,3": ["q2", "q2*v1", "1"]}}}),
    "rational": ("coupled3", {}, {"suite": "thm3", "g": {"entries": {
        "1,1": ["1", "1/q2"], "2,2": ["1", "q1/q2"], "2,3": ["1/q2"],
        "3,3": ["q2", "1/q2", "q1"]}}}),
    "parametric": ("chain4", {}, {"suite": "thm3", "g": {"entries": {
        "1,1": ["1", "q1 + b"], "1,2": ["v1 - b*q2"],
        "2,2": ["1", "1 + b*q2"], "3,3": ["1"],
        "4,4": ["1", "q2 - b*q1"]}}}),
    "classical": ("coupled3", {}, {"suite": "classical", "g": {
        "preset": "polynomial", "degree": 1}}),
    "prop2a": ("planar_drag", {}, {"suite": "prop2a", "g": {"entries": {
        "1,1": ["1", "q2"], "1,2": ["1", "v1"], "2,2": ["1"]}}}),
    "gyroscopic": ("planar_drag", {}, {
        "suite": "gyroscopic", "g": {"preset": "constant"},
        "omega": {"entries": {"1,2": ["1", "q1/(q2^2 + 1)", "q1"]}}}),
    "thm4": ("planar_drag", {}, {"suite": "thm4", "g": {"entries": {
        "1,1": ["1", "v1"], "1,2": ["1", "v2"], "2,2": ["1", "q1*v2"]}}}),
    "dissipative": ("planar_drag", {
        "D": "-a*(q1*v1 + q2*v2) + b*(q1*v2 - q2*v1) + 1/2*omega*(v2^2 - "
             "v1^2)"}, {"suite": "dissipative", "g": {
                 "preset": "diagonal", "degree": 1}}),
}
INSTANTIATE_EXPLICIT = ("b=2/3", "b=0")
# checks of fixed data, as (fixture, fields set in its problem, suite)
CHECKED = {
    "gyroscopic": ("planar_drag", {"omega": [
        ["0", "b*q1/(q2^2 + 1)"], ["-b*q1/(q2^2 + 1)", "0"]]}, "gyroscopic"),
    "dissipative": ("planar_drag", {
        "D": "(q1*v1^2 - b*v2^2)/(q2^2 + 1) + omega*v1*v2/(q1 + 3)"},
        "dissipative"),
    "gyroscopic-n3": ("coupled3", {"omega": [
        ["0", "q3/(q1^2 + 1)", "q2"], ["-q3/(q1^2 + 1)", "0", "1/(q1 + 2)"],
        ["-q2", "-1/(q1 + 2)", "0"]]}, "gyroscopic"),
}
# refusals of ``reconstruct``, as (problem, suites): a multiplier that
# fails its existence conditions, singular ones, a multiplier rational in
# the velocities, one with a pole at the origin, a system whose
# potential is rational in the positions and a non-symmetric multiplier
_FREE = {"n": 2, "f": ["0", "0"]}
RECONSTRUCTED = {
    "failing": (dict(_FREE, g=[["1", "0"], ["0", "q1 + 1"]]),
                ("thm3", "dissipative")),
    "singular-00": (dict(_FREE, g=[["0", "0"], ["0", "0"]]),
                    ("thm3", "gyroscopic")),
    "singular-10": (dict(_FREE, g=[["1", "0"], ["0", "0"]]),
                    ("thm3", "gyroscopic")),
    "velocity-rational": (dict(_FREE, g=[["1/(1 + v1)", "0"], ["0", "1"]]),
                          ("thm3",)),
    # the forward system of 1/2*(v1^2 + v2^2)/q1 + v2/q1
    "origin-pole": ({"n": 2, "f": ["(1/2*v1^2 - 1/2*v2^2 - v2)/(q1)",
                                   "(v1*v2 + v1)/(q1)"],
                     "g": [["1/q1", "0"], ["0", "1/q1"]]}, ("thm3",)),
    # the forward system of 1/2*v1^2 + 1/2*v2^2 - 1/(1+q1^2)
    "rational-potential": ({"n": 2, "f": ["(2*q1)/(q1^4 + 2*q1^2 + 1)", "0"],
                            "g": [["1", "0"], ["0", "1"]]}, ("gyroscopic",)),
    "nonsymmetric": (dict(_FREE, g=[["1", "1"], ["0", "1"]]), ("thm3",)),
}
IMPLICIT = {
    "pass": ["d2q1 - q1*v3^2 + q2*q3 + q1*v1", "d2q2 + q1*q3 + v2",
             "(1 + q1^2)*d2q3 + 2*q1*v1*v3 + q1*q2 + q3*v3"],
    "fail": ["d2q1 + q2 + v1*v2", "d2q2 + 2*q1 - q3*v2",
             "d2q3 + q1*d2q2 + v3"],
}


def _readme_calls():
    rows = [line for line in (REPO / "README.md").read_text().splitlines()
            if line.startswith("| `invlag ")]
    calls = [("readme", row.split("`")[1].split()[1:]) for row in rows]
    calls += [("readme", ["solve", "chain4_gyro", "--instantiate", value])
              for value in INSTANTIATIONS]
    return calls


def _assigned(scope, name: str):
    """The value of the first assignment to ``name`` in ``scope``."""
    for node in scope.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name):
            return node.value
    raise LookupError(f"tests/test_exprcore.py assigns no {name}")


def _malformed_texts():
    """The texts of ``_MALFORMED`` in tests/test_exprcore.py, in order."""
    module = ast.parse((REPO / "tests" / "test_exprcore.py").read_text(
        encoding="utf-8"))
    return [ast.literal_eval(case.elts[1])
            for case in _assigned(module, "_MALFORMED").elts]


def _noncanonical_texts():
    """Well-formed texts that leave the integer triples: the ``cases``
    keys of the test of a product leaving them, in order, then
    ``random_text`` of the ``planar_drag`` context for each of
    ``TEXT_SEEDS``."""
    import random

    sys.path.insert(0, str(REPO / "tests"))
    from exprgen import random_text
    from invlag.exprcore import ExprContext

    module = ast.parse((REPO / "tests" / "test_exprcore.py").read_text(
        encoding="utf-8"))
    test = next(node for node in module.body
                if getattr(node, "name", None) == "test_a_term_leaves_the_"
                "integer_path_with_the_value_read_so_far")
    texts = [ast.literal_eval(key) for key in _assigned(test, "cases").keys]
    ctx = ExprContext(2, parameters=("a", "b", "omega"))
    return texts + [random_text(ctx, random.Random(seed), 4)[0]
                    for seed in TEXT_SEEDS]


def _first_entry_calls(workdir: str, label: str, texts):
    """``analyze`` of a copy of ``planar_drag`` per text, as its first
    ``f`` entry; writes the problem files."""
    fixture = json.loads((REPO / "src" / "invlag" / "fixtures" /
                          "planar_drag.json").read_text(encoding="utf-8"))
    directory = os.path.join(workdir, label)
    os.makedirs(directory, exist_ok=True)
    calls = []
    for index, text in enumerate(texts):
        path = os.path.join(directory, f"planar_drag-{index:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(fixture, f=[text, fixture["f"][1]]), handle)
        calls.append((label, ["analyze", path]))
    return calls


def _negated_calls(workdir: str):
    """``analyze`` of a copy of ``coupled3`` with every ``f`` entry over
    ``(q2^2 + 3)`` and of a copy of ``chain4_gyro``, that one also under
    ``--instantiate b=-1/3``; writes the problem files."""
    fixtures = REPO / "src" / "invlag" / "fixtures"
    coupled = json.loads((fixtures / "coupled3.json").read_text(
        encoding="utf-8"))
    coupled["f"] = [f"({entry})/(q2^2 + 3)" for entry in coupled["f"]]
    paths = [os.path.join(workdir, name) for name in (
        "negated-coupled3.json", "negated-chain4_gyro.json")]
    with open(paths[0], "w", encoding="utf-8") as handle:
        json.dump(coupled, handle)
    shutil.copyfile(fixtures / "chain4_gyro.json", paths[1])
    return [("negated", ["analyze", paths[0]]),
            ("negated", ["analyze", paths[1]]),
            ("negated", ["analyze", paths[1], "--instantiate", "b=-1/3"])]


def _wide_calls(workdir: str):
    """``check --suite thm3`` and ``analyze`` of the dense n = 4 problem,
    ``solve`` of the 50-unknown search problems and of lin n = 5,
    copied into the work directory so that both trees read the same
    files, ``solve`` of each ``EXPLICIT`` ansatz and ``check`` of each
    ``CHECKED`` problem, those over a fixture with parameters also under
    ``INSTANTIATE_EXPLICIT``."""
    paths = {}
    for name in ("dense4", "search_n4_thm3", "fixed_drag_n4", "lin5"):
        paths[name] = os.path.join(workdir, f"{name}.json")
        shutil.copyfile(REPO / "tests" / "problems" / f"{name}.json",
                        paths[name])
    calls = [("dense", ["check", paths["dense4"], "--suite", "thm3"]),
             ("dense", ["analyze", paths["dense4"]]),
             ("wide", ["solve", paths["search_n4_thm3"]]),
             ("wide", ["solve", paths["fixed_drag_n4"]]),
             ("wide", ["solve", paths["lin5"]])]
    cases = [("explicit", name, fixture, dict(fields, ansatz=dict(
        ansatz, bound=1)), ["solve"])
        for name, (fixture, fields, ansatz) in EXPLICIT.items()]
    cases += [("checked", name, fixture, fields, ["check", "--suite", suite])
              for name, (fixture, fields, suite) in CHECKED.items()]
    for label, name, fixture, fields, command in cases:
        problem = json.loads((REPO / "src" / "invlag" / "fixtures" /
                              f"{fixture}.json").read_text(encoding="utf-8"))
        problem.update(fields)
        path = os.path.join(workdir, f"{label}-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(problem, handle)
        argv = command[:1] + [path] + command[1:]
        calls.append((label, argv))
        if problem.get("parameters"):
            calls += [(label, argv + ["--instantiate", value])
                      for value in INSTANTIATE_EXPLICIT]
    return calls


def _reconstruct_calls(workdir: str):
    """``reconstruct`` of each ``RECONSTRUCTED`` problem under each of
    its suites, and of a copy of ``tests/problems/dense4.json`` with
    ``q2*v1`` added to its multiplier's entry ``(2, 2)``; writes the
    problem files."""
    dense = json.loads((REPO / "tests" / "problems" / "dense4.json")
                       .read_text(encoding="utf-8"))
    dense["g"][1][1] = f"{dense['g'][1][1]} + q2*v1"
    cases = dict(RECONSTRUCTED, dense4=(dense, ("dissipative",)))
    calls = []
    for name, (problem, suites) in cases.items():
        path = os.path.join(workdir, f"reconstruct-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(problem, handle)
        calls += [("reconstruct", ["reconstruct", path, "--suite", suite])
                  for suite in suites]
    return calls


def _refusal_calls(workdir: str):
    """The unknown-key and wrong-mode refusals, the implicit suite on
    ``IMPLICIT``, and the calls of ``cli_cases``; writes the problem
    files."""
    from cli_cases import RARE_VERDICTS, REFUSALS, prepare

    fixture = json.loads((REPO / "src" / "invlag" / "fixtures" /
                          "planar_drag.json").read_text(encoding="utf-8"))
    ansatz = fixture["ansatz"]
    keys = {
        "field": dict(fixture, colour="red", size=1),
        "option": dict(fixture, options={"format": "text", "colour": 1}),
        "ansatz-key": dict(fixture, ansatz=dict(ansatz, typo=1)),
        "preset-key": dict(fixture, ansatz=dict(ansatz, g={
            "preset": "polynomial", "degree": 1, "extra": 1})),
    }
    keys.update((f"implicit-{name}", {"n": 3, "mode": "implicit", "f": f})
                for name, f in IMPLICIT.items())
    paths = {}
    for name, problem in keys.items():
        paths[name] = os.path.join(workdir, f"keys-{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(problem, handle)
    calls = [("keys", ["analyze", paths["field"]]),
             ("keys", ["analyze", paths["option"]]),
             ("keys", ["solve", paths["ansatz-key"]]),
             ("keys", ["solve", paths["preset-key"]])]
    calls += [("mode", [command, "planar_drag_implicit"] + extra)
              for command, extra in (("analyze", []),
                                     ("check", ["--suite", "thm3"]),
                                     ("solve", []), ("reconstruct", []),
                                     ("verify", []))]
    calls.append(("mode", ["check", "planar_drag", "--suite", "implicit"]))
    calls += [("implicit", ["check", paths[f"implicit-{name}"],
                            "--suite", "implicit"]) for name in IMPLICIT]

    def case(label, name, argv, document, seed=None):
        directory = pathlib.Path(workdir, label, name)
        directory.mkdir(parents=True, exist_ok=True)
        argv = prepare(directory, argv, document)[0]
        return label, ([f"INVLAG_SEED={seed}"] if seed else []) + argv

    calls += [case("refusal", name, argv, document, seed) for name, (
        argv, document, _message, seed) in REFUSALS.items()]
    calls += [case("verdict", name, argv, document) for name, (
        argv, document, _code, _tail) in RARE_VERDICTS.items()]
    return calls


def _corpus(workdir: str):
    """``(label, argv)`` of every call, ``argv`` led by
    ``INVLAG_SEED=value`` where the call sets it; writes the problem
    files."""
    sys.path.insert(0, str(REPO / "perfbench"))
    sys.path.insert(0, str(REPO / "tests"))
    import workloads

    calls = (_readme_calls()
             + _first_entry_calls(workdir, "malformed", _malformed_texts())
             + _first_entry_calls(workdir, "noncanonical",
                                  _noncanonical_texts())
             + _first_entry_calls(workdir, "powers", POWERS)
             + _negated_calls(workdir)
             + _wide_calls(workdir)
             + _reconstruct_calls(workdir)
             + _refusal_calls(workdir))
    for workload in WORKLOADS:
        for seed in SEEDS:
            directory = os.path.join(workdir, f"{workload}-{seed}")
            os.makedirs(directory, exist_ok=True)
            calls += [(op.label, list(op.argv)) for op in
                      workloads.calls(workload, seed, directory, RUN_SECONDS)]
    return [(f"{label} [{fmt}]", argv + ["--format", fmt])
            for label, argv in calls for fmt in ("text", "json")]


def _run(tree: str, workdir: str, out: str):
    """Run the corpus on the ``invlag`` importable here; write the
    results to ``out``."""
    from invlag import cli

    os.environ.pop("INVLAG_SEED", None)
    os.chdir(workdir)
    results = []
    for label, argv in _corpus(workdir):
        seed = argv[0].partition("INVLAG_SEED=")[2]
        if seed:
            os.environ["INVLAG_SEED"] = seed
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv[1:] if seed else argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a fault: recorded; the corpus goes on
                code = f"raised {type(exc).__name__}"
                traceback.print_exc()
        os.environ.pop("INVLAG_SEED", None)
        results.append([label, " ".join(argv), code,
                        stdout.getvalue().replace(tree, "<tree>"),
                        stderr.getvalue().replace(tree, "<tree>")])
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle)


def _results(tree: pathlib.Path, workdir: str, out: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    subprocess.run([sys.executable, __file__, "--run", str(tree), workdir,
                    out], env=env, check=True)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument("--workdir", default=None,
                        help="where both trees write their problem files "
                             "(default: a new temporary directory)")
    args = parser.parse_args(argv)
    workdir = os.path.abspath(args.workdir or tempfile.mkdtemp(
        prefix="identity-corpus-"))
    os.makedirs(workdir, exist_ok=True)
    old = _results(args.old.resolve(), workdir,
                   os.path.join(workdir, "old.json"))
    new = _results(args.new.resolve(), workdir,
                   os.path.join(workdir, "new.json"))
    if [row[:2] for row in old] != [row[:2] for row in new]:
        print("the two trees ran different call lists")
        return 1
    lines, status = summary(old, new)
    print("\n".join(lines))
    return status


def summary(old, new):
    """The report lines and the exit status of two trees' results, rows
    ``[label, command, exit code, stdout, stderr]`` of one call list.

    A call that raises or exits outside 0-4 on OLD only is MENDED and
    sets no status, whatever else of it differs. Every other call whose
    exit code, stdout or stderr differs is listed as DIFFERS, and every
    call that raises or exits outside 0-4 on NEW as a FAULT, each
    setting the status to 1.
    """
    lines, differ, faults, mended = [], 0, 0, 0
    for (label, command, *before), (_label, _command, *after) in zip(old, new):
        where = f"(old {before[0]}, new {after[0]}): {label}: invlag {command}"
        broken = [tree for tree, (code, *_output) in (("OLD", before),
                                                      ("NEW", after))
                  if code not in range(5)]
        if broken == ["OLD"]:
            mended += 1
            lines.append(f"MENDED, raises on OLD only {where}")
            continue
        changed = [name for name, a, b in zip(("exit code", "stdout",
                                               "stderr"), before, after)
                   if a != b]
        if changed:
            differ += 1
            lines.append(f"DIFFERS ({', '.join(changed)}): {label}: "
                         f"invlag {command}")
        if broken:
            faults += 1
            lines.append(f"FAULT, raises on "
                         f"{'both' if len(broken) == 2 else 'NEW only'} "
                         f"{where}")
    lines.append(f"{len(old)} calls, {differ} differ, {faults} raise or "
                 f"exit outside 0-4 on NEW, {mended} mended")
    return lines, 1 if differ or faults else 0

if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        _run(*sys.argv[2:5])
    else:
        sys.exit(main())
