"""Calls the command line refuses, and calls with a verdict the README
table does not reach, shared by ``test_cli.py`` and
``identity_corpus.py``.

Each case is a command and its flags (``prepare`` puts the problem file
second) and a problem document, ``None`` where the file is a directory.
A refusal adds the message after ``invlag: error: ``, with ``{path}``
the problem file and ``{tmp}`` the directory it is in, and the value of
``INVLAG_SEED`` (``None``: unset). A verdict adds the exit code and the
last lines of the text report.
"""

import json
import pathlib
import sys

_DRAG = json.loads((pathlib.Path(__file__).resolve().parents[1] / "src"
                    / "invlag" / "fixtures" / "planar_drag.json")
                   .read_text(encoding="utf-8"))
_DIGITS = sys.get_int_max_str_digits()
_VELOCITY_OMEGA = [["0", "v1"], ["-v1", "0"]]


def _drag_ansatz(**changes) -> dict:
    return dict(_DRAG, ansatz=dict(_DRAG["ansatz"], **changes))


def _refusal(name, argv, document, message, seed=None):
    return name, (argv, document, message, seed)


REFUSALS = dict([
    _refusal("directory", ["analyze"], None, "{path}: Is a directory"),
    _refusal("top-level", ["analyze"], [1, 2],
             "{path}: the top level must be a JSON object"),
    _refusal("n", ["analyze"], dict(_DRAG, n=0),
             "{path}: 'n' must be a positive integer"),
    _refusal("parameters", ["analyze"], dict(_DRAG, parameters="a"),
             "{path}: 'parameters' must be a list of names"),
    _refusal("mode", ["analyze"], dict(_DRAG, mode="semi"),
             "{path}: 'mode' must be \"explicit\" or \"implicit\""),
    _refusal("options", ["analyze"], dict(_DRAG, options=[]),
             "{path}: 'options' must be an object"),
    _refusal("format", ["analyze"], dict(_DRAG, options={"format": "xml"}),
             "{path}: options.format must be \"text\" or \"json\""),
    _refusal("instantiate", ["analyze"],
             dict(_DRAG, options={"instantiate": ["a"]}),
             "{path}: options.instantiate must map parameter names to "
             "rationals"),
    _refusal("instantiate-boolean", ["analyze"],
             dict(_DRAG, options={"instantiate": {"a": True}}),
             "{path}: options.instantiate.a: booleans are not rationals"),
    _refusal("instantiate-list", ["analyze"],
             dict(_DRAG, options={"instantiate": {"a": [1]}}),
             "{path}: options.instantiate.a: expected a rational like "
             "\"2/3\""),
    _refusal("ansatz", ["analyze"], dict(_DRAG, ansatz=[]),
             "{path}: 'ansatz' must be an object"),
    _refusal("f-length", ["analyze"], dict(_DRAG, f=["0"]),
             "{path}: 'f' must be a list of 2 expression strings"),
    _refusal("g-shape", ["analyze"], dict(_DRAG, g=[["1", "0"]]),
             "{path}: 'g' must be an 2x2 matrix of expression strings"),
    _refusal("float", ["analyze"], dict(_DRAG, f=[0.5, "0"]),
             "{path}: f[1]: write non-integer rationals as strings like "
             "\"1/2\""),
    _refusal("non-string", ["analyze"], dict(_DRAG, f=[1, True]),
             "{path}: f[2]: expected an expression string"),
    _refusal("name-digits", ["analyze"],
             dict(_DRAG, f=["q" + "9" * 5000, "0"]),
             f"{{path}}: f[1]: number in a name above the limit of {_DIGITS} "
             "digits (at position 0)"),
    _refusal("implicit-order", ["check", "--suite", "implicit"],
             {"n": 1, "mode": "implicit", "f": ["d3q1"]},
             "{path}: f_1 depends on a jet of order 3"),
    _refusal("entries", ["solve"], _drag_ansatz(g={"entries": []}),
             "{path}: ansatz.g.entries must map \"i,j\" keys to lists of "
             "basis expressions"),
    _refusal("entry-key", ["solve"],
             _drag_ansatz(g={"entries": {"x": ["1"]}}),
             "{path}: ansatz.g: bad entry key 'x' (write \"i,j\")"),
    _refusal("entry-key-digits", ["solve"],
             _drag_ansatz(g={"entries": {"1," + "9" * 5000: ["1"]}}),
             f"{{path}}: ansatz.g: an entry key index above the limit of "
             f"{_DIGITS} digits"),
    _refusal("entry-range", ["solve"],
             _drag_ansatz(g={"entries": {"3,3": ["1"]}}),
             "{path}: ansatz.g: entry '3,3' is outside dimension 2"),
    _refusal("entry-lower", ["solve"],
             _drag_ansatz(g={"entries": {"2,1": ["1"]}}),
             "{path}: ansatz.g: declare entry '2,1' with i <= j"),
    _refusal("entry-list", ["solve"],
             _drag_ansatz(g={"entries": {"1,1": "1"}}),
             "{path}: ansatz.g: entry '1,1' must list basis expressions"),
    _refusal("degree", ["solve"], _drag_ansatz(g={"preset": "polynomial"}),
             "{path}: ansatz.g: preset 'polynomial' needs a nonnegative "
             "'degree'"),
    _refusal("variables", ["solve"], _drag_ansatz(
        g={"preset": "diagonal", "degree": 1, "variables": [3]}),
        "{path}: ansatz.g: 'variables' must list position indices in 1..2"),
    _refusal("preset", ["solve"], _drag_ansatz(g={"preset": "cubic"}),
             "{path}: ansatz.g: unknown preset 'cubic' (constant, "
             "polynomial, diagonal)"),
    _refusal("no-ansatz", ["solve"],
             {key: value for key, value in _DRAG.items() if key != "ansatz"},
             "{path}: an 'ansatz' section is required for solve"),
    _refusal("g-family", ["solve"], _drag_ansatz(g=1),
             "{path}: ansatz.g must describe the multiplier family (preset "
             "or entries)"),
    _refusal("omega-family", ["solve"], _drag_ansatz(omega={}),
             "{path}: ansatz.omega must carry an 'entries' map"),
    _refusal("ansatz-bound", ["solve"], _drag_ansatz(bound=-1),
             "{path}: ansatz.bound must be a nonnegative integer"),
    _refusal("suite", ["solve"], _drag_ansatz(suite="rayleigh"),
             "{path}: ansatz: unknown suite 'rayleigh'"),
    _refusal("seed", ["analyze"], _DRAG,
             "INVLAG_SEED must be an integer, not 'x'", seed="x"),
    _refusal("check-two-form", ["check", "--suite", "gyroscopic"],
             dict(_DRAG, omega=_VELOCITY_OMEGA),
             "{path}: two-form entry (1, 2) depends on velocities"),
    _refusal("verify-two-form", ["verify", "--suite", "gyroscopic"],
             dict(_DRAG, omega=_VELOCITY_OMEGA),
             "{path}: two-form entry (1, 2) depends on velocities"),
    _refusal("solve-two-form", ["solve"], _drag_ansatz(
        suite="gyroscopic", omega={"entries": {"1,2": ["1", "q1", "v1"]}}),
        "{path}: two-form entry (1, 2) depends on velocities"),
    _refusal("out", ["reconstruct", "--out", "{tmp}/missing/c.json"], _DRAG,
             "{tmp}/missing/c.json: No such file or directory"),
])

RARE_VERDICTS = {
    "inconsistent": (["solve"], dict(_DRAG, D="v1^3", ansatz={
        "suite": "dissipative", "g": {"preset": "constant"}, "bound": 1}), 3,
        ["inconsistent system: 0 = 1 after elimination: no solution in "
         "this ansatz", "verdict: no multiplier in this family"]),
    "exhausted": (["solve", "--bound", "0"], _DRAG, 4,
                  ["verdict: search exhausted up to coefficient bound 0 "
                   "without a nonsingular member"]),
    "multiplier-fails": (
        ["reconstruct"],
        {"n": 2, "f": ["0", "0"], "g": [["1", "0"], ["0", "q1 + 1"]]}, 1,
        ["  FAIL  DHSym[1,2,2] = 1",
         "  multiplier determinant: q1 + 1 (nonsingular)",
         "    note: determinant is non-constant, so it vanishes on a proper "
         "subset of the domain",
         "numeric cross-check (seed 1729, 5 points, 4 cells): agrees with "
         "the symbolic verdicts",
         "verdict: multiplier fails its conditions; nothing to reconstruct"]),
    "forward-fails": (
        ["verify", "--forward"], dict(_DRAG, L="1/2*v1^2 + 1/2*v2^2"), 1,
        ["rebuilt accelerations:", "  f[1] = 0", "  f[2] = 0",
         "forward diff: suite dissipative; 2 cells, 2 failing",
         "  FAIL  f[1] = q1*a + q2*b + v1*omega",
         "  FAIL  f[2] = -q1*b + q2*a - v2*omega",
         "numeric cross-check (seed 1729, 5 points, 4 cells): agrees with "
         "the symbolic verdicts", "verdict: FAIL"]),
}


def prepare(directory: pathlib.Path, argv, document):
    """Write ``document`` to ``directory``; return the full argv and the
    names its message formats."""
    path = directory
    if document is not None:
        path = directory / "problem.json"
        path.write_text(json.dumps(document), encoding="utf-8")
    names = {"path": path, "tmp": directory}
    return ([argv[0], str(path)] + [arg.format(**names) for arg in argv[1:]],
            names)
