"""File-driven command line for the inverse-problem toolkit.

A problem lives in a single JSON document declaring the dimension, the
parameters, the system (explicit accelerations or an implicit
second-order system), and optional candidate data: a multiplier matrix
``g``, a dissipation function ``D``, a Lagrangian ``L``, a two-form
``omega``, and an ansatz section for the linear search. Five
subcommands dispatch the library on such a file:

``analyze``
    print the connection, the Jacobi endomorphism, the curvature and
    the vertical connection derivative;
``check``
    run one named condition suite and report every cell;
``solve``
    search the declared ansatz family for a nonsingular multiplier;
``reconstruct``
    integrate a valid multiplier into a certified ``(L, D)`` or
    ``(L, omega)`` pair;
``verify``
    confirm a certificate against the system, optionally rebuilding
    the accelerations from it.

Every report exists in two forms that agree cell for cell: a
human-readable text rendering (residuals truncated) and a JSON document
(residuals in full, validating against the shipped schema). All
symbolic output uses the same grammar the parser accepts. Exit codes:
0 success/pass, 1 a check or verification failed, 2 usage or input
error, 3 a search proved no nonsingular member exists, 4 a search was
exhausted inconclusively. The environment variable ``INVLAG_SEED``
seeds the random points used by the numeric cross-checks.

Importing this module loads only what every command needs: the parser,
``exprcore``, ``geometry`` and ``conditions``. Each command imports the
rest on first use, when it runs: ``analyze`` nothing more, ``check``
``numeric``, ``solve`` ``solver`` and ``numeric``, ``reconstruct`` and
``verify`` ``reconstruct`` and ``numeric``. The names are read from
their modules at call time, so a patch of a module attribute reaches
the command.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import product
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .conditions import (SUITES, Cell, ConditionReport, ImplicitSystem,
                         check_implicit, check_suite, implicit_context)
from .exprcore import (Expr, ExprContext, ExprError, LimitError,
                       NotPolynomialError, negated_text)
from .geometry import (GeometryError, Sode, TensorField, connection,
                       curvature, jacobi, theta_tensor)

if TYPE_CHECKING:
    from .solver import AnsatzProblem

PROBLEM_FIELDS = ("n", "parameters", "mode", "f", "g", "D", "L", "omega",
                  "ansatz", "options")
CHECK_SUITES = tuple(SUITES) + ("implicit",)
RESIDUAL_PREVIEW = 64
#: the seed of the numeric cross-checks when ``INVLAG_SEED`` is unset
DEFAULT_SEED = 1729


class CliError(Exception):
    """Unusable input: reported on stderr, exit code 2."""


# --------------------------------------------------------------------------
# problem files


class Problem:
    """A parsed problem file, with every expression already living in
    the declared context and any parameter instantiation applied."""

    def __init__(self, path: str, data: dict,
                 overrides: Dict[str, Fraction]):
        self.path = path
        self.n = _expect_dimension(data)
        self.parameters = _expect_parameters(data)
        self.mode = _expect_mode(data)
        try:
            if self.mode == "implicit":
                self.ctx = implicit_context(self.n, self.parameters)
            else:
                self.ctx = ExprContext(self.n, parameters=self.parameters)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        self.options = _expect_options(data)
        self.substitution = self._bindings(overrides)
        self.f = self._field_vector(data, "f")
        self.g = self._field_matrix(data, "g", symmetric=True)
        self.D = self._field_scalar(data, "D")
        self.L = self._field_scalar(data, "L")
        self.omega = self._field_matrix(data, "omega", symmetric=False)
        self.ansatz = data.get("ansatz")
        if self.ansatz is not None and not isinstance(self.ansatz, dict):
            raise CliError("'ansatz' must be an object")

    # -- construction helpers ------------------------------------------------

    def _bindings(self, overrides: Dict[str, Fraction]) -> dict:
        values: Dict[str, Fraction] = {}
        declared = self.options.get("instantiate", {})
        if not isinstance(declared, dict):
            raise CliError("options.instantiate must map parameter names "
                           "to rationals")
        for name, raw in declared.items():
            values[name] = _as_fraction(raw, f"options.instantiate.{name}")
        values.update(overrides)
        bindings = {}
        for name, value in values.items():
            if name not in self.parameters:
                raise CliError(f"cannot instantiate {name!r}: not a declared "
                               "parameter")
            bindings[self.ctx.param(name)] = value
        return bindings

    def parse(self, text, where: str) -> Expr:
        if isinstance(text, (int, float)) and not isinstance(text, bool):
            if isinstance(text, float) and not text.is_integer():
                raise CliError(f"{where}: write non-integer rationals as "
                               "strings like \"1/2\"")
            text = str(int(text))
        if not isinstance(text, str):
            raise CliError(f"{where}: expected an expression string")
        try:
            parsed = self.ctx.parse(text)
            if self.substitution:
                parsed = parsed.subst(self.substitution)
        except ExprError as exc:
            raise CliError(f"{where}: {exc}") from exc
        return parsed

    def _field_vector(self, data: dict, name: str) -> Optional[List[Expr]]:
        raw = data.get(name)
        if raw is None:
            return None
        if not isinstance(raw, list) or len(raw) != self.n:
            raise CliError(f"{name!r} must be a list of {self.n} expression "
                           "strings")
        return [self.parse(entry, f"{name}[{k}]")
                for k, entry in enumerate(raw, start=1)]

    def _field_scalar(self, data: dict, name: str) -> Optional[Expr]:
        raw = data.get(name)
        if raw is None:
            return None
        return self.parse(raw, name)

    def _field_matrix(self, data: dict, name: str,
                      symmetric: bool) -> Optional[TensorField]:
        raw = data.get(name)
        if raw is None:
            return None
        n = self.n
        if (not isinstance(raw, list) or len(raw) != n
                or any(not isinstance(row, list) or len(row) != n
                       for row in raw)):
            raise CliError(f"{name!r} must be an {n}x{n} matrix of "
                           "expression strings")
        entries = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                entries[(i, j)] = self.parse(raw[i - 1][j - 1],
                                             f"{name}[{i}][{j}]")
        kind = "sym" if symmetric else "antisym"
        try:
            return TensorField(self.ctx, (0, 2), entries,
                               **{kind: ((1, 2),)})
        except GeometryError as exc:
            raise CliError(f"{name!r}: {exc}") from exc

    # -- requirements ----------------------------------------------------

    def require_mode(self, mode: str, why: str):
        if self.mode != mode:
            raise CliError(f"{why} needs a problem in {mode} mode, not "
                           f"{self.mode}")

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise CliError(f"section {name!r} is required for this command")
        return value

    def sode(self, why: str = "this command") -> Sode:
        self.require_mode("explicit", why)
        return Sode(self.ctx, self.require("f"))

    def implicit_system(self) -> ImplicitSystem:
        self.require_mode("implicit", "the implicit suite")
        return ImplicitSystem(self.ctx, self.require("f"))


def _expect_dimension(data: dict) -> int:
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CliError("'n' must be a positive integer")
    return n


def _expect_parameters(data: dict) -> Tuple[str, ...]:
    raw = data.get("parameters", [])
    if (not isinstance(raw, list)
            or any(not isinstance(name, str) for name in raw)):
        raise CliError("'parameters' must be a list of names")
    return tuple(raw)


def _expect_mode(data: dict) -> str:
    mode = data.get("mode", "explicit")
    if mode not in ("explicit", "implicit"):
        raise CliError("'mode' must be \"explicit\" or \"implicit\"")
    return mode


def _expect_options(data: dict) -> dict:
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise CliError("'options' must be an object")
    _refuse_unknown(options, ("instantiate", "format"), "unknown options")
    if options.get("format") not in (None, "text", "json"):
        raise CliError("options.format must be \"text\" or \"json\"")
    return options


def _refuse_unknown(section: dict, allowed, what: str):
    """Refuse the keys of ``section`` outside ``allowed``, listing them
    after ``what``."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise CliError(f"{what}: " + ", ".join(sorted(unknown)))


def _as_fraction(raw, where: str) -> Fraction:
    try:
        if isinstance(raw, bool):
            raise ValueError("booleans are not rationals")
        if isinstance(raw, int):
            return Fraction(raw)
        if isinstance(raw, str):
            return _rational(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{where}: {exc}") from exc
    raise CliError(f"{where}: expected a rational like \"2/3\"")


_EXPONENT = re.compile(r"\A\s*[-+]?[\d_.]*[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _rational(text: str) -> Fraction:
    """``Fraction(text)``, with a decimal exponent above
    ``sys.get_int_max_str_digits()`` in magnitude refused first:
    ``Fraction`` would build ten to that power, for seconds at an
    exponent of ten million and for minutes past it."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    exponent = _EXPONENT.match(text)
    if limit and exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ValueError(f"exponent above the limit of {limit}")
    return Fraction(text)


def resolve_input(path: str) -> str:
    """An existing file path, or the bundled fixture of that name."""
    if os.path.exists(path):
        return path
    name = path if path.endswith(".json") else path + ".json"
    if os.sep not in name:
        from importlib import resources
        candidate = resources.files("invlag") / "fixtures" / name
        if candidate.is_file():
            return str(candidate)
    raise CliError(f"{path}: no such file or bundled fixture")


def _unique_keys(pairs) -> dict:
    """A JSON object, refused when it names a key twice: plain
    ``json.loads`` would keep the last value and drop the others."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _value in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise CliError(f"repeated JSON key {repeated!r}")
    return data


def load_problem(path: str, overrides: Dict[str, Fraction]) -> Problem:
    """The problem in the file at ``path`` or the bundled fixture of that
    name. Its errors do not name the file: ``main`` adds it."""
    resolved = resolve_input(path)
    with open(resolved, encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CliError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") \
            from exc
    except ValueError:  # an integer past Python's limit for str to int
        raise CliError("an integer above the limit of "
                       f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise CliError("JSON nested past Python's recursion limit of "
                       f"{sys.getrecursionlimit()}") from None
    if not isinstance(data, dict):
        raise CliError("the top level must be a JSON object")
    _refuse_unknown(data, PROBLEM_FIELDS, "unknown fields")
    return Problem(resolved, data, overrides)


# --------------------------------------------------------------------------
# ansatz section


_ENTRY_KEY = re.compile(r"^\s*([1-9][0-9]*)\s*,\s*([1-9][0-9]*)\s*$")


def _basis_entries(problem: Problem, section: dict, name: str,
                   strict_upper: bool):
    entries = section.get("entries")
    if not isinstance(entries, dict):
        raise CliError(f"ansatz.{name}.entries must map \"i,j\" keys to "
                       "lists of basis expressions")
    _refuse_unknown(section, ("entries",), f"ansatz.{name}: unknown keys")
    parsed = []
    for key in entries:
        match = _ENTRY_KEY.match(key)
        if not match:
            raise CliError(f"ansatz.{name}: bad entry key {key!r} (write "
                           "\"i,j\")")
        digits = sys.get_int_max_str_digits()  # 0: no limit
        if digits and max(map(len, match.groups())) > digits:
            raise CliError(f"ansatz.{name}: an entry key index above the "
                           f"limit of {digits} digits")
        i, j = int(match.group(1)), int(match.group(2))
        if any(pair == (i, j) for pair, _exprs in parsed):
            raise CliError(f"ansatz.{name}: entry {key!r} repeats entry "
                           f"{i},{j}")
        if max(i, j) > problem.n:
            raise CliError(f"ansatz.{name}: entry {key!r} is outside "
                           f"dimension {problem.n}")
        if (strict_upper and i >= j) or (not strict_upper and i > j):
            raise CliError(f"ansatz.{name}: declare entry {key!r} with i "
                           f"{'<' if strict_upper else '<='} j")
        basis = entries[key]
        if not isinstance(basis, list):
            raise CliError(f"ansatz.{name}: entry {key!r} must list basis "
                           "expressions")
        exprs = tuple(problem.parse(b, f"ansatz.{name}[{key}][{k}]")
                      for k, b in enumerate(basis, start=1))
        parsed.append(((i, j), exprs))
    parsed.sort(key=lambda item: item[0])
    return tuple(parsed)


def _preset_family(problem: Problem, section: dict, name: str):
    """The builder of the preset family declared in ``section``, waiting
    for the suite and the rest of the family."""
    from .solver import constant_ansatz, diagonal_ansatz, polynomial_ansatz
    preset = section["preset"]
    allowed = ("preset",)
    if preset == "constant":
        build = partial(constant_ansatz, problem.ctx)
    elif preset in ("polynomial", "diagonal"):
        degree = section.get("degree")
        if not isinstance(degree, int) or isinstance(degree, bool) \
                or degree < 0:
            raise CliError(f"ansatz.{name}: preset {preset!r} needs a "
                           "nonnegative 'degree'")
        variables = section.get("variables")
        if variables is not None:
            if (not isinstance(variables, list)
                    or any(not isinstance(v, int) or isinstance(v, bool)
                           or not 1 <= v <= problem.n for v in variables)):
                raise CliError(f"ansatz.{name}: 'variables' must list "
                               f"position indices in 1..{problem.n}")
        builder = (polynomial_ansatz if preset == "polynomial"
                   else diagonal_ansatz)
        build = partial(builder, problem.ctx, degree=degree,
                        variables=variables)
        allowed = ("preset", "degree", "variables")
    else:
        raise CliError(f"ansatz.{name}: unknown preset {preset!r} "
                       "(constant, polynomial, diagonal)")
    _refuse_unknown(section, allowed, f"ansatz.{name}: unknown keys")
    return build


def ansatz_problem(problem: Problem) -> Tuple[AnsatzProblem, int]:
    """Build the search family declared in the file's ansatz section."""
    from .solver import AnsatzProblem, SolverError
    section = problem.ansatz
    if section is None:
        raise CliError("an 'ansatz' section is required for solve")
    _refuse_unknown(section, ("suite", "g", "omega", "bound"),
                    "ansatz: unknown keys")
    suite = section.get("suite")
    gspec = section.get("g")
    if not isinstance(gspec, dict):
        raise CliError("ansatz.g must describe the multiplier family "
                       "(preset or entries)")
    if "preset" in gspec:
        build = _preset_family(problem, gspec, "g")
    else:
        build = partial(AnsatzProblem, g_basis=_basis_entries(
            problem, gspec, "g", strict_upper=False))
    omega_basis = ()
    wspec = section.get("omega")
    if wspec is not None:
        if not isinstance(wspec, dict) or "entries" not in wspec:
            raise CliError("ansatz.omega must carry an 'entries' map")
        omega_basis = _basis_entries(problem, wspec, "omega",
                                     strict_upper=True)
    bound = section.get("bound", 2)
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise CliError("ansatz.bound must be a nonnegative integer")
    try:
        family = build(suite, omega_basis=omega_basis, D=problem.D,
                       omega=problem.omega)
    except SolverError as exc:
        raise CliError(f"ansatz: {exc}") from exc
    return family, bound


# --------------------------------------------------------------------------
# payload serialization


def _strings(t: TensorField) -> list:
    """The entries of ``t`` as text, in lists nested one per index; a
    zero entry, which ``t.entries`` leaves out, reads ``0``.

    Each orbit of the declared ``sym`` and ``antisym`` pairs of slots is
    printed once, at its first index in index order: a partner under a
    symmetric pair copies that text and one under an antisymmetric pair
    negates it (``negated_text``), since ``TensorField`` has checked
    that the partner equals the entry or its negation."""
    pairs = [(a - 1, b - 1, negated) for declared, negated in
             ((t.sym, False), (t.antisym, True))
             for a, b in map(sorted, declared)]
    texts = {}
    for idx, value in sorted(t.entries.items()):
        for a, b, negated in pairs:
            if idx[a] > idx[b]:
                swapped = list(idx)
                swapped[a], swapped[b] = idx[b], idx[a]
                text = texts[tuple(swapped)]
                texts[idx] = negated_text(text) if negated else text
                break
        else:
            texts[idx] = str(value)
    n = t.n
    nested = [texts.get(idx, "0")
              for idx in product(range(1, n + 1), repeat=t.rank)]
    for _ in range(t.rank - 1):
        nested = [nested[k:k + n] for k in range(0, len(nested), n)]
    return nested


def _entry_map(t: TensorField) -> dict:
    """The nonzero entries of ``t`` on and above the diagonal."""
    return {f"{i},{j}": str(value)
            for (i, j), value in sorted(t.entries.items()) if i <= j}


def report_payload(report: ConditionReport) -> dict:
    payload = {
        "suite": report.suite,
        "passed": report.passes,
        "cells": [{"label": cell.label, "residual": str(cell.residual),
                   "passes": cell.passes} for cell in report.cells],
        "notes": list(report.notes),
    }
    record = report.nonsingularity
    payload["nonsingularity"] = None if record is None else {
        "determinant": str(record.determinant),
        "nonsingular": record.nonsingular,
        "note": record.note or None,
    }
    return payload


def _seed() -> int:
    raw = os.environ.get("INVLAG_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"INVLAG_SEED must be an integer, not {raw!r}") \
            from exc


def numeric_payload(reports: Sequence[ConditionReport]) -> dict:
    from .numeric import crosscheck_cells, seeded_rng
    cells = [(cell.label, cell.residual)
             for report in reports for cell in report.cells]
    return crosscheck_cells(cells, seeded_rng(_seed()))


def _base_payload(command: str, problem: Problem) -> dict:
    return {
        "command": command,
        "file": problem.path,
        "n": problem.n,
        "parameters": list(problem.parameters),
        "mode": problem.mode,
        "seed": _seed(),
    }


# --------------------------------------------------------------------------
# commands


def cmd_analyze(problem: Problem, args) -> Tuple[dict, int]:
    s = problem.sode("analyze")
    payload = _base_payload("analyze", problem)
    payload["objects"] = {
        "Gamma": _strings(connection(s)),
        "Phi": _strings(jacobi(s)),
        "R": _strings(curvature(s)),
        "theta": _strings(theta_tensor(s)),
    }
    return payload, 0


def cmd_check(problem: Problem, args) -> Tuple[dict, int]:
    suite = args.suite
    payload = _base_payload("check", problem)
    payload["suite"] = suite
    if suite == "implicit":
        report = check_implicit(problem.implicit_system())
    else:
        s = problem.sode(f"suite {suite!r}")
        report = check_suite(suite, s, problem.require("g"), D=problem.D,
                             omega=problem.omega)
    payload["report"] = report_payload(report)
    payload["numeric_crosscheck"] = numeric_payload([report])
    return payload, 0 if report.passes else 1


def cmd_solve(problem: Problem, args) -> Tuple[dict, int]:
    from .solver import (SolverError, assemble, find_nonsingular, instantiate,
                         solve as solve_space)
    s = problem.sode("solve")
    family, bound = ansatz_problem(problem)
    if args.bound is not None:
        bound = args.bound
    try:
        system = assemble(s, family)
    except SolverError as exc:
        raise CliError(str(exc)) from exc
    space = solve_space(system)
    rep = find_nonsingular(space, s, bound)

    payload = _base_payload("solve", problem)
    payload["suite"] = family.suite
    vectors = []
    for vector in space.nullspace:
        g, omega = instantiate(family, problem.ctx, vector)
        vectors.append({
            "vector": [str(value) for value in vector], "g": _entry_map(g),
            "omega": _entry_map(omega) if omega is not None else None})
    solution = {
        "unknowns": len(system.unknowns),
        "equations": len(system.rows),
        "consistent": space.consistent,
        "certificate_row": space.certificate_row,
        "dimension": space.dimension,
        "nullspace": vectors,
        "particular": ([str(value) for value in space.particular]
                       if space.particular is not None else None),
        "forced_zero": [f"{part}[{i},{j}]"
                        for part, i, j in space.forced_zero()],
        "bound": bound,
        "exhausted": rep is None,
        "definitive_negative": space.definitive_negative,
        "representative": None,
    }
    payload["solution"] = solution
    if rep is not None:
        solution["representative"] = {
            "g": _strings(rep.g),
            "omega": (_strings(rep.omega)
                      if rep.omega is not None else None),
            "det": str(rep.report.nonsingularity.determinant),
            "vector": [str(value) for value in rep.vector],
        }
        payload["representative_report"] = report_payload(rep.report)
        payload["numeric_crosscheck"] = numeric_payload([rep.report])
        return payload, 0
    if space.definitive_negative or not space.consistent:
        return payload, 3
    return payload, 4


def _certificate_payload(cert) -> dict:
    gauge = None
    if cert.gauge is not None:
        gauge = {
            "lagrangian_linear": [str(e) for e in
                                  cert.gauge.lagrangian_linear],
            "lagrangian_scalar": str(cert.gauge.lagrangian_scalar),
            "dissipation_linear": [str(e) for e in
                                   cert.gauge.dissipation_linear],
            "base_point": cert.gauge.base_point,
        }
    return {
        "kind": cert.kind,
        "L": str(cert.L),
        "D": str(cert.D) if cert.D is not None else None,
        "omega": (_strings(cert.omega)
                  if cert.omega is not None else None),
        "gauge": gauge,
    }


def cmd_reconstruct(problem: Problem, args) -> Tuple[dict, int]:
    from .reconstruct import (MultiplierCheckError, ReconstructError,
                              reconstruct_dissipative, reconstruct_gyroscopic)
    s = problem.sode("reconstruct")
    g = problem.require("g")
    route = SUITES[args.suite].route
    payload = _base_payload("reconstruct", problem)
    payload["route"] = route
    builder = (reconstruct_dissipative if route == "dissipative"
               else reconstruct_gyroscopic)
    try:
        cert = builder(s, g)
    except MultiplierCheckError as exc:
        payload["multiplier_report"] = report_payload(exc.report)
        payload["numeric_crosscheck"] = numeric_payload([exc.report])
        return payload, 1
    except (ReconstructError, GeometryError, NotPolynomialError) as exc:
        raise CliError(f"{type(exc).__name__}: {exc}") from exc
    verify = cert.verification
    payload["certificate"] = _certificate_payload(cert)
    payload["verify"] = report_payload(verify)
    payload["numeric_crosscheck"] = numeric_payload([verify])
    if args.out:
        document = {"file": problem.path, "route": route,
                    "verified": verify.passes}
        document.update(payload["certificate"])
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        payload["out"] = args.out
    return payload, 0 if verify.passes else 1


def cmd_verify(problem: Problem, args) -> Tuple[dict, int]:
    from .reconstruct import (SingularHessianError, forward_accelerations,
                              verify_dissipative, verify_gyroscopic)
    s = problem.sode("verify")
    L = problem.require("L")
    route = args.suite
    if route is None:
        if problem.omega is not None and problem.D is not None:
            raise CliError("both 'D' and 'omega' present; pick one with "
                           "--suite")
        route = "gyroscopic" if problem.omega is not None else "dissipative"
    payload = _base_payload("verify", problem)
    payload["suite"] = route
    D = None
    omega = None
    if route == "gyroscopic":
        omega = problem.require("omega")
        report = verify_gyroscopic(s, L, omega)
    else:
        D = problem.D if problem.D is not None else problem.ctx.zero
        report = verify_dissipative(s, L, D)
    payload["report"] = report_payload(report)
    code = 0 if report.passes and report.nonsingularity.nonsingular else 1
    reports = [report]
    if args.forward:
        try:
            rebuilt = forward_accelerations(L, D, omega)
        except SingularHessianError as exc:
            raise CliError(f"{exc}; cannot rebuild the accelerations") \
                from exc
        forward = ConditionReport("forward", tuple(
            Cell(f"f[{i}]", ours - theirs)
            for i, (ours, theirs) in enumerate(zip(rebuilt, s.f), start=1)))
        payload["forward"] = {"rebuilt_f": [str(e) for e in rebuilt],
                              "cells": report_payload(forward)["cells"]}
        reports.append(forward)
        if not forward.passes:
            code = 1
    payload["numeric_crosscheck"] = numeric_payload(reports)
    return payload, code


# --------------------------------------------------------------------------
# text rendering


def _short(text: str) -> str:
    if len(text) <= RESIDUAL_PREVIEW:
        return text
    return text[:RESIDUAL_PREVIEW] + f"... ({len(text)} chars)"


def _render_header(payload: dict) -> List[str]:
    parameters = ", ".join(payload["parameters"]) or "none"
    return [f"{payload['command']}: {payload['file']}",
            f"n = {payload['n']}; mode = {payload['mode']}; "
            f"parameters: {parameters}"]


def _render_report(title: str, report: dict) -> List[str]:
    cells = report["cells"]
    failing = sum(1 for cell in cells if not cell["passes"])
    lines = [f"{title}: suite {report['suite']}; "
             f"{len(cells)} cells, {failing} failing"]
    for cell in cells:
        flag = "pass" if cell["passes"] else "FAIL"
        lines.append(f"  {flag}  {cell['label']} = "
                     f"{_short(cell['residual'])}")
    record = report.get("nonsingularity")
    if record is not None:
        verdict = "nonsingular" if record["nonsingular"] else "singular"
        lines.append(f"  multiplier determinant: "
                     f"{_short(record['determinant'])} ({verdict})")
        if record.get("note"):
            lines.append(f"    note: {record['note']}")
    for note in report.get("notes", ()):
        lines.append(f"  note: {note}")
    return lines


def _render_numeric(payload: dict) -> List[str]:
    numeric = payload.get("numeric_crosscheck")
    if numeric is None:
        return []
    status = ("agrees with the symbolic verdicts" if numeric["consistent"]
              else "DISAGREES at " + ", ".join(numeric["disagreements"]))
    return [f"numeric cross-check (seed {payload['seed']}, "
            f"{numeric['points']} points, {numeric['cells_checked']} "
            f"cells): {status}"]


def _entry_lines(label: str, entries, indent: str = "  ") -> List[str]:
    """One ``label[idx] = value`` line per ``(idx, value)`` pair."""
    return [f"{indent}{label}[{idx}] = {value}" for idx, value in entries]


def _tensor_block(title: str, label: str, entries: List[Tuple[str, str]])\
        -> List[str]:
    return [title + ":"] + (_entry_lines(label, entries)
                            or [f"  (all {label} entries are zero)"])


def _nonzero(nested, keep=lambda idx: True) -> List[Tuple[str, str]]:
    """The ``("i,j[,k]", text)`` pairs of the nonzero entries of text
    lists nested one per index, in index order, for the indices that
    ``keep`` accepts."""
    texts, rank = nested, 1
    while isinstance(texts[0], list):
        texts, rank = [text for row in texts for text in row], rank + 1
    label = ",".join(["{}"] * rank).format
    return [(label(*idx), text) for idx, text in
            zip(product(range(1, len(nested) + 1), repeat=rank), texts)
            if text != "0" and keep(idx)]


def _render_analyze(payload: dict) -> List[str]:
    objects = payload["objects"]
    lines = _render_header(payload)
    lines += _tensor_block("connection coefficients", "Gamma",
                           _nonzero(objects["Gamma"]))
    lines += _tensor_block("Jacobi endomorphism", "Phi",
                           _nonzero(objects["Phi"]))
    lines += _tensor_block("curvature (entries with i < j)", "R", _nonzero(
        objects["R"], lambda idx: idx[1] < idx[2]))
    lines += _tensor_block("vertical connection derivative", "theta",
                           _nonzero(objects["theta"]))
    return lines


def _verdict(payload: dict) -> str:
    """The verdict line: the exit code ``main`` stored from the command."""
    return f"verdict: {'pass' if payload['exit_code'] == 0 else 'FAIL'}"


def _render_entry_map(prefix: str, mapping: dict) -> List[str]:
    return (_entry_lines(prefix, mapping.items(), indent="    ")
            or [f"    {prefix}: zero"])


def _render_solve(payload: dict) -> List[str]:
    solution = payload["solution"]
    lines = _render_header(payload)
    lines.append(f"suite: {payload['suite']}; "
                 f"unknowns: {solution['unknowns']}; "
                 f"equations: {solution['equations']}")
    if not solution["consistent"]:
        lines.append("inconsistent system: " + solution["certificate_row"])
        lines.append("verdict: no multiplier in this family")
        return lines
    lines.append(f"solution space dimension: {solution['dimension']}")
    for k, vector in enumerate(solution["nullspace"], start=1):
        lines.append(f"  basis vector {k}:")
        lines += _render_entry_map("g", vector["g"])
        if vector.get("omega"):
            lines += _render_entry_map("omega", vector["omega"])
    if solution["particular"] is not None \
            and any(value != "0" for value in solution["particular"]):
        lines.append("  inhomogeneous part: "
                     + ", ".join(solution["particular"]))
    if solution["forced_zero"]:
        lines.append("entries forced to zero across the whole space: "
                     + ", ".join(solution["forced_zero"]))
    rep = solution["representative"]
    if rep is not None:
        lines.append(f"nonsingular representative "
                     f"(coefficient bound {solution['bound']}):")
        lines += _entry_lines("g", _nonzero(rep["g"]))
        if rep.get("omega"):
            lines += _entry_lines("omega", _nonzero(rep["omega"]))
        lines.append(f"  det = {rep['det']}")
        lines += _render_report("representative re-check",
                                payload["representative_report"])
        lines += _render_numeric(payload)
        lines.append("verdict: found")
    elif solution["definitive_negative"]:
        lines.append("verdict: structurally singular family; no "
                     "nonsingular multiplier exists in it")
    else:
        lines.append(f"verdict: search exhausted up to coefficient bound "
                     f"{solution['bound']} without a nonsingular member")
    return lines


def _render_certificate(cert: dict) -> List[str]:
    lines = [f"certificate kind: {cert['kind']}", f"  L = {cert['L']}"]
    if cert["D"] is not None:
        lines.append(f"  D = {cert['D']}")
    if cert["omega"] is not None:
        lines += (_entry_lines("omega", _nonzero(cert["omega"]))
                  or ["  omega = 0"])
    gauge = cert.get("gauge")
    if gauge is not None:
        pieces = []
        if any(e != "0" for e in gauge["lagrangian_linear"]):
            pieces.append("velocity-linear Lagrangian term ("
                          + ", ".join(gauge["lagrangian_linear"]) + ")")
        if gauge["lagrangian_scalar"] != "0":
            pieces.append(f"scalar Lagrangian term "
                          f"{gauge['lagrangian_scalar']}")
        if any(e != "0" for e in gauge["dissipation_linear"]):
            pieces.append("velocity-linear dissipation term ("
                          + ", ".join(gauge["dissipation_linear"]) + ")")
        if pieces:
            lines.append(f"  gauge (base point {gauge['base_point']}): "
                         + "; ".join(pieces))
    return lines


def _render_reconstruct(payload: dict) -> List[str]:
    lines = _render_header(payload)
    lines.append(f"route: {payload['route']}")
    if "multiplier_report" in payload:
        lines += _render_report("multiplier check",
                                payload["multiplier_report"])
        lines += _render_numeric(payload)
        lines.append("verdict: multiplier fails its conditions; nothing "
                     "to reconstruct")
        return lines
    lines += _render_certificate(payload["certificate"])
    lines += _render_report("verification", payload["verify"])
    lines += _render_numeric(payload)
    if "out" in payload:
        lines.append(f"certificate written to {payload['out']}")
    lines.append(_verdict(payload))
    return lines


def _render_checked(payload: dict) -> List[str]:
    """``check`` and ``verify``: one report, and ``verify --forward``'s
    rebuilt accelerations and their cells."""
    lines = _render_header(payload)
    lines += _render_report("report", payload["report"])
    forward = payload.get("forward")
    if forward is not None:
        lines.append("rebuilt accelerations:")
        lines += _entry_lines("f", ((i, _short(expr)) for i, expr in
                                    enumerate(forward["rebuilt_f"], start=1)))
        lines += _render_report("forward diff",
                                {"suite": payload["suite"],
                                 "cells": forward["cells"],
                                 "notes": ()})
    lines += _render_numeric(payload)
    lines.append(_verdict(payload))
    return lines


def render_text(payload: dict) -> str:
    _run, render = _COMMANDS[payload["command"]]
    return "\n".join(render(payload))


# --------------------------------------------------------------------------
# entry point


def _parse_overrides(pairs: Optional[Sequence[str]]) -> Dict[str, Fraction]:
    overrides: Dict[str, Fraction] = {}
    for pair in pairs or ():
        name, equals, value = pair.partition("=")
        if not equals or not name:
            raise CliError(f"--instantiate expects NAME=P/Q, got {pair!r}")
        try:
            overrides[name] = _rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"--instantiate {pair!r}: {exc}") from exc
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlag",
        description="Exact inverse-problem toolkit for second-order "
                    "systems with dissipative or gyroscopic forcing.")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("file", help="problem file (JSON), or the name "
                                      "of a bundled fixture")
        sub.add_argument("--format", choices=("text", "json"), default=None,
                         help="report format (default: file option or text)")
        sub.add_argument("--instantiate", action="append", metavar="NAME=P/Q",
                         help="substitute a rational value for a declared "
                              "parameter (repeatable)")

    common(commands.add_parser(
        "analyze", help="print connection, Jacobi endomorphism, curvature "
                        "and vertical connection derivative"))

    check = commands.add_parser(
        "check", help="run one condition suite and report every cell")
    common(check)
    check.add_argument("--suite", required=True, choices=CHECK_SUITES)

    solve = commands.add_parser(
        "solve", help="search the declared ansatz family for a "
                      "nonsingular multiplier")
    common(solve)
    solve.add_argument("--bound", type=int, default=None,
                       help="coefficient bound for the representative "
                            "search (default: ansatz section, else 2)")

    reconstruct = commands.add_parser(
        "reconstruct", help="integrate a valid multiplier into a "
                            "certified Lagrangian representation")
    common(reconstruct)
    reconstruct.add_argument("--suite", default="dissipative",
                             choices=sorted(name for name, suite in
                                            SUITES.items() if suite.route),
                             help="which representation to build "
                                  "(default: dissipative)")
    reconstruct.add_argument("--out", default=None, metavar="FILE",
                             help="also write the certificate as JSON")

    verify = commands.add_parser(
        "verify", help="check a Lagrangian certificate against the system")
    common(verify)
    verify.add_argument("--suite", default=None,
                        choices=("dissipative", "gyroscopic"),
                        help="certificate type (default: gyroscopic when "
                             "the file has omega, else dissipative)")
    verify.add_argument("--forward", action="store_true",
                        help="also rebuild the accelerations from the "
                             "certificate and diff against the file")
    return parser


_PARSER = build_parser()

#: each command's name -> the function that runs it, its text renderer
_COMMANDS = {
    "analyze": (cmd_analyze, _render_analyze),
    "check": (cmd_check, _render_checked),
    "solve": (cmd_solve, _render_solve),
    "reconstruct": (cmd_reconstruct, _render_reconstruct),
    "verify": (cmd_verify, _render_checked),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    where = ""  # the problem file, once the flags and INVLAG_SEED pass
    try:
        overrides = _parse_overrides(args.instantiate)
        if (getattr(args, "bound", None) or 0) < 0:
            raise CliError("--bound must be a nonnegative integer, got "
                           f"{args.bound}")
        _seed()
        path = resolve_input(args.file)
        where = f"{path}: "
        problem = load_problem(path, overrides)
        run, _render = _COMMANDS[args.command]
        payload, code = run(problem, args)
    except (CliError, GeometryError, LimitError) as exc:
        print(f"invlag: error: {where}{exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the problem file unreadable, --out unwritable
        print(f"invlag: error: {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    payload["exit_code"] = code
    fmt = args.format or problem.options.get("format") or "text"
    try:
        if fmt == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(render_text(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone. Point stdout at the null device, so that
        # the interpreter's final flush does not fail once more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
