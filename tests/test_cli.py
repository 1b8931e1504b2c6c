"""End-to-end tests for the invlag command line.

Each test drives ``invlag.cli.main`` in process with its output
captured (``clirun.run_cli``) and inspects exit codes plus the text or
JSON reports. A few tests start ``python -m invlag.cli`` in a
subprocess, the way a user would, and check that the real entry point
prints the same bytes and exits with the same code as the in-process
call. The bundled fixture files double as the test corpus; a few
deliberately broken documents are written to tmp_path.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import product

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.rings import PolyElement

import invlag
from invlag import (cli, conditions, exprcore, geometry, poly, reconstruct,
                    solver)
from invlag.exprcore import ExprContext
from invlag.reconstruct import forward_accelerations

import oracles
from cli_cases import RARE_VERDICTS, REFUSALS, prepare
from clirun import run_cli, run_json
from exprgen import random_expr


@lru_cache(maxsize=None)
def schema_validator():
    text = (resources.files("invlag") / "report_schema.json").read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


def assert_valid_report(payload):
    errors = list(schema_validator().iter_errors(payload))
    assert not errors, errors[0].message


def _child_env():
    """The environment of a child interpreter that imports the same tree
    as this process, without ``INVLAG_SEED``."""
    env = dict(os.environ)
    env.pop("INVLAG_SEED", None)
    package_parent = os.path.dirname(os.path.dirname(invlag.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_parent, env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize("args, code", [
    (("check", "planar_drag", "--suite", "dissipative"), 0),
    (("check", "planar_drag_euclidean", "--suite", "classical"), 1),
    (("analyze", "planar_drag_implicit"), 2),
    (("check", "free2"), 2),
    (("solve", "chain4", "--format", "json"), 3),
])
def test_module_entry_point_matches_in_process_call(args, code):
    done = subprocess.run([sys.executable, "-m", "invlag.cli", *args],
                          capture_output=True, text=True, check=False,
                          timeout=120, env=_child_env())
    assert done.returncode == code
    assert (done.returncode, done.stdout, done.stderr) == tuple(run_cli(*args))


def test_analyze_prints_drag_geometry_exactly():
    result = run_cli("analyze", "planar_drag")
    assert result.returncode == 0
    assert "Gamma[1,1] = 1/2*omega" in result.stdout
    assert "Gamma[2,2] = -1/2*omega" in result.stdout
    assert "Phi[1,1] = a - 1/4*omega^2" in result.stdout
    assert "Phi[1,2] = b" in result.stdout
    assert "Phi[2,1] = -b" in result.stdout
    assert "(all R entries are zero)" in result.stdout
    assert "(all theta entries are zero)" in result.stdout


def test_analyze_json_free_particle_all_zero():
    result, payload = run_json("analyze", "free2")
    assert result.returncode == 0
    assert_valid_report(payload)
    objects = payload["objects"]
    assert all(v == "0" for row in objects["Gamma"] for v in row)
    assert all(v == "0" for row in objects["Phi"] for v in row)
    assert all(v == "0" for m in objects["R"] for row in m for v in row)
    assert all(v == "0" for m in objects["theta"] for row in m for v in row)


def _moving_mass(tmp_path) -> pathlib.Path:
    """An n = 3 problem file whose kinetic energy depends on q1 and q3,
    so every denominator of its geometry is a power of the kinetic
    determinant, a polynomial that is not a monomial."""
    ctx = ExprContext(3)
    L = ctx.parse("1/2*(6 + q1^2)*v1^2 + v1*v2 - v1*v3 + 1/2*(4 + q3^2)*v2^2"
                  " + 5/2*v3^2 - 2/3*q1^2 + q1^2*q3")
    D = ctx.parse("1/2*q3*v1*v3 - 1/3*q1*v1^2*v2 + 1/2*v1*v2^2 - 2*v3")
    path = tmp_path / "moving_mass.json"
    path.write_text(json.dumps(
        {"n": 3, "f": [str(e) for e in forward_accelerations(L, D)]}))
    return path


# Runs in a fresh interpreter: which modules each step leaves loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import invlag.cli
steps = [["import", None, "sympy" in sys.modules]]
outputs = {}
for args in (["analyze", "planar_drag"], ["solve", "coupled3"],
             ["reconstruct", "coupled3"], ["analyze", sys.argv[1]],
             ["analyze", sys.argv[1], "--format", "json"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = invlag.cli.main(args)
    steps.append([" ".join(args[:2]), code, "sympy" in sys.modules])
    outputs[" ".join(args)] = out.getvalue()
print(json.dumps([steps, outputs]))
"""


def test_sympy_is_imported_only_to_factor_a_non_monomial(tmp_path):
    """``import invlag.cli`` loads no sympy, and neither do calls whose
    denominators are monomials nor ``analyze`` of a position-dependent
    kinetic energy, whose kinetic determinant is not a monomial but is
    certified irreducible in-house; the output is the one kept in
    ``tests/golden`` (the file's path written ``<file>``)."""
    path = _moving_mass(tmp_path)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(path)],
                          capture_output=True, text=True, check=True,
                          timeout=120, env=_child_env())
    steps, outputs = json.loads(done.stdout)
    assert steps == [["import", None, False],
                     ["analyze planar_drag", 0, False],
                     ["solve coupled3", 0, False],
                     ["reconstruct coupled3", 0, False],
                     [f"analyze {path}", 0, False],
                     [f"analyze {path}", 0, False]]
    for fmt, suffix in (("", "txt"), (" --format json", "json")):
        expected = (GOLDEN / f"analyze_moving_mass.{suffix}").read_text()
        assert outputs[f"analyze {path}{fmt}"].replace(str(path), "<file>") \
            == expected


# Runs in a fresh interpreter: which of the modules a command may need
# are loaded after ``import invlag``, ``import invlag.cli`` and each call.
_LAZY_PROBE = """
import contextlib, io, json, sys
WATCHED = ("invlag.solver", "invlag.reconstruct", "invlag.numeric",
           "dataclasses", "inspect")
before = set(sys.modules)
def new(names):
    return sorted(name for name in names
                  if name in sys.modules and name not in before)
import invlag
steps = [["import invlag", new(n for n in sys.modules
                               if n.startswith("invlag."))]]
import invlag.cli
steps.append(["import invlag.cli", new(WATCHED)])
for args in (["analyze", "planar_drag"],
             ["check", "planar_drag", "--suite", "dissipative"],
             ["solve", "coupled3"], ["reconstruct", "coupled3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        invlag.cli.main(args)
    steps.append([args[0], new(WATCHED)])
print(json.dumps(steps))
"""


def test_each_command_loads_only_the_modules_it_runs():
    """``import invlag`` loads no submodule; ``import invlag.cli`` loads
    neither ``dataclasses`` nor ``inspect`` nor the modules of the
    search, the reconstruction and the cross-check; each command loads
    those it runs on first use."""
    done = subprocess.run([sys.executable, "-c", _LAZY_PROBE],
                          capture_output=True, text=True, check=True,
                          timeout=120, env=_child_env())
    numeric, solver = "invlag.numeric", "invlag.solver"
    assert json.loads(done.stdout) == [
        ["import invlag", []],
        ["import invlag.cli", []],
        ["analyze", []],
        ["check", [numeric]],
        ["solve", [numeric, solver]],
        ["reconstruct", [numeric, "invlag.reconstruct", solver]]]


def test_package_exports_are_the_submodules_objects():
    """Every name of ``__all__`` resolves, by attribute or by a star
    import, to the object its submodule defines; ``dir`` lists them,
    and an unknown name raises ``AttributeError``."""
    namespace = {}
    exec("from invlag import *", namespace)
    for name in invlag.__all__:
        value = getattr(invlag, name)
        assert namespace[name] is value
        assert getattr(sys.modules[value.__module__], name) is value
        assert value.__module__.startswith("invlag.")
    assert set(invlag.__all__) <= set(dir(invlag))
    assert invlag.solver is solver
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        invlag.nope


def test_analyze_position_dependent_kinetic_energy_needs_no_gcd(
        tmp_path, monkeypatch):
    """Every denominator of the geometry is a power of the kinetic
    determinant, which the factor base factors once, in-house: its
    irreducibility is certified without sympy, so ``analyze`` makes no
    sympy factorisation and converts nothing into sympy (every
    polynomial handed to sympy is converted first)."""
    path = _moving_mass(tmp_path)
    factored, converted = [], []

    def counting(calls, original):
        def wrapper(*args):
            calls.append(args[0])
            return original(*args)
        return wrapper

    # a fresh factor base, as in a new process
    monkeypatch.setattr(exprcore, "_RING_CACHE", {})
    monkeypatch.setattr(PolyElement, "factor_list",
                        counting(factored, PolyElement.factor_list))
    monkeypatch.setattr(poly, "_to_sympy", counting(converted, poly._to_sympy))
    result = run_cli("analyze", str(path))
    assert result.returncode == 0
    assert ")/(q1^2*q3^2 + 4*q1^2 + 29/5*q3^2 + 111/5)" in result.stdout
    assert factored == []
    assert converted == []


def test_analyze_requires_explicit_mode():
    result = run_cli("analyze", "planar_drag_implicit")
    assert result.returncode == 2
    assert "explicit" in result.stderr


def test_check_dissipative_passes_on_drag_fixture():
    result = run_cli("check", "planar_drag", "--suite", "dissipative")
    assert result.returncode == 0
    assert "verdict: pass" in result.stdout


def test_check_classical_flags_phi_symmetry():
    result, payload = run_json("check", "planar_drag_euclidean",
                               "--suite", "classical")
    assert result.returncode == 1
    assert_valid_report(payload)
    cells = {cell["label"]: cell for cell in payload["report"]["cells"]}
    assert not cells["PhiSym[1,2]"]["passes"]
    assert cells["PhiSym[1,2]"]["residual"] == "2*b"


def test_a_multiplier_with_a_pole_at_every_sample_value_is_cross_checked(
        tmp_path):
    """``g[1,1] = 1/P``, where ``P`` vanishes at each of the 51 values the
    sampler draws first: the cross-check widens its range and agrees."""
    values = sorted({Fraction(a, b) for a in range(-9, 10)
                     for b in range(1, 5)})
    poles = "*".join(f"(q1 - ({value}))" for value in values)
    path = tmp_path / "poles.json"
    path.write_text(json.dumps({"n": 2, "f": ["0", "0"],
                                "g": [[f"1/({poles})", "0"], ["0", "1"]]}))
    result = run_cli("check", str(path), "--suite", "classical")
    assert result.returncode == 1
    assert result.stdout.endswith(
        "cells): agrees with the symbolic verdicts\nverdict: FAIL\n")


def test_tensor_walks_follow_an_explicit_index_loop():
    """At n = 11, so that two-digit indices occur: the nested texts, the
    nonzero pairs and the entry map come in the order of an explicit
    i-major loop, and ``keep`` drops exactly the entries it refuses."""
    n = 11
    ctx = ExprContext(n)
    matrix = geometry.TensorField(ctx, (0, 2), {  # stored last row first
        (i, j): ctx.const(Fraction(i * j, 7)) for i in range(n, 0, -1)
        for j in range(1, n + 1) if (i + j) % 3}, sym=((1, 2),))
    cube = geometry.TensorField(ctx, (1, 2), {
        (a, b, c): ctx.var(ctx.q(a)) * (b - c) for a in range(1, n + 1)
        for b in range(1, n + 1) for c in range(1, n + 1) if (a + b * c) % 4})
    indices = range(1, n + 1)
    rows = [[str(matrix.entry(i, j)) for j in indices] for i in indices]
    assert cli._strings(matrix) == rows
    assert cli._nonzero(rows) == [(f"{i},{j}", rows[i - 1][j - 1])
                                  for i in indices for j in indices
                                  if rows[i - 1][j - 1] != "0"]
    assert list(cli._entry_map(matrix).items()) == [
        (f"{i},{j}", rows[i - 1][j - 1]) for i in indices
        for j in range(i, n + 1) if rows[i - 1][j - 1] != "0"]
    texts = cli._strings(cube)
    assert texts == [[[str(cube.entry(a, b, c)) for c in indices]
                      for b in indices] for a in indices]
    every = [(f"{a},{b},{c}", texts[a - 1][b - 1][c - 1]) for a in indices
             for b in indices for c in indices
             if texts[a - 1][b - 1][c - 1] != "0"]
    assert cli._nonzero(texts) == every
    for keep in (lambda idx: idx[1] < idx[2], lambda idx: sum(idx) % 2):
        assert cli._nonzero(texts, keep) == [
            (label, text) for label, text in every
            if keep(tuple(map(int, label.split(","))))]
    assert len(cli._nonzero(texts, lambda idx: idx[1] < idx[2])) < len(every)


def test_check_text_and_json_agree_cell_by_cell():
    text = run_cli("check", "coupled3", "--suite", "rayleigh")
    result, payload = run_json("check", "coupled3", "--suite", "rayleigh")
    assert text.returncode == result.returncode == 1
    for cell in payload["report"]["cells"]:
        flag = "pass" if cell["passes"] else "FAIL"
        assert f"{flag}  {cell['label']}" in text.stdout


def test_check_implicit_suite_on_implicit_fixture():
    result = run_cli("check", "planar_drag_implicit", "--suite", "implicit")
    assert result.returncode == 0
    result = run_cli("check", "planar_drag", "--suite", "implicit")
    assert result.returncode == 2


def test_check_requires_candidate_section():
    result = run_cli("check", "chain4_gyro", "--suite", "classical")
    assert result.returncode == 2
    assert "'g'" in result.stderr


def test_check_thm4_verdicts_across_drag_multipliers():
    assert run_cli("check", "planar_drag", "--suite", "thm4").returncode == 0
    assert run_cli("check", "planar_drag_indefinite",
                   "--suite", "thm4").returncode == 1
    assert run_cli("check", "planar_drag_euclidean",
                   "--suite", "thm4").returncode == 1


def test_solve_reports_the_unique_diagonal_multiplier():
    result, payload = run_json("solve", "coupled3")
    assert result.returncode == 0
    assert_valid_report(payload)
    solution = payload["solution"]
    assert solution["dimension"] == 1
    assert solution["nullspace"][0]["g"] == {
        "1,1": "4", "2,2": "1", "3,3": "2*q2"}
    rep = solution["representative"]
    assert rep["det"] == "8*q2"
    assert payload["representative_report"]["passed"]


def test_solve_builds_one_determinant_per_candidate(monkeypatch):
    """The representative's report carries the record of the screen's
    determinant instead of building it again. ``solver.instantiate`` is
    called once per candidate of ``find_nonsingular`` and once per
    nullspace vector of the payload, which ``cmd_solve`` reads from
    ``solver`` at call time."""
    det_calls = []
    candidates = []

    def counting(original, calls):
        def wrapper(*args):
            calls.append(args)
            return original(*args)
        return wrapper

    for module in (geometry, conditions):
        monkeypatch.setattr(module, "matrix_det",
                            counting(module.matrix_det, det_calls))
    monkeypatch.setattr(solver, "instantiate",
                        counting(solver.instantiate, candidates))
    result, payload = run_json("solve", "coupled3")
    assert result.returncode == 0
    searched = len(candidates) - len(payload["solution"]["nullspace"])
    assert searched > 0 and len(det_calls) == searched
    assert payload["solution"]["representative"]["det"] == "8*q2"
    record = payload["representative_report"]["nonsingularity"]
    assert record["determinant"] == "8*q2"


def test_solve_structural_negative_names_dead_entries():
    result, payload = run_json("solve", "chain4")
    assert result.returncode == 3
    assert_valid_report(payload)
    solution = payload["solution"]
    assert solution["definitive_negative"]
    assert solution["representative"] is None
    forced = set(solution["forced_zero"])
    assert {"g[1,3]", "g[2,3]", "g[3,3]", "g[3,4]"} <= forced


@pytest.mark.parametrize("value", ["1/2", "-1/3", "3/4"])
def test_solve_gyroscopic_negative_survives_instantiation(value):
    result = run_cli("solve", "chain4_gyro", "--instantiate", f"b={value}")
    assert result.returncode == 3


def test_solve_empty_family_is_definitively_negative(tmp_path):
    problem = {
        "n": 2,
        "parameters": ["a", "b", "omega"],
        "f": ["-a*q1 - b*q2 - omega*v1", "b*q1 - a*q2 + omega*v2"],
        "ansatz": {"suite": "thm3", "g": {"entries": {}}, "bound": 1},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(problem))
    result = run_cli("solve", str(path))
    assert result.returncode == 3


@pytest.mark.parametrize("entries, override, message", [
    ({"1,1": ["0"], "2,2": ["1"]}, [],
     "multiplier entry 1,1: basis function 1"),
    ({"1,1": ["1", "b*q1"], "2,2": ["1"]}, ["--instantiate", "b=0"],
     "multiplier entry 1,1: basis function 2"),
])
def test_solve_refuses_a_zero_basis_function(tmp_path, entries, override,
                                             message):
    """A basis function that is zero, as written or once a parameter is
    instantiated, is refused with the usage code instead of ending in a
    search over a space whose direction has a zero multiplier."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "n": 2, "parameters": ["b"], "f": ["0", "0"],
        "ansatz": {"suite": "thm3", "g": {"entries": entries}}}))
    result = run_cli("solve", str(path), *override)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (f"invlag: error: {path}: ansatz: {message} is "
                             "zero, so its coefficient is undetermined\n")
    if override:
        assert run_cli("solve", str(path), "--instantiate",
                       "b=1").returncode == 0


def test_solve_bound_zero_exhausts_inconclusively():
    result, payload = run_json("solve", "planar_drag", "--bound", "0")
    assert result.returncode == 4
    assert_valid_report(payload)
    assert payload["solution"]["exhausted"]
    assert not payload["solution"]["definitive_negative"]


def test_solve_rejects_negative_bound():
    result = run_cli("solve", "coupled3", "--bound", "-1", "--format", "json")
    assert result == (2, "", "invlag: error: --bound must be a nonnegative "
                             "integer, got -1\n")


def test_solve_rejects_velocity_dependent_fixed_two_form(tmp_path):
    problem = {
        "n": 2,
        "f": ["v2", "-v1"],
        "omega": [["0", "v1"], ["-v1", "0"]],
        "ansatz": {"suite": "gyroscopic", "g": {"preset": "constant"}},
    }
    path = tmp_path / "velocity_omega.json"
    path.write_text(json.dumps(problem))
    result = run_cli("solve", str(path))
    assert result == (2, "", f"invlag: error: {path}: two-form entry (1, 2) "
                             "depends on velocities\n")


def test_solve_joint_two_form_search(tmp_path):
    problem = {
        "n": 2,
        "parameters": ["a", "b", "omega"],
        "f": ["-a*q1 - b*q2 - omega*v1", "b*q1 - a*q2 + omega*v2"],
        "ansatz": {
            "suite": "gyroscopic",
            "g": {"preset": "constant"},
            "omega": {"entries": {"1,2": ["1", "q1", "q2"]}},
            "bound": 1,
        },
    }
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(problem))
    result, payload = run_json("solve", str(path))
    assert result.returncode == 0
    assert_valid_report(payload)
    assert payload["representative_report"]["passed"]


def test_reconstruct_coupled_certificate_values():
    result, payload = run_json("reconstruct", "coupled3")
    assert result.returncode == 0
    assert_valid_report(payload)
    cert = payload["certificate"]
    assert cert["kind"] == "dissipative"
    ctx = ExprContext(3)
    assert ctx.parse(cert["L"]) == ctx.parse(
        "1/2*(4*v1^2 + v2^2 + 2*q2*v3^2)")
    assert ctx.parse(cert["D"]) == ctx.parse("2*q2*v1^2*v3")
    assert payload["verify"]["passed"]


def test_reconstruct_gyroscopic_route_recovers_two_form():
    result, payload = run_json("reconstruct", "planar_drag",
                               "--suite", "gyroscopic")
    assert result.returncode == 0
    assert_valid_report(payload)
    cert = payload["certificate"]
    assert cert["kind"] == "gyroscopic"
    assert cert["omega"][0][1] == "omega"
    assert cert["D"] is None
    ctx = ExprContext(2, parameters=("a", "b", "omega"))
    assert ctx.parse(cert["L"]) == ctx.parse(
        "v1*v2 - a*q1*q2 - 1/2*b*(q2^2 - q1^2)")


def test_reconstruct_free_particle_is_classical():
    result, payload = run_json("reconstruct", "free2")
    assert result.returncode == 0
    cert = payload["certificate"]
    assert cert["kind"] == "classical"
    assert cert["D"] == "0"
    ctx = ExprContext(2)
    assert ctx.parse(cert["L"]) == ctx.parse("1/2*(v1^2 + v2^2)")


def test_reconstruct_rejects_failing_multiplier(tmp_path):
    problem = {"n": 2, "f": ["0", "0"],
               "g": [["1", "0"], ["0", "q1 + 1"]]}
    path = tmp_path / "badmult.json"
    path.write_text(json.dumps(problem))
    result, payload = run_json("reconstruct", str(path))
    assert result.returncode == 1
    assert_valid_report(payload)
    assert not payload["multiplier_report"]["passed"]
    assert "certificate" not in payload


@pytest.mark.parametrize("diagonal, suite", [
    (("0", "0"), "thm3"), (("1", "0"), "thm3"), (("1", "0"), "gyroscopic")])
def test_reconstruct_refuses_a_singular_multiplier(tmp_path, diagonal, suite):
    """A multiplier that passes its existence conditions but whose
    determinant is identically zero would give a degenerate Lagrangian:
    nothing is certified, and the existence report is printed."""
    problem = {"n": 2, "f": ["0", "0"],
               "g": [[diagonal[0], "0"], ["0", diagonal[1]]]}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(problem))
    result = run_cli("reconstruct", str(path), "--suite", suite)
    assert result.returncode == 1
    assert result.stdout.splitlines()[-1] == (
        "verdict: multiplier fails its conditions; nothing to reconstruct")
    result, payload = run_json("reconstruct", str(path), "--suite", suite)
    assert result.returncode == 1
    assert_valid_report(payload)
    assert payload["multiplier_report"]["passed"]
    assert not payload["multiplier_report"]["nonsingularity"]["nonsingular"]
    assert "certificate" not in payload


def test_verify_fails_a_lagrangian_with_a_singular_hessian(tmp_path):
    problem = {"n": 2, "f": ["0", "0"], "L": "1/2*v1^2"}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(problem))
    result = run_cli("verify", str(path))
    assert result.returncode == 1
    assert result.stdout.splitlines()[-1] == "verdict: FAIL"
    result, payload = run_json("verify", str(path))
    assert result.returncode == 1
    assert payload["report"]["passed"]
    assert not payload["report"]["nonsingularity"]["nonsingular"]


def _determinants(monkeypatch, *args):
    """The exit code of ``invlag *args`` and the number of ``matrix_det``
    calls it makes, counted through the bindings of ``geometry`` and
    ``conditions``."""
    calls = []
    original = geometry.matrix_det

    def counting(g):
        calls.append(g)
        return original(g)

    for module in (geometry, conditions):
        monkeypatch.setattr(module, "matrix_det", counting)
    return run_cli(*args).returncode, len(calls)


@pytest.mark.parametrize("args", [
    ("reconstruct", "coupled3"),
    ("reconstruct", "planar_drag_gyro", "--suite", "gyroscopic"),
    ("verify", "planar_drag_gyro")])
def test_a_passing_certificate_builds_one_determinant(args, monkeypatch):
    """The nonsingularity verdict and the printed record are one lazy
    record of the verification report, so one determinant is built."""
    assert _determinants(monkeypatch, *args) == (0, 1)


@pytest.mark.parametrize("diagonal, suite", [
    (("0", "0"), "thm3"), (("1", "0"), "gyroscopic")])
def test_a_refused_singular_multiplier_builds_one_determinant(
        tmp_path, monkeypatch, diagonal, suite):
    """The existence report printed with the refusal shares the
    verification report's record, which decided the refusal."""
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"n": 2, "f": ["0", "0"], "g": [
        [diagonal[0], "0"], ["0", diagonal[1]]]}))
    assert _determinants(monkeypatch, "reconstruct", str(path),
                         "--suite", suite) == (1, 1)


@pytest.mark.parametrize("fixture", ["planar_drag", "coupled3"])
def test_the_forward_solve_builds_no_determinant(fixture, monkeypatch):
    """``verify --forward`` at n = 2 and n = 3 builds the one determinant
    of the nonsingularity record: the solve for the accelerations takes
    a characteristic polynomial, not n + 1 determinants."""
    assert _determinants(monkeypatch, "verify", fixture,
                         "--forward") == (0, 1)


def _suite_work(monkeypatch, *args):
    """The exit code of ``invlag *args`` and how often it builds the
    curvature, builds the Jacobi endomorphism and runs the dissipative
    existence check, counted through the bindings that ``geometry`` and
    ``reconstruct`` read."""
    calls = {}
    for module, name in ((geometry, "_curvature"), (geometry, "_jacobi"),
                         (reconstruct, "check_multiplier_dissipative")):
        def counting(*args, _original=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return run_cli(*args).returncode, calls


@pytest.mark.parametrize("fixture", ["coupled3", "free2"])
def test_a_certified_multiplier_runs_no_existence_suite(fixture,
                                                        monkeypatch):
    """A certificate that verifies with ``g`` as its nonsingular velocity
    Hessian proves the existence conditions, so the dissipative route
    builds neither the curvature nor the Jacobi endomorphism and runs
    no ``thm3`` check."""
    assert _suite_work(monkeypatch, "reconstruct", fixture) == (0, {})


def test_a_failing_multiplier_runs_the_existence_suite_once(tmp_path,
                                                            monkeypatch):
    """A refusal is explained by one ``thm3`` report, which fails."""
    path = tmp_path / "badmult.json"
    path.write_text(json.dumps({"n": 2, "f": ["0", "0"], "g": [
        ["1", "0"], ["0", "q1 + 1"]]}))
    code, calls = _suite_work(monkeypatch, "reconstruct", str(path))
    assert (code, calls["check_multiplier_dissipative"]) == (1, 1)


def _printing(monkeypatch, *args):
    """The exit code of ``invlag *args``, its number of printer calls
    (``exprcore.to_text``, which ``str`` of an expression reads) and
    the packed monomials those calls unpack, in order."""
    calls, unpacked, printing = [], [], []
    original, unpack = exprcore.to_text, poly.PolyRing.unpack

    def counting(expr):
        calls.append(expr)
        printing.append(expr)
        try:
            return original(expr)
        finally:
            printing.pop()

    def recording(ring, keys):
        if printing:
            keys = list(keys)
            unpacked.extend(keys)
        return unpack(ring, keys)

    monkeypatch.setattr(exprcore, "to_text", counting)
    monkeypatch.setattr(poly.PolyRing, "unpack", recording)
    return run_cli(*args).returncode, len(calls), unpacked


@pytest.mark.parametrize("problem", ["coupled3", "dense4"])
def test_analyze_prints_each_orbit_once(problem, monkeypatch):
    """``analyze`` prints each nonzero entry of Gamma and Phi, each
    nonzero curvature entry ``R[i,j,k]`` with ``j < k`` and each nonzero
    ``theta[i,j,k]`` with ``j <= k`` once, the rest of each orbit being
    copied or negated, and unpacks each distinct monomial at most once.
    The counts are read off the JSON report of an uncounted run."""
    path = (problem if problem == "coupled3"
            else str(pathlib.Path(__file__).parent / "problems"
                     / f"{problem}.json"))
    objects = run_json("analyze", path)[1]["objects"]
    n = len(objects["Gamma"])
    indices = range(n)
    expected = sum(objects[name][i][j] != "0" for name in ("Gamma", "Phi")
                   for i in indices for j in indices)
    expected += sum(objects[name][i][j][k] != "0" and keep(j, k)
                    for name, keep in (("R", int.__lt__), ("theta", int.__le__))
                    for i in indices for j in indices for k in indices)
    if problem == "dense4":  # every entry of Gamma and Phi is printed
        assert all("0" not in row for name in ("Gamma", "Phi")
                   for row in objects[name])
    code, calls, unpacked = _printing(monkeypatch, "analyze", path)
    assert (code, calls) == (0, expected)
    assert unpacked and len(unpacked) == len(set(unpacked))


_ORBIT_CTXS = (ExprContext(2), ExprContext(3, parameters=("a", "b")))


@st.composite
def _symmetric_tensor(draw):
    """A rank-2 or rank-3 ``TensorField`` at n = 2 or 3 with one declared
    ``sym`` or ``antisym`` pair, its entries random trees (polynomial,
    rational, with parameters, some with large coefficients) or zero."""
    ctx = draw(st.sampled_from(_ORBIT_CTXS))
    rank = draw(st.sampled_from((2, 3)))
    pair = draw(st.sampled_from(((1, 2), (1, 3), (2, 3))
                                if rank == 3 else ((1, 2),)))
    negated = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a, b = pair[0] - 1, pair[1] - 1
    entries = {}
    for idx in product(range(1, ctx.n + 1), repeat=rank):
        if idx[a] > idx[b]:
            swapped = list(idx)
            swapped[a], swapped[b] = idx[b], idx[a]
            value = entries.get(tuple(swapped), ctx.zero)
            entries[idx] = -value if negated else value
        elif (negated and idx[a] == idx[b]) or rng.random() < 0.2:
            entries[idx] = ctx.zero
        else:
            value = random_expr(ctx, rng, depth=2)
            if rng.random() < 0.2:
                value = value * ctx.const(Fraction(-(10**30 + 7), 3**40))
            entries[idx] = value
    shape = (1, rank - 1) if rng.random() < 0.5 else (0, rank)
    return geometry.TensorField(ctx, shape, entries,
                                **{"antisym" if negated else "sym": (pair,)})


@settings(max_examples=80, deadline=None)
@given(t=_symmetric_tensor())
def test_strings_print_each_orbit_as_the_entry_by_entry_oracle(t):
    """``_strings`` prints each orbit of a symmetric or antisymmetric
    pair once and copies or negates that text for the partner; the texts
    equal those printed entry by entry (``oracles.strings``)."""
    assert cli._strings(t) == oracles.strings(t)


def test_reconstruct_reports_non_polynomial_base_form(tmp_path):
    # the forward system of 1/2*v1^2 + 1/2*v2^2 - 1/(1+q1^2): the
    # gyroscopic route's base homotopy needs polynomial position dependence
    problem = {
        "n": 2,
        "f": ["(2*q1)/(q1^4 + 2*q1^2 + 1)", "0"],
        "g": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "rational_potential.json"
    path.write_text(json.dumps(problem))
    result = run_cli("reconstruct", str(path), "--suite", "gyroscopic")
    assert result == (2, "", f"invlag: error: {path}: NotPolynomialError: "
                             "base homotopy needs polynomial dependence on "
                             "the positions\n")


def test_reconstruct_writes_certificate_file(tmp_path):
    out = tmp_path / "cert.json"
    result = run_cli("reconstruct", "coupled3", "--out", str(out))
    assert result.returncode == 0
    document = json.loads(out.read_text())
    assert document["verified"] is True
    assert document["kind"] == "dissipative"
    assert document["route"] == "dissipative"
    ctx = ExprContext(3)
    assert ctx.parse(document["D"]) == ctx.parse("2*q2*v1^2*v3")


def test_verify_certificates_pass_and_forward_round_trips():
    for fixture in ("planar_drag_indefinite", "planar_drag_euclidean"):
        result, payload = run_json("verify", fixture, "--forward")
        assert result.returncode == 0
        assert_valid_report(payload)
        assert payload["report"]["passed"]
        assert all(cell["passes"] for cell in payload["forward"]["cells"])
    result = run_cli("verify", "planar_drag_gyro")
    assert result.returncode == 0


def test_verify_detects_sign_flip_in_two_form(tmp_path):
    fixture = resources.files("invlag") / "fixtures" / "planar_drag_gyro.json"
    problem = json.loads(fixture.read_text())
    problem["omega"] = [["0", "-omega"], ["omega", "0"]]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(problem))
    result, payload = run_json("verify", str(path))
    assert result.returncode == 1
    cells = {cell["label"]: cell for cell in payload["report"]["cells"]}
    ctx = ExprContext(2, parameters=("a", "b", "omega"))
    assert ctx.parse(cells["EL[1]"]["residual"]) == ctx.parse("2*omega*v2")


def test_verify_forward_reports_singular_hessian(tmp_path):
    problem = {"n": 2, "f": ["0", "0"], "L": "q1*v1", "D": "0"}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(problem))
    result = run_cli("verify", str(path), "--forward")
    assert result.returncode == 2
    assert "Hessian" in result.stderr


def test_verify_demands_disambiguation_when_both_forcings_present(tmp_path):
    fixture = resources.files("invlag") / "fixtures" / "planar_drag_gyro.json"
    problem = json.loads(fixture.read_text())
    problem["D"] = "0"
    path = tmp_path / "both.json"
    path.write_text(json.dumps(problem))
    result = run_cli("verify", str(path))
    assert result.returncode == 2
    assert "--suite" in result.stderr
    result = run_cli("verify", str(path), "--suite", "gyroscopic")
    assert result.returncode == 0


def test_an_exponent_above_the_limit_exits_with_usage_code(tmp_path):
    """An exponent literal above the limit in a problem file, and a
    product whose exponent would pass it during the computation, exit 2
    with the limit named, never with a traceback."""
    limit = poly.MAX_EXPONENT
    literal = tmp_path / "literal.json"
    literal.write_text(json.dumps({"n": 2, "f": [f"q1^{limit + 1}", "0"]}))
    result = run_cli("analyze", str(literal))
    assert result.returncode == 2
    assert result.stderr == (f"invlag: error: {literal}: f[1]: exponent "
                             f"above the limit {limit} (at position 3)\n")
    product = tmp_path / "product.json"
    product.write_text(json.dumps(
        {"n": 2, "f": [f"q1^{(limit + 1) // 2}*v1^2", "0"]}))
    result = run_cli("analyze", str(product))
    assert result.returncode == 2
    assert result.stderr == (f"invlag: error: {product}: an exponent would "
                             f"exceed the limit {limit}\n")


_DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("text, message", [
    ('{"n": ' + "9" * 5000 + ', "f": ["0"]}',
     "{path}: an integer above the limit of {digits} digits"),
    (json.dumps({"n": 2, "f": ["0", "9" * 5000 + "*q1"]}),
     "{path}: f[2]: integer literal above the limit of {digits} digits "
     "(at position 0)"),
    (json.dumps({"n": 2, "f": ["2^30000*q1", "0"]}),
     "{path}: cannot print a coefficient of more than {digits} digits"),
    (json.dumps({"n": 2, "f": ["77^-21173*q1", "0"]}),
     "{path}: cannot print a coefficient of more than {digits} digits"),
], ids=["json-integer", "literal", "coefficient", "denominator"])
def test_an_integer_past_the_digit_limit_exits_with_usage_code(
        tmp_path, text, message):
    """An integer of more digits than Python converts to or from text (a
    JSON number, an expression literal, or a coefficient the output
    would print) exits 2 with the limit named, never with a traceback."""
    path = tmp_path / "huge.json"
    path.write_text(text)
    result = run_cli("analyze", str(path))
    assert result.returncode == 2
    assert result.stderr == ("invlag: error: " + message.format(
        path=path, digits=_DIGITS) + "\n")


def _deep_planar_drag(first: str) -> str:
    fixture = json.loads((resources.files("invlag") / "fixtures"
                          / "planar_drag.json").read_text(encoding="utf-8"))
    return json.dumps(dict(fixture, f=[first, fixture["f"][1]]))


@pytest.mark.parametrize("text, message", [
    (_deep_planar_drag("(" * 3000 + "q1" + ")" * 3000),
     "{path}: f[1]: nesting above the limit {nesting} (at position "
     "{nesting})"),
    (_deep_planar_drag("-" * 3000 + "(q1)"),
     "{path}: f[1]: nesting above the limit {nesting} (at position "
     "{nesting})"),
    ('{"n": 2, "f": ["0", "0"], "options": ' + "[" * 100000 + "]" * 100000
     + "}", "{path}: JSON nested past Python's recursion limit of "
     "{recursion}"),
], ids=["parentheses", "unary-minus", "json-arrays"])
def test_deep_nesting_exits_with_usage_code(tmp_path, text, message):
    """Nesting past the parser's limit in an expression, or past what
    the JSON reader recurses through in a problem file, exits 2 with the
    limit named, never with a ``RecursionError`` traceback."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    result = run_cli("analyze", str(path))
    assert result.returncode == 2
    assert result.stderr == ("invlag: error: " + message.format(
        path=path, nesting=exprcore.MAX_NESTING,
        recursion=sys.getrecursionlimit()) + "\n")


def test_parse_errors_exit_with_usage_code(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text('{"n": 2, "f": ["0" "0"]}')
    result = run_cli("analyze", str(bad_json))
    assert result.returncode == 2
    assert "line 1" in result.stderr

    bad_expr = tmp_path / "badexpr.json"
    bad_expr.write_text(json.dumps({"n": 2, "f": ["v1 +", "0"]}))
    result = run_cli("analyze", str(bad_expr))
    assert result.returncode == 2
    assert "f[1]" in result.stderr

    unknown_field = tmp_path / "extra.json"
    unknown_field.write_text(json.dumps({"n": 1, "f": ["0"], "h": []}))
    result = run_cli("analyze", str(unknown_field))
    assert result.returncode == 2
    assert "unknown fields: h" in result.stderr

    asymmetric = tmp_path / "asym.json"
    asymmetric.write_text(json.dumps(
        {"n": 2, "f": ["0", "0"], "g": [["1", "q1"], ["0", "1"]]}))
    result = run_cli("check", str(asymmetric), "--suite", "classical")
    assert result.returncode == 2

    result = run_cli("analyze", str(tmp_path / "nowhere.json"))
    assert result.returncode == 2
    assert "no such file" in result.stderr

    result = run_cli("verify", "free2", "--instantiate", "zeta=1")
    assert result.returncode == 2
    assert "zeta" in result.stderr

    result = run_cli("check", "free2")
    assert result.returncode == 2  # --suite is mandatory


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
@pytest.mark.parametrize("parameters, message", [
    (["a", "a"], "duplicate parameter name 'a'"),
    (["q1"], "parameter name 'q1' collides with a variable"),
    (["1x"], "invalid parameter name '1x'"),
], ids=["duplicate", "variable", "syntax"])
def test_bad_parameter_names_exit_with_usage_code(tmp_path, mode,
                                                  parameters, message):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"n": 1, "mode": mode,
                                "parameters": parameters, "f": ["0"]}))
    result = run_cli("analyze", str(path))
    assert result == (2, "", f"invlag: error: {path}: {message}\n")


@pytest.mark.parametrize("part, key, ansatz", [
    ("g", " 3,3", {"suite": "thm3", "g": {"entries": {
        "1,1": ["1"], "2,2": ["1"], "3,3": ["1", "q2"], " 3,3": ["q2"]}}}),
    ("omega", "1, 2", {"suite": "gyroscopic", "g": {"preset": "constant"},
                       "omega": {"entries": {"1,2": ["1"], "1, 2": ["q1"]}}}),
], ids=["g", "omega"])
def test_solve_rejects_a_repeated_ansatz_entry(tmp_path, part, key, ansatz):
    """Two keys naming one entry would declare unknowns for a basis the
    ansatz then drops."""
    problem = {"n": 3, "f": ["q2*v1*v3", "v3^2", "v1^2 - (1/q2)*v2*v3"],
               "ansatz": ansatz}
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(problem))
    i, j = key.replace(" ", "").split(",")
    result = run_cli("solve", str(path))
    assert result == (2, "", f"invlag: error: {path}: ansatz.{part}: entry "
                             f"{key!r} repeats entry {i},{j}\n")


@pytest.mark.parametrize("ansatz, part, keys", [
    ({"g": {"preset": "constant", "degree": 3, "variables": [9]}},
     "g", "degree, variables"),
    ({"g": {"entries": {"1,1": ["1"], "2,2": ["1"], "3,3": ["q2"]},
            "preset_typo": "x"}}, "g", "preset_typo"),
    ({"suite": "gyroscopic", "g": {"preset": "constant"},
      "omega": {"entries": {"1,2": ["1"]}, "degree": 1}}, "omega", "degree"),
], ids=["constant-preset", "g-entries", "omega-entries"])
def test_solve_refuses_ansatz_keys_it_would_not_read(tmp_path, ansatz, part,
                                                     keys):
    """A key that a family section accepted and then ignored (even an
    out-of-range ``variables``) is refused with its name, not solved
    without it."""
    fixture = json.loads((resources.files("invlag") / "fixtures"
                          / "coupled3.json").read_text(encoding="utf-8"))
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(dict(fixture,
                                    ansatz=dict(fixture["ansatz"], **ansatz))))
    result = run_cli("solve", str(path))
    assert result == (2, "", f"invlag: error: {path}: ansatz.{part}: "
                             f"unknown keys: {keys}\n")


_LIMIT = exprcore.MAX_GENERATORS


@pytest.mark.parametrize("problem, count", [
    ({"n": 10 ** 9}, 2 * 10 ** 9),
    ({"n": 1, "parameters": [f"p{k}" for k in range(_LIMIT)], "f": ["0"]},
     _LIMIT + 2),
    ({"n": 3, "f": ["0", "0", "0"], "ansatz": {
        "suite": "classical", "g": {"entries": {"1,1": ["1"] * _LIMIT}}}},
     _LIMIT + 6),
    ({"n": 3, "f": ["0", "0", "0"], "ansatz": {
        "suite": "thm3", "g": {"entries": {"1,1": ["1"] * _LIMIT}}}},
     _LIMIT + 6),
], ids=["dimension", "parameters", "ansatz", "thm3-ansatz"])
def test_a_context_past_the_generator_limit_is_refused_unbuilt(
        tmp_path, monkeypatch, problem, count):
    """A dimension, a parameter list or an ansatz whose context would
    have more than ``MAX_GENERATORS`` generators exits 2 naming the
    limit before any generator is built: memory grows with the square
    of their count."""
    ring_for = exprcore._ring_for

    def small_ring_for(key):
        _uses_time, n, _max_jet, parameters = key
        assert n <= 3 and not parameters, "an oversized ring was built"
        return ring_for(key)

    monkeypatch.setattr(exprcore, "_ring_for", small_ring_for)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(problem))
    result = run_cli("solve", str(path))
    assert result == (2, "", f"invlag: error: {path}: a context of {count} "
                             f"generators is above the limit {_LIMIT}\n")


@pytest.mark.parametrize("text, key", [
    ('{"n": 2, "f": ["0", "0"], "ansatz": {"suite": "classical", "g": '
     '{"entries": {"1,1": ["1"], "1,1": ["q1"], "2,2": ["1"]}}}}', "1,1"),
    ('{"n": 2, "f": ["0", "0"], "f": ["v1", "0"], "ansatz": '
     '{"suite": "classical", "g": {"preset": "constant"}}}', "f"),
], ids=["ansatz-entry", "top-level"])
def test_a_repeated_json_key_is_refused(tmp_path, text, key):
    """Plain JSON keeps the last of two equal keys; a problem file that
    repeats one, at any level, is refused instead of losing a value."""
    path = tmp_path / "repeated.json"
    path.write_text(text)
    result = run_cli("solve", str(path))
    assert result == (2, "", f"invlag: error: {path}: repeated JSON key "
                             f"{key!r}\n")


@pytest.mark.parametrize("argv, document, message, seed",
                         list(REFUSALS.values()), ids=list(REFUSALS))
def test_each_refusal_exits_2_naming_what_is_broken(tmp_path, argv, document,
                                                     message, seed):
    """Every refusal of a problem file exits 2 with one line naming the
    file and what is broken in it; a refusal of a flag or of
    ``INVLAG_SEED`` names no file."""
    argv, names = prepare(tmp_path, argv, document)
    result = run_cli(*argv, seed=seed)
    assert result == (2, "", f"invlag: error: {message.format(**names)}\n")


@pytest.mark.parametrize("argv, document, code, tail",
                         list(RARE_VERDICTS.values()), ids=list(RARE_VERDICTS))
def test_rare_verdicts_render_as_text(tmp_path, argv, document, code, tail):
    """The verdicts the README table does not reach: an inconsistent
    ansatz (3), an exhausted search (4), a multiplier that fails before
    reconstruction (1) and accelerations rebuilt unlike the file's (1)."""
    argv, names = prepare(tmp_path, argv, document)
    result = run_cli(*argv)
    assert result.returncode == code and result.stderr == ""
    lines = result.stdout.splitlines()
    assert lines[:2] == [f"{argv[0]}: {names['path']}",
                         "n = 2; mode = explicit; parameters: "
                         + (", ".join(document.get("parameters", ()))
                            or "none")]
    assert lines[-len(tail):] == tail


def test_a_closed_pipe_keeps_the_commands_exit_code():
    """A reader that has gone before the report is written (a pipe into
    ``head`` that closed early) leaves no traceback on stderr, and the
    exit code stays the command's own (3 here), not 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "invlag.cli", "solve", "chain4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            check=False, timeout=120, env=_child_env())
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (3, "")


def test_seed_environment_variable_is_recorded():
    _, payload = run_json("check", "free2", "--suite", "classical", seed=7)
    assert payload["seed"] == 7
    assert payload["numeric_crosscheck"]["consistent"]


def test_file_level_format_option_is_honoured(tmp_path):
    problem = {"n": 1, "f": ["0"], "g": [["1"]],
               "options": {"format": "json"}}
    path = tmp_path / "jsonopt.json"
    path.write_text(json.dumps(problem))
    result = run_cli("check", str(path), "--suite", "classical")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["report"]["passed"]


def test_instantiation_matches_literal_system(tmp_path):
    literal = {
        "n": 2,
        "parameters": [],
        "f": ["-1/2*q1 - 2*q2 - 3*v1", "2*q1 - 1/2*q2 + 3*v2"],
        "ansatz": {"suite": "thm3", "g": {"preset": "constant"}, "bound": 1},
    }
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(literal))
    _, from_literal = run_json("solve", str(path))
    _, from_params = run_json("solve", "planar_drag", "--instantiate",
                              "a=1/2", "--instantiate", "b=2",
                              "--instantiate", "omega=3")
    lit = from_literal["solution"]
    par = from_params["solution"]
    assert lit["dimension"] == par["dimension"]
    assert [vec["g"] for vec in lit["nullspace"]] == \
        [vec["g"] for vec in par["nullspace"]]


def test_fixture_names_resolve_like_paths():
    by_name = run_cli("analyze", "free2")
    by_file = run_cli(
        "analyze", str(resources.files("invlag") / "fixtures" / "free2.json"))
    assert by_name.returncode == by_file.returncode == 0
    tail_name = by_name.stdout.splitlines()[2:]
    tail_file = by_file.stdout.splitlines()[2:]
    assert tail_name == tail_file


def test_calls_share_the_parser_but_not_their_options(monkeypatch):
    """``main`` parses with one parser built at import, and a call with
    ``--instantiate`` leaves nothing behind for the next call."""
    monkeypatch.setattr(cli, "build_parser", None)
    plain = run_cli("analyze", "planar_drag")
    bound = run_cli("analyze", "planar_drag", "--instantiate", "b=2")
    again = run_cli("analyze", "planar_drag")
    assert plain.returncode == bound.returncode == 0
    assert "  Phi[1,2] = b" in plain.stdout
    assert "  Phi[1,2] = 2" in bound.stdout
    assert again == plain


def test_rational_instantiation_rejects_garbage():
    result = run_cli("solve", "chain4", "--instantiate", "b=one")
    assert result.returncode == 2
    result = run_cli("solve", "chain4", "--instantiate", "b")
    assert result.returncode == 2


@pytest.mark.parametrize("value", [
    "1e10000000", " -2.5E-1_0000_000 ", "1e" + "9" * 5000,
    f"1e{_DIGITS + 1}", "3e0" + str(_DIGITS + 1)])
def test_a_decimal_exponent_past_the_digit_limit_is_refused_unbuilt(
        tmp_path, monkeypatch, value):
    """A rational whose decimal exponent exceeds Python's digit limit,
    on the command line or in ``options.instantiate``, exits 2 naming
    the limit before ``Fraction`` sees it: ``Fraction`` would build ten
    to that power, which takes seconds at ten million."""
    def fraction(*args):
        assert args != (value,), "Fraction built the huge value"
        return Fraction(*args)

    monkeypatch.setattr(cli, "Fraction", fraction)
    message = f"exponent above the limit of {_DIGITS}\n"
    result = run_cli("analyze", "planar_drag", "--instantiate", f"a={value}")
    assert result.returncode == 2
    assert result.stderr == (f"invlag: error: --instantiate "
                             f"{'a=' + value!r}: {message}")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "parameters": ["a"], "f": ["a*q1"],
                                "options": {"instantiate": {"a": value}}}))
    result = run_cli("analyze", str(path))
    assert result.returncode == 2
    assert result.stderr == (f"invlag: error: {path}: "
                             f"options.instantiate.a: {message}")


def test_a_decimal_exponent_at_the_digit_limit_is_read():
    """The limit itself, and every decimal form ``Fraction`` reads, pass
    through unchanged."""
    assert cli._rational(f"1e{_DIGITS}") == 10 ** _DIGITS
    assert cli._rational(f"-1E-{_DIGITS}") == Fraction(-1, 10 ** _DIGITS)
    for text, value in [(" 1_0e1_0 ", 10 ** 11), ("2.5e-1", Fraction(1, 4)),
                        ("1e\u0663", 1000), ("3/4", Fraction(3, 4)),
                        ("7", 7)]:
        assert cli._rational(text) == value


def test_readme_command_table_is_accurate():
    import re

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = [line for line in readme.read_text().splitlines()
            if line.startswith("| `invlag ")]
    assert len(rows) >= 20
    for row in rows:
        command = row.split("`")[1]
        verdict = row.rsplit("|", 2)[1]
        match = re.search(r"exit (\d)", verdict)
        expected = int(match.group(1)) if match else 0
        result = run_cli(*command.split()[1:])
        assert result.returncode == expected, (command, result.stderr)


def test_readme_quick_start_is_accurate():
    """The README's library quick start runs, and the comment after each
    bare expression, up to a ``;``, is the ``str`` of its value."""
    import ast

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library quick start", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace = {}
    claims = []
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1].partition("#")[2]
        if isinstance(node, ast.Expr) and comment:
            value = eval(compile(ast.Expression(node.value), "README", "eval"),
                         namespace)
            claims.append((str(value), comment.split(";")[0].strip()))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert len(claims) == 6
    assert [value for value, _claim in claims] == [claim for _value, claim
                                                   in claims]


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


# The README rows, each with its exit code. The solve rows keep the ids
# ``<fixture>-<binding>-<code>`` they had before the other rows joined.
GOLDEN_ROWS = [
    ("solve planar_drag", 0),
    ("solve coupled3", 0),
    ("solve chain4", 3),
    ("solve chain4_gyro", 3),
    ("solve chain4_gyro --instantiate b=1/2", 3),
    ("solve chain4_gyro --instantiate b=-1/3", 3),
    ("solve chain4_gyro --instantiate b=3/4", 3),
    ("analyze planar_drag", 0),
    ("analyze coupled3", 0),
    ("check planar_drag_indefinite --suite dissipative", 0),
    ("check planar_drag --suite dissipative", 0),
    ("check planar_drag_euclidean --suite dissipative", 0),
    ("check planar_drag --suite classical", 0),
    ("check planar_drag_euclidean --suite classical", 1),
    ("check planar_drag_gyro --suite gyroscopic", 0),
    ("check planar_drag --suite thm4", 0),
    ("check planar_drag_indefinite --suite thm4", 1),
    ("check planar_drag_euclidean --suite thm4", 1),
    ("check planar_drag_implicit --suite implicit", 0),
    ("check coupled3 --suite thm3", 0),
    ("check coupled3 --suite rayleigh", 1),
    ("check coupled3 --suite classical", 1),
    ("reconstruct planar_drag_gyro --suite gyroscopic", 0),
    ("reconstruct coupled3", 0),
    ("reconstruct free2", 0),
    ("verify planar_drag_indefinite --forward", 0),
]


def _golden_id(command: str, code: int) -> str:
    words = command.split()
    if words[0] == "solve":
        binding = words[3] if len(words) > 2 else None
        return f"{words[1]}-{binding}-{code}"
    return f"{'-'.join(words)}-{code}"


@pytest.mark.parametrize("command, code", [
    pytest.param(command, code, id=_golden_id(command, code))
    for command, code in GOLDEN_ROWS])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_readme_solve_rows_print_the_golden_output(command, code, fmt):
    """The README's rows, the ``solve`` rows first, print, byte for
    byte, the stdout kept in ``tests/golden``: the file is named by the
    command's words without ``--instantiate``, joined by ``_``, with
    leading dashes dropped and ``=`` and ``/`` written as ``_`` (so
    ``check_coupled3_suite_thm3.txt``, ``solve_chain4_gyro_b_1_2.json``).
    The only normalisation is the fixture directory, written
    ``<fixtures>``."""
    args = command.split()
    slug = "_".join(word.lstrip("-").replace("=", "_").replace("/", "_")
                    for word in args if word != "--instantiate")
    expected = (GOLDEN / f"{slug}.{'txt' if fmt == 'text' else 'json'}").read_text()
    result = run_cli(*args, "--format", fmt)
    fixtures = str(resources.files("invlag") / "fixtures")
    assert (result.returncode, result.stderr) == (code, "")
    assert result.stdout.replace(fixtures, "<fixtures>") == expected


def assert_solve_prints_the_golden_output(name, fmt):
    """``solve`` of ``tests/problems/<name>.json`` exits 0 and prints the
    stdout kept in ``tests/golden/solve_<name>``, its path written
    ``<file>``."""
    path = pathlib.Path(__file__).resolve().parent / "problems" \
        / f"{name}.json"
    suffix = "txt" if fmt == "text" else "json"
    expected = (GOLDEN / f"solve_{name}.{suffix}").read_text()
    result = run_cli("solve", str(path), "--format", fmt)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.replace(str(path), "<file>") == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fifty_unknown_search_prints_the_golden_output(fmt):
    """An n = 4 system drawn like the benchmark's ``search`` problems,
    under a degree-1 ``thm3`` ansatz in every position (50 unknowns,
    1291 equations), finds a representative and prints, byte for byte,
    the stdout kept in ``tests/golden`` (the file's path written
    ``<file>``)."""
    assert_solve_prints_the_golden_output("search_n4_thm3", fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fixed_dissipation_search_prints_the_golden_output(fmt):
    """A ``dissipative`` search with ``D`` fixed, n = 4 with a degree-1
    ansatz (50 unknowns): the right-hand-side column is not zero, so the
    space of dimension 2 has the particular solution ``g[1,1] = g[2,2] =
    -2/3``, and its points are re-verified at rational values. It prints,
    byte for byte, the stdout kept in ``tests/golden`` (the file's path
    written ``<file>``)."""
    assert_solve_prints_the_golden_output("fixed_drag_n4", fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dense_position_dependent_check_prints_the_golden_output(fmt):
    """``check --suite thm3`` on a dense n = 4 system whose kinetic
    energy depends on the positions, ``L = sum_k 1/2*(k + 3 +
    q_(k mod 4 + 1)^2)*v_k^2 + sum_k q_k*v_k*v_(k+1) - 2/3*q1^2 +
    q1^2*q4`` and ``D = 1/2*q4*v1*v4 - 1/3*q1*v1^2*v2`` (``f`` from the
    forward problem, ``g`` the Hessian of ``L``), prints, byte for byte,
    the stdout kept in ``tests/golden`` (the file's path written
    ``<file>``). Its sums meet shared denominator factors, some reached
    by one term and some by several."""
    path = pathlib.Path(__file__).resolve().parent / "problems" / "dense4.json"
    suffix = "txt" if fmt == "text" else "json"
    expected = (GOLDEN / f"check_dense4_suite_thm3.{suffix}").read_text()
    result = run_cli("check", str(path), "--suite", "thm3", "--format", fmt)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.replace(str(path), "<file>") == expected


def test_an_asymmetric_multiplier_names_the_first_violated_pair(tmp_path):
    """A ``g`` that breaks its declared symmetry is a usage error (exit
    2) naming the slots and the first entry, in the entries' order, whose
    swapped partner differs."""
    fixture = json.loads((resources.files("invlag") / "fixtures"
                          / "coupled3.json").read_text())
    fixture["g"][0][1] = "q1"
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(fixture))
    result = run_cli("check", str(path), "--suite", "thm3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (f"invlag: error: {path}: 'g': declared symmetric "
                             "slots (1, 2) violated at (1, 2)\n")


@pytest.mark.parametrize("args, name", [
    (("reconstruct", "coupled3"), "verify_dissipative"),
    (("reconstruct", "planar_drag_gyro", "--suite", "gyroscopic"),
     "verify_gyroscopic"),
])
def test_reconstruct_verifies_its_certificate_once(args, name, monkeypatch):
    """``reconstruct`` renders the report that verified the certificate
    instead of verifying it again. ``cli`` reads ``reconstruct``'s
    functions at call time, so patching that module reaches it too."""
    calls = []
    original = getattr(reconstruct, name)

    def counting(*call_args):
        calls.append(name)
        return original(*call_args)

    monkeypatch.setattr(reconstruct, name, counting)
    result, payload = run_json(*args)
    assert result.returncode == 0
    assert payload["verify"]["passed"]
    assert calls == [name]
