"""Acceptance suite: end-to-end criteria the package must meet.

Each criterion prints exactly one ``criterion N: PASS/FAIL`` line on the
real stdout (bypassing capture) so a log of the run shows the verdict
table at a glance. The criteria bodies are memoized helpers, letting
the final numeric criterion re-use every report produced by the earlier
ones: all recorded residual cells are re-confirmed by exact rational
evaluation at random points, and representatives of every
derivative-consuming stage are spot-checked against exact central
finite differences.
"""

from __future__ import annotations

import functools
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from invlag.conditions import (ImplicitSystem, check_classical,
                               check_dissipative, check_gyroscopic,
                               check_implicit, check_multiplier_dissipative,
                               check_multiplier_gyroscopic, check_rayleigh,
                               implicit_context, total_derivative)
from invlag.exprcore import ExprContext
from invlag.geometry import (Sode, TensorField, connection, curvature,
                             horizontal_apply, identity_matrix, jacobi,
                             nabla_tensor02, theta_tensor)
from invlag.numeric import crosscheck_cells, diff_spot_check, seeded_rng
from invlag.reconstruct import (forward_sode, hessian,
                                reconstruct_dissipative, verify_dissipative,
                                verify_gyroscopic)
from invlag.solver import assemble, instantiate, polynomial_ansatz
from invlag.solver import solve as solve_family

from clirun import run_json

# Everything the criteria assert symbolically is collected here so the
# numeric criterion can re-confirm it the pedestrian way.
RECORDED_CELLS = []
RECORDED_DIFFS = []


def _record_report(tag, report):
    for cell in report.cells:
        RECORDED_CELLS.append((f"{tag}.{cell.label}", cell.residual))
    return report


def _record_zero(label, residual):
    assert residual.is_zero(), label
    RECORDED_CELLS.append((label, residual))


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _verdicts_reach_the_terminal(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _announce(text):
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(text, flush=True)
    else:
        print(text, file=sys.__stdout__, flush=True)


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _announce(f"criterion {number}: FAIL - {summary}")
                raise
            _announce(f"criterion {number}: PASS - {summary}")
        return inner
    return wrap


# --------------------------------------------------------------------------
# shared model systems


def planar_drag():
    ctx = ExprContext(2, parameters=("a", "b", "omega"))
    f = [ctx.parse("-a*q1 - b*q2 - omega*v1"),
         ctx.parse("b*q1 - a*q2 + omega*v2")]
    return ctx, Sode(ctx, f)


def coupled_three():
    ctx = ExprContext(3)
    f = [ctx.parse("q2*v1*v3"), ctx.parse("v3^2"),
         ctx.parse("v1^2 - (1/q2)*v2*v3")]
    return ctx, Sode(ctx, f)


def two_form(ctx, value):
    return TensorField(ctx, (0, 2), {(1, 2): value, (2, 1): -value},
                       antisym=((1, 2),))


def _matrix(ctx, rows, sym=True):
    exprs = [[ctx.parse(v) for v in row] for row in rows]
    return TensorField.from_matrix(ctx, exprs, sym=((1, 2),) if sym else ())


# --------------------------------------------------------------------------
# criterion bodies (memoized so the numeric criterion can replay them)


@functools.lru_cache(maxsize=None)
def _drag_geometry():
    ctx, s = planar_drag()
    conn, jac, R = connection(s), jacobi(s), curvature(s)
    _record_zero("drag.Gamma[1,1]", conn.entry(1, 1) - ctx.parse("1/2*omega"))
    _record_zero("drag.Gamma[2,2]", conn.entry(2, 2) + ctx.parse("1/2*omega"))
    _record_zero("drag.Gamma[1,2]", conn.entry(1, 2))
    _record_zero("drag.Gamma[2,1]", conn.entry(2, 1))
    diagonal = ctx.parse("a - 1/4*omega^2")
    _record_zero("drag.Phi[1,1]", jac.entry(1, 1) - diagonal)
    _record_zero("drag.Phi[2,2]", jac.entry(2, 2) - diagonal)
    _record_zero("drag.Phi[1,2]", jac.entry(1, 2) - ctx.parse("b"))
    _record_zero("drag.Phi[2,1]", jac.entry(2, 1) + ctx.parse("b"))
    for k in (1, 2):
        for i in (1, 2):
            for j in (1, 2):
                _record_zero(f"drag.R[{k},{i},{j}]", R.entry(k, i, j))
    RECORDED_DIFFS.extend(s.f)
    RECORDED_DIFFS.append(jac.entry(1, 1))


@functools.lru_cache(maxsize=None)
def _drag_certificates():
    ctx, s = planar_drag()
    g1 = _matrix(ctx, [["1", "0"], ["0", "-1"]])
    g2 = _matrix(ctx, [["0", "1"], ["1", "0"]])
    g3 = identity_matrix(ctx)
    L1 = ctx.parse("1/2*(v1^2 - v2^2) - 1/2*a*(q1^2 - q2^2) - b*q1*q2")
    D1 = ctx.parse("-1/2*omega*(v1^2 + v2^2)")
    L2 = ctx.parse("v1*v2 + 1/2*omega*(q1*v2 - q2*v1)"
                   " - a*q1*q2 - 1/2*b*(q2^2 - q1^2)")
    L3 = ctx.parse("1/2*(v1^2 + v2^2)")
    D3 = ctx.parse("-a*(q1*v1 + q2*v2) + b*(q1*v2 - q2*v1)"
                   " + 1/2*omega*(v2^2 - v1^2)")
    L4 = ctx.parse("v1*v2 - a*q1*q2 - 1/2*b*(q2^2 - q1^2)")
    w = two_form(ctx, ctx.parse("omega"))

    for tag, g, L, D in (("indefinite", g1, L1, D1),
                         ("antidiag", g2, L2, ctx.zero),
                         ("euclidean", g3, L3, D3)):
        assert hessian(L) == g, tag
        report = _record_report(f"drag.{tag}.dissipative",
                                check_dissipative(s, g, D))
        assert report.passes, tag
        pair = _record_report(f"drag.{tag}.lagrange",
                              verify_dissipative(s, L, D))
        assert pair.passes, tag

    assert _record_report("drag.antidiag.classical",
                          check_classical(s, g2)).passes
    euclid_classical = _record_report("drag.euclidean.classical",
                                      check_classical(s, g3))
    assert not euclid_classical.passes
    assert not euclid_classical.cell("PhiSym[1,2]").passes

    assert _record_report("drag.antidiag.gyroscopic",
                          check_gyroscopic(s, g2, w)).passes
    assert _record_report("drag.gyro.lagrange",
                          verify_gyroscopic(s, L4, w)).passes

    assert _record_report("drag.antidiag.thm4",
                          check_multiplier_gyroscopic(s, g2)).passes
    assert not _record_report("drag.indefinite.thm4",
                              check_multiplier_gyroscopic(s, g1)).passes
    assert not _record_report("drag.euclidean.thm4",
                              check_multiplier_gyroscopic(s, g3)).passes
    RECORDED_DIFFS.extend([L1, D1, L2, L3, D3, L4])


@functools.lru_cache(maxsize=None)
def _coupled_example():
    ctx, s = coupled_three()
    jac, R = jacobi(s), curvature(s)
    phi_rows = [
        ["-1/4*q2^2*v3^2", "-3/4*v1*v3", "1/4*q2^2*v1*v3 + 3/4*v1*v2"],
        ["-v1*v3", "1/2*v3^2/q2", "v1^2 - 1/2*v2*v3/q2"],
        ["1/2*q2*v1*v3 + 1/2*v1*v2/q2",
         "-1/4*v2*v3/q2^2 - 1/2*v1^2/q2",
         "-1/2*q2*v1^2 + 1/4*v2^2/q2^2"],
    ]
    curvature_entries = {
        (1, 1, 2): "-1/4*v3",
        (1, 1, 3): "1/4*q2^2*v3 + 1/4*v2",
        (1, 2, 3): "1/2*v1",
        (2, 1, 3): "v1",
        (2, 2, 3): "-1/2*v3/q2",
        (3, 1, 2): "-1/2*v1/q2",
        (3, 1, 3): "-1/2*q2*v1",
        (3, 2, 3): "1/4*v2/q2^2",
    }

    result, payload = run_json("analyze", "coupled3")
    assert result.returncode == 0
    objects = payload["objects"]
    for i in range(1, 4):
        for j in range(1, 4):
            printed = ctx.parse(objects["Phi"][i - 1][j - 1])
            _record_zero(f"coupled.Phi[{i},{j}]",
                         printed - ctx.parse(phi_rows[i - 1][j - 1]))
            assert jac.entry(i, j) == printed
    for k in range(1, 4):
        for i in range(1, 4):
            for j in range(i + 1, 4):
                printed = ctx.parse(objects["R"][k - 1][i - 1][j - 1])
                wanted = curvature_entries.get((k, i, j))
                expected = ctx.parse(wanted) if wanted else ctx.zero
                _record_zero(f"coupled.R[{k},{i},{j}]", printed - expected)
                assert R.entry(k, i, j) == printed
                assert ctx.parse(objects["R"][k - 1][j - 1][i - 1]) == -printed

    result, payload = run_json("solve", "coupled3")
    assert result.returncode == 0
    solution = payload["solution"]
    assert solution["dimension"] == 1
    assert solution["nullspace"][0]["g"] == {"1,1": "4", "2,2": "1",
                                             "3,3": "2*q2"}
    assert payload["representative_report"]["passed"]
    assert payload["numeric_crosscheck"]["consistent"]
    g = _matrix(ctx, [["4", "0", "0"], ["0", "1", "0"], ["0", "0", "2*q2"]])
    assert ctx.parse(solution["representative"]["det"]) == ctx.parse("8*q2")
    _record_report("coupled.thm3", check_multiplier_dissipative(s, g))

    grad = nabla_tensor02(s, g)
    expected_grad = {(1, 1): "4*q2*v3", (1, 3): "4*q2*v1", (3, 1): "4*q2*v1"}
    for i in range(1, 4):
        for j in range(1, 4):
            wanted = expected_grad.get((i, j))
            expected = ctx.parse(wanted) if wanted else ctx.zero
            _record_zero(f"coupled.NablaG[{i},{j}]",
                         grad.entry(i, j) - expected)

    result, payload = run_json("reconstruct", "coupled3")
    assert result.returncode == 0
    cert = payload["certificate"]
    assert ctx.parse(cert["L"]) == ctx.parse("1/2*(4*v1^2 + v2^2"
                                             " + 2*q2*v3^2)")
    assert ctx.parse(cert["D"]) == ctx.parse("2*q2*v1^2*v3")
    local = reconstruct_dissipative(s, g)
    assert ctx.parse(cert["L"]) == local.L
    assert ctx.parse(cert["D"]) == local.D
    _record_report("coupled.reconstruct",
                   verify_dissipative(s, local.L, local.D))

    rayleigh = _record_report("coupled.rayleigh", check_rayleigh(s, g))
    assert not rayleigh.passes
    classical = _record_report("coupled.classical", check_classical(s, g))
    assert not classical.passes
    RECORDED_DIFFS.extend([local.L, local.D, jac.entry(3, 2)])


@functools.lru_cache(maxsize=None)
def _chain_negatives():
    result, payload = run_json("solve", "chain4")
    assert result.returncode == 3
    solution = payload["solution"]
    assert solution["definitive_negative"]
    assert {"g[1,3]", "g[2,3]", "g[3,3]", "g[3,4]"} \
        <= set(solution["forced_zero"])

    result, payload = run_json("solve", "chain4_gyro")
    assert result.returncode == 3
    assert payload["solution"]["definitive_negative"]
    for value in ("1/2", "-1/3", "3/4"):
        result, payload = run_json("solve", "chain4_gyro",
                                   "--instantiate", f"b={value}")
        assert result.returncode == 3, value
        assert payload["solution"]["definitive_negative"], value

    # The surviving directions of the translation-invariant family do
    # satisfy the conditions; record their suite reports for the
    # numeric criterion.
    ctx = ExprContext(4, parameters=("b",))
    f = [ctx.parse("b*v1*v4"), ctx.parse("v2*v4"),
         ctx.parse("(1-b)*v1*v2 + b*q2*v1*v4 - b*q1*v2*v4 + (b+1)*v3*v4"),
         ctx.parse("0")]
    s = Sode(ctx, f)
    family = polynomial_ansatz(ctx, "thm3", 1, variables=(1, 2))
    space = solve_family(assemble(s, family))
    assert space.consistent and space.dimension >= 1
    for k, vector in enumerate(space.nullspace, start=1):
        g, _ = instantiate(family, ctx, vector)
        report = _record_report(f"chain.direction{k}",
                                check_multiplier_dissipative(s, g))
        assert report.passes, k


@functools.lru_cache(maxsize=None)
def _random_sode_identities():
    rng = random.Random(414243)
    for index in range(25):
        n = rng.choice((2, 3))
        ctx = ExprContext(n)
        gens = [ctx.var(ctx.q(i)) for i in range(1, n + 1)]
        gens += [ctx.var(ctx.v(i)) for i in range(1, n + 1)]
        monomials = [ctx.one] + gens + \
            [a * b for a, b in combinations_with_replacement(gens, 2)]
        f = []
        for _ in range(n):
            entry = ctx.zero
            for monomial in monomials:
                if rng.random() < 0.35:
                    coefficient = Fraction(rng.randint(-3, 3),
                                           rng.randint(1, 4))
                    entry = entry + ctx.const(coefficient) * monomial
            f.append(entry)
        s = Sode(ctx, f)
        conn, jac = connection(s), jacobi(s)
        R, theta = curvature(s), theta_tensor(s)
        three = ctx.const(3)
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    vertical = (jac.entry(k, j).diff(ctx.v(i))
                                - jac.entry(k, i).diff(ctx.v(j)))
                    _record_zero(f"sode{index}.dvPhi3R[{k},{i},{j}]",
                                 vertical - three * R.entry(k, i, j))
                    horizontal = (horizontal_apply(s, j, conn.entry(k, i))
                                  - horizontal_apply(s, i, conn.entry(k, j)))
                    _record_zero(f"sode{index}.Rroutes[{k},{i},{j}]",
                                 horizontal - R.entry(k, i, j))
        for l in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    _record_zero(
                        f"sode{index}.GammaV[{l},{i},{j}]",
                        conn.entry(l, j).diff(ctx.v(i))
                        - conn.entry(l, i).diff(ctx.v(j)))
                    _record_zero(
                        f"sode{index}.thetaSym[{l},{i},{j}]",
                        theta.entry(l, i, j) - theta.entry(l, j, i))
        if index % 7 == 0:
            RECORDED_DIFFS.append(f[0])
            RECORDED_DIFFS.append(jac.entry(1, min(2, n)))


@functools.lru_cache(maxsize=None)
def _round_trip_pairs():
    rng = random.Random(515253)
    pairs = []
    for _ in range(25):
        n = rng.choice((2, 3))
        ctx = ExprContext(n)
        mixing = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        kinetic = [[sum(mixing[k][i] * mixing[k][j] for k in range(n))
                    + (1 if i == j else 0) for j in range(n)]
                   for i in range(n)]
        half = ctx.const(Fraction(1, 2))
        L = ctx.zero
        for i in range(n):
            for j in range(n):
                L = L + half * ctx.const(kinetic[i][j]) \
                    * ctx.var(ctx.v(i + 1)) * ctx.var(ctx.v(j + 1))
        qs = [ctx.var(ctx.q(i)) for i in range(1, n + 1)]
        q_monomials = list(qs)
        q_monomials += [a * b for a, b
                        in combinations_with_replacement(qs, 2)]
        q_monomials += [a * b * c for a, b, c
                        in combinations_with_replacement(qs, 3)]
        for monomial in q_monomials:
            if rng.random() < 0.4:
                coefficient = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                L = L - ctx.const(coefficient) * monomial
        vs = [ctx.var(ctx.v(i)) for i in range(1, n + 1)]
        v_monomials = list(vs)
        v_monomials += [a * b for a, b
                        in combinations_with_replacement(vs, 2)]
        v_monomials += [a * b * c for a, b, c
                        in combinations_with_replacement(vs, 3)]
        D = ctx.zero
        for v_monomial in v_monomials:
            for q_monomial in [ctx.one] + qs:
                if rng.random() < 0.2:
                    coefficient = Fraction(rng.randint(-3, 3),
                                           rng.randint(1, 4))
                    D = D + ctx.const(coefficient) * v_monomial * q_monomial
        pairs.append((n, ctx, L, D))
    return pairs


@functools.lru_cache(maxsize=None)
def _forward_round_trip():
    for index, (n, ctx, L, D) in enumerate(_round_trip_pairs()):
        s = forward_sode(L, D, n)
        g = hessian(L)
        direct = _record_report(f"pair{index}.dissipative",
                                check_dissipative(s, g, D))
        assert direct.passes, index
        existence = _record_report(f"pair{index}.thm3",
                                   check_multiplier_dissipative(s, g))
        assert existence.passes, index
        cert = reconstruct_dissipative(s, g)
        verified = _record_report(f"pair{index}.reconstruct",
                                  verify_dissipative(s, cert.L, cert.D))
        assert verified.passes, index
        if index % 6 == 0:
            RECORDED_DIFFS.extend([L, D, cert.L, cert.D])


@functools.lru_cache(maxsize=None)
def _implicit_round_trip():
    for index, (n, _ctx, L, D) in enumerate(_round_trip_pairs()):
        ictx = implicit_context(n)
        Li = ictx.parse(str(L))
        Di = ictx.parse(str(D))
        f = []
        for i in range(1, n + 1):
            f.append(total_derivative(ictx, Li.diff(ictx.jet(i, 1)))
                     - Li.diff(ictx.q(i)) - Di.diff(ictx.jet(i, 1)))
        report = _record_report(f"implicit{index}",
                                check_implicit(ImplicitSystem(ictx, f)))
        assert report.passes, index
        # first and third closure families must come out zero whenever
        # the remaining conditions hold
        prerequisites = [cell for cell in report.cells
                         if cell.label.startswith(("T[", "OrderR", "OrderS",
                                                   "C2"))]
        assert all(cell.passes for cell in prerequisites)
        for cell in report.cells:
            if cell.label.startswith(("C1", "C3")):
                assert cell.passes, (index, cell.label)

        i = index % n
        j = (i + 1) % n
        bumped = list(f)
        bumped[i] = bumped[i] + ictx.var(ictx.jet(j + 1, 1)) ** 2
        flipped = _record_report(f"implicit{index}.perturbed",
                                 check_implicit(ImplicitSystem(ictx, bumped)))
        assert not flipped.passes, index
        if index % 8 == 0:
            RECORDED_DIFFS.append(f[i])


# --------------------------------------------------------------------------
# the criteria


@criterion(1, "drag-system geometry is exact")
def test_criterion_1_drag_geometry():
    _drag_geometry()


@criterion(2, "drag-system certificates match the known verdicts")
def test_criterion_2_drag_certificates():
    _drag_certificates()


@criterion(3, "coupled system: geometry, search, gradient, reconstruction")
def test_criterion_3_coupled_example():
    _coupled_example()


@criterion(4, "chain system: both searches are definitively negative")
def test_criterion_4_chain_negatives():
    _chain_negatives()


@criterion(5, "curvature identities on 25 random systems")
def test_criterion_5_random_identities():
    _random_sode_identities()


@criterion(6, "forward/backward round trip on 25 random pairs")
def test_criterion_6_round_trip():
    _forward_round_trip()


@criterion(7, "implicit formulation agrees on the same 25 pairs")
def test_criterion_7_implicit():
    _implicit_round_trip()


@criterion(8, "numeric re-confirmation of all recorded verdicts")
def test_criterion_8_numeric_crosscheck():
    _drag_geometry()
    _drag_certificates()
    _coupled_example()
    _chain_negatives()
    _random_sode_identities()
    _forward_round_trip()
    _implicit_round_trip()
    assert len(RECORDED_CELLS) > 500
    rng = seeded_rng(20260814)
    summary = crosscheck_cells(RECORDED_CELLS, rng)
    assert summary["consistent"], summary["disagreements"]
    assert summary["points"] == 5
    checked = 0
    for expr in RECORDED_DIFFS:
        for var in expr.free_varids():
            diff_spot_check(expr, var, rng)
            checked += 1
    assert checked > 100
