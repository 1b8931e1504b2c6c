"""Covers every condition suite: verdicts and failing cells for the
reference systems, reduction properties between suites, and the
implicit-system checker with its independent cross-check route."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlag import conditions
from invlag.cli import ansatz_problem, load_problem, report_payload
from invlag.exprcore import ExprContext
from invlag.geometry import (GeometryError, Sode, TensorField, curvature,
                             identity_matrix, jacobi)
from invlag.conditions import (Cell, ConditionReport, ImplicitOrderError,
                               ImplicitSystem, TwoFormError, check_classical,
                               check_dissipative, check_gyroscopic,
                               check_implicit, check_multiplier_dissipative,
                               check_multiplier_gyroscopic, check_prop2a,
                               check_rayleigh, implicit_context,
                               total_derivative)
from invlag.solver import _ansatz_tensors, assemble

import oracles
from exprgen import random_poly, random_sode, small_fraction


def planar_drag():
    ctx = ExprContext(2, parameters=("a", "b", "omega"))
    f = [ctx.parse("-a*q1 - b*q2 - omega*v1"),
         ctx.parse("b*q1 - a*q2 + omega*v2")]
    return ctx, Sode(ctx, f)


def coupled_three():
    ctx = ExprContext(3)
    f = [ctx.parse("q2*v1*v3"), ctx.parse("v3^2"),
         ctx.parse("v1^2 - v2*v3/q2")]
    return ctx, Sode(ctx, f)


def planar_metrics(ctx):
    indefinite = TensorField.from_matrix(
        ctx, [[ctx.one, ctx.zero], [ctx.zero, -ctx.one]], sym=((1, 2),))
    offdiag = TensorField.from_matrix(
        ctx, [[ctx.zero, ctx.one], [ctx.one, ctx.zero]], sym=((1, 2),))
    return indefinite, offdiag, identity_matrix(ctx)


def coupled_metric(ctx):
    return TensorField.from_matrix(
        ctx,
        [[ctx.parse("4"), ctx.zero, ctx.zero],
         [ctx.zero, ctx.one, ctx.zero],
         [ctx.zero, ctx.zero, ctx.parse("2*q2")]],
        sym=((1, 2),))


def random_symmetric(ctx, rng, degree=1):
    entries = {}
    for i in range(1, ctx.n + 1):
        for j in range(i, ctx.n + 1):
            e = random_poly(ctx, rng, degree=degree, terms=2)
            entries[(i, j)] = e
            entries[(j, i)] = e
    return TensorField(ctx, (0, 2), entries, sym=((1, 2),))


def test_classical_accepts_offdiagonal_multiplier():
    ctx, s = planar_drag()
    _, offdiag, _ = planar_metrics(ctx)
    report = check_classical(s, offdiag)
    assert report.passes
    assert report.nonsingularity.nonsingular
    assert report.nonsingularity.determinant == ctx.parse("-1")


def test_classical_rejects_identity_multiplier():
    ctx, s = planar_drag()
    report = check_classical(s, identity_matrix(ctx))
    assert not report.passes
    assert "PhiSym[1,2]" in [cell.label for cell in report.failing()]


def test_classical_free_particle():
    ctx = ExprContext(2)
    s = Sode(ctx, [ctx.zero, ctx.zero])
    assert check_classical(s, identity_matrix(ctx)).passes


def test_dissipative_accepts_indefinite_pair():
    ctx, s = planar_drag()
    indefinite, _, _ = planar_metrics(ctx)
    D = ctx.parse("-1/2*omega*(v1^2 + v2^2)")
    assert check_dissipative(s, indefinite, D).passes


def test_dissipative_accepts_euclidean_pair():
    ctx, s = planar_drag()
    D = ctx.parse("-a*(q1*v1 + q2*v2) + b*(q1*v2 - q2*v1)"
                  " + 1/2*omega*(v2^2 - v1^2)")
    assert check_dissipative(s, identity_matrix(ctx), D).passes


def test_dissipative_accepts_coupled_solution():
    ctx, s = coupled_three()
    report = check_dissipative(s, coupled_metric(ctx), ctx.parse("2*q2*v1^2*v3"))
    assert report.passes
    assert report.nonsingularity.determinant == ctx.parse("8*q2")
    assert "non-constant" in report.nonsingularity.note


def test_nonsingularity_record_is_computed_on_first_read(monkeypatch):
    """Assembly never reads the record, so the determinant of the
    symbolic 50-unknown multiplier is never built; a report's payload
    still carries the same determinant, computed once."""
    calls = []
    original = conditions.nonsingularity_record

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(conditions, "nonsingularity_record", counting)
    problem = load_problem("chain4_gyro", {})
    family, _bound = ansatz_problem(problem)
    assemble(problem.sode(), family)
    assert calls == []

    ctx, s = coupled_three()
    report = check_dissipative(s, coupled_metric(ctx),
                               ctx.parse("2*q2*v1^2*v3"))
    assert calls == []
    assert report_payload(report)["nonsingularity"] == {
        "determinant": "8*q2", "nonsingular": True,
        "note": ("determinant is non-constant, so it vanishes on a proper "
                 "subset of the domain")}
    report_payload(report)
    assert len(calls) == 1


def test_reports_compare_without_their_multiplier():
    """Reports of the same suite, cells and notes are equal and hash
    alike whatever multiplier they carry; a report is frozen."""
    ctx, s = coupled_three()
    g = coupled_metric(ctx)
    report = check_dissipative(s, g, ctx.parse("2*q2*v1^2*v3"))
    bare = ConditionReport(report.suite, report.cells, notes=report.notes)
    assert bare.multiplier is None and bare.nonsingularity is None
    assert bare == report and hash(bare) == hash(report)
    assert bare != ConditionReport(report.suite, report.cells[1:])
    assert bare != ConditionReport("classical", report.cells)
    assert report.cells[0] == Cell(report.cells[0].label,
                                   report.cells[0].residual)
    for name in ("suite", "multiplier", "nonsingularity"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    assert report.nonsingularity.determinant == ctx.parse("8*q2")


def test_dissipative_with_zero_matches_classical():
    rng = random.Random(555)
    for n in (2, 3):
        ctx = ExprContext(n)
        for _ in range(4):
            s = random_sode(ctx, rng, degree=1)
            g = random_symmetric(ctx, rng)
            with_zero = check_dissipative(s, g, ctx.zero)
            plain = check_classical(s, g)
            assert with_zero.passes == plain.passes
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert (with_zero.cell(f"HD2[{i},{j}]").residual
                            == plain.cell(f"NablaG[{i},{j}]").residual)


def test_gyroscopic_accepts_constant_two_form():
    ctx, s = planar_drag()
    _, offdiag, _ = planar_metrics(ctx)
    omega = TensorField.from_matrix(
        ctx, [[ctx.zero, ctx.parse("omega")],
              [ctx.parse("-omega"), ctx.zero]], antisym=((1, 2),))
    assert check_gyroscopic(s, offdiag, omega).passes


def test_gyroscopic_rejects_indefinite_multiplier():
    ctx, s = planar_drag()
    indefinite, _, _ = planar_metrics(ctx)
    omega = TensorField.from_matrix(
        ctx, [[ctx.zero, ctx.parse("omega")],
              [ctx.parse("-omega"), ctx.zero]], antisym=((1, 2),))
    report = check_gyroscopic(s, indefinite, omega)
    assert not report.passes
    assert any(cell.label.startswith("Hg2") for cell in report.failing())


def test_gyroscopic_with_zero_form_matches_classical():
    ctx, s = planar_drag()
    zero_form = TensorField(ctx, (0, 2), {})
    for g in planar_metrics(ctx):
        assert (check_gyroscopic(s, g, zero_form).passes
                == check_classical(s, g).passes)


def test_gyroscopic_with_curved_two_form():
    """A system whose force comes from a position-dependent two-form:
    the exterior-derivative contraction in the third cell family must
    carry full weight for this to pass."""
    ctx = ExprContext(3)
    s = Sode(ctx, [ctx.parse("q3*v2"), ctx.parse("-q3*v1"), ctx.zero])
    omega = TensorField.from_matrix(
        ctx, [[ctx.zero, ctx.parse("q3"), ctx.zero],
              [ctx.parse("-q3"), ctx.zero, ctx.zero],
              [ctx.zero, ctx.zero, ctx.zero]], antisym=((1, 2),))
    assert check_gyroscopic(s, identity_matrix(ctx), omega).passes


def test_gyroscopic_rejects_bad_two_forms():
    ctx, s = planar_drag()
    _, offdiag, _ = planar_metrics(ctx)
    lopsided = TensorField(ctx, (0, 2), {(1, 2): ctx.one})
    with pytest.raises(TwoFormError):
        check_gyroscopic(s, offdiag, lopsided)
    velocity_dependent = TensorField.from_matrix(
        ctx, [[ctx.zero, ctx.parse("v1")], [ctx.parse("-v1"), ctx.zero]])
    with pytest.raises(TwoFormError):
        check_gyroscopic(s, offdiag, velocity_dependent)


def test_multiplier_dissipative_constant_candidates():
    ctx, s = planar_drag()
    g = TensorField.from_matrix(
        ctx, [[ctx.parse("3"), ctx.parse("1/2")],
              [ctx.parse("1/2"), ctx.parse("-2")]], sym=((1, 2),))
    assert check_multiplier_dissipative(s, g).passes


def test_multiplier_dissipative_coupled_solution():
    ctx, s = coupled_three()
    assert check_multiplier_dissipative(s, coupled_metric(ctx)).passes


def test_multiplier_dissipative_identity_fails_on_curvature_cycle():
    ctx, s = coupled_three()
    report = check_multiplier_dissipative(s, identity_matrix(ctx))
    assert not report.passes
    assert any(cell.label.startswith("RCycle") for cell in report.failing())


def test_multiplier_gyroscopic_verdicts_on_planar_system():
    ctx, s = planar_drag()
    indefinite, offdiag, euclid = planar_metrics(ctx)
    assert check_multiplier_gyroscopic(s, offdiag).passes
    report = check_multiplier_gyroscopic(s, indefinite)
    assert not report.passes
    assert any(cell.label.startswith("NablaG") for cell in report.failing())
    assert not check_multiplier_gyroscopic(s, euclid).passes


def test_multiplier_gyroscopic_curved_system():
    ctx = ExprContext(3)
    s = Sode(ctx, [ctx.parse("q3*v2"), ctx.parse("-q3*v1"), ctx.zero])
    assert check_multiplier_gyroscopic(s, identity_matrix(ctx)).passes


def test_multiplier_gyroscopic_flat_reduction():
    """With vanishing curvature the gyroscopic multiplier test must
    agree with the plain one on any symmetric candidate."""
    rng = random.Random(777)
    ctx = ExprContext(2)
    for _ in range(5):
        rows = [[ctx.const(small_fraction(rng)) for _ in range(2)]
                for _ in range(2)]
        f = []
        for i in range(2):
            e = ctx.zero
            for j in range(2):
                e = e + rows[i][j] * ctx.var(ctx.q(j + 1))
                e = e + ctx.const(small_fraction(rng)) * ctx.var(ctx.v(j + 1))
            f.append(e)
        s = Sode(ctx, f)
        g = random_symmetric(ctx, rng)
        assert (check_multiplier_gyroscopic(s, g).passes
                == check_classical(s, g).passes)


def reference_cycle(s, g, i, k, l):
    """The curvature cycle built for one ordered ``(i, k, l)``, as the
    suites built every one of them before the cycles were shared."""
    R = curvature(s)
    total = s.ctx.zero
    for j in range(1, s.n + 1):
        total = total + g.entry(i, j) * R.entry(j, k, l)
        total = total + g.entry(l, j) * R.entry(j, i, k)
        total = total + g.entry(k, j) * R.entry(j, l, i)
    return total


def cycle_cells_match_reference(s, g):
    """Asserts that the thm3 ``RCycle`` and thm4 ``PhiR`` cells equal
    those built from ``reference_cycle``, cell by cell; returns how many
    cycles are nonzero, so a caller can tell the check was not vacuous."""
    ctx, indices = s.ctx, range(1, s.n + 1)
    thm3 = check_multiplier_dissipative(s, g)
    cycles = [reference_cycle(s, g, *idx) for idx in combinations(indices, 3)]
    for (i, k, l), cycle in zip(combinations(indices, 3), cycles):
        assert thm3.cell(f"RCycle[{i},{k},{l}]").residual == cycle
    thm4 = check_multiplier_gyroscopic(s, g)
    jac = jacobi(s)
    for k, l in combinations(indices, 2):
        skew = sum((g.entry(k, m) * jac.entry(m, l)
                    - g.entry(l, m) * jac.entry(m, k) for m in indices),
                   ctx.zero)
        contraction = sum((reference_cycle(s, g, i, k, l) * ctx.var(ctx.v(i))
                           for i in indices), ctx.zero)
        assert thm4.cell(f"PhiR[{k},{l}]").residual == -skew - contraction
    return sum(not cycle.is_zero() for cycle in cycles)


def test_cycle_cells_match_per_triple_reference_on_symbolic_ansatz():
    problem = load_problem("chain4_gyro", {})
    family, _bound = ansatz_problem(problem)
    names = [f"c{k}" for k in range(len(family.layout))]
    ectx = problem.ctx.with_parameters(names)
    g, _omega = _ansatz_tensors(family, ectx, [ectx.var(ectx.param(name))
                                               for name in names])
    assert cycle_cells_match_reference(problem.sode().extended(ectx), g)


@pytest.mark.parametrize("n", [3, 4])
def test_cycle_cells_match_per_triple_reference_on_random_systems(n):
    rng = random.Random(2718 + n)
    ctx = ExprContext(n)
    nonzero = sum(cycle_cells_match_reference(
        random_sode(ctx, rng, degree=2), random_symmetric(ctx, rng))
        for _ in range(3))
    assert nonzero


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       velocities=st.booleans())
def test_thm3_cells_equal_their_formulas(seed, n, velocities):
    """The ``thm3`` suite evaluates its term table
    (``multiplier_terms``, which the ansatz search reads too) to the
    cells written out formula by formula, on random systems and random
    symmetric candidates, with or without velocities in ``g``."""
    rng = random.Random(seed)
    ctx = ExprContext(n)
    s = random_sode(ctx, rng, degree=2)
    entries = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            entries[(i, j)] = entries[(j, i)] = random_poly(
                ctx, rng, degree=2, terms=2, velocities=velocities)
    g = TensorField(ctx, (0, 2), entries, sym=((1, 2),))
    report = check_multiplier_dissipative(s, g)
    assert [(cell.label, cell.residual) for cell in report.cells] == \
        oracles.multiplier_dissipative_cells(s, g)


def test_smoothness_indicator_flags_velocity_pole():
    ctx, s = coupled_three()
    g = TensorField.from_matrix(
        ctx, [[ctx.parse("1/v1"), ctx.zero, ctx.zero],
              [ctx.zero, ctx.one, ctx.zero],
              [ctx.zero, ctx.zero, ctx.one]], sym=((1, 2),))
    report = check_multiplier_gyroscopic(s, g)
    flagged = [cell for cell in report.cells
               if cell.label.startswith("SmoothV0") and not cell.passes]
    assert flagged


def test_prop2a_subset_verdicts():
    ctx, s = planar_drag()
    indefinite, offdiag, _ = planar_metrics(ctx)
    assert check_prop2a(s, offdiag).passes
    assert not check_prop2a(s, indefinite).passes
    free = Sode(ExprContext(2), [ExprContext(2).zero, ExprContext(2).zero])
    assert check_prop2a(free, identity_matrix(free.ctx)).passes


def test_rayleigh_quadratic_dissipation_passes():
    ctx, s = planar_drag()
    indefinite, _, _ = planar_metrics(ctx)
    report = check_rayleigh(s, indefinite)
    assert report.passes
    assert report.notes[0].endswith("pass")


def test_rayleigh_rejects_cubic_dissipation():
    ctx, s = coupled_three()
    report = check_rayleigh(s, coupled_metric(ctx))
    assert not report.passes
    assert report.cell("VNablaG[1,1,3]").residual == ctx.parse("4*q2")


def test_rayleigh_constant_multiplier_linear_forces():
    ctx = ExprContext(2)
    s = Sode(ctx, [ctx.parse("-q1 - v2"), ctx.parse("v1 - 3*v2")])
    assert check_rayleigh(s, identity_matrix(ctx)).passes


def test_multiplier_must_be_symmetric():
    ctx, s = planar_drag()
    lopsided = TensorField(ctx, (0, 2), {(1, 2): ctx.one})
    with pytest.raises(GeometryError):
        check_classical(s, lopsided)


def test_report_structure():
    ctx, s = planar_drag()
    _, offdiag, _ = planar_metrics(ctx)
    report = check_classical(s, offdiag)
    assert isinstance(report, ConditionReport)
    assert all(isinstance(cell, Cell) for cell in report.cells)
    assert report.cell("NablaG[1,2]").passes
    with pytest.raises(KeyError):
        report.cell("NoSuchCell[0]")
    labels = [cell.label for cell in report.cells]
    assert labels == sorted(labels, key=labels.index)  # deterministic order


def test_implicit_drag_system_passes():
    ctx = implicit_context(2, parameters=("omega",))
    f = [ctx.parse("d2q1 + omega*v1"), ctx.parse("d2q2 + omega*v2")]
    assert check_implicit(ImplicitSystem(ctx, f)).passes


def test_implicit_cubic_potential_passes():
    ctx = implicit_context(2)
    f = [ctx.parse("d2q1 + q1^3"), ctx.parse("d2q2 + q2^3")]
    report = check_implicit(ImplicitSystem(ctx, f))
    assert report.passes
    assert report.nonsingularity.nonsingular


def test_implicit_velocity_square_coupling_fails():
    ctx = implicit_context(2)
    f = [ctx.parse("d2q1 + v2^2"), ctx.parse("d2q2")]
    report = check_implicit(ImplicitSystem(ctx, f))
    assert not report.passes
    labels = [cell.label for cell in report.failing()]
    assert "OrderR[1,2]" in labels
    assert "C3[2,1,2]" in labels
    assert report.cell("OrderR[1,2]").residual == ctx.parse("-d2q2")
    assert report.cell("C3[2,1,2]").residual == ctx.parse("2")
    assert "XB[1,2,2]" in labels  # independent route agrees


@pytest.mark.parametrize("n", [3, 4])
def test_implicit_xc_cells_are_the_cyclic_sum(n):
    """Each ``XC[i,j,k]`` cell of the reduced route is the cyclic sum
    over ``(a, b, c)`` of ``d/dq_b d/dv_c tail_a - d/dq_c d/dv_b tail_a``,
    ``tail`` the system at zero acceleration. Every term ``q_b*v_c`` of
    ``tail_a`` has its own power of two as coefficient, so each cell is
    nonzero and a flipped sign or a swapped index changes it."""
    ctx = implicit_context(n)
    weights = {abc: 2 ** k for k, abc in
               enumerate(permutations(range(1, n + 1), 3))}
    f = [ctx.parse(f"d2q{a} + v{a}^2*q{a} + " + " + ".join(
        f"{w}*q{b}*v{c}" for (a_, b, c), w in weights.items() if a_ == a))
         for a in range(1, n + 1)]
    report = check_implicit(ImplicitSystem(ctx, f))
    tail = [entry.subst({ctx.jet(i, 2): ctx.zero for i in range(1, n + 1)})
            for entry in f]

    def mixed(a, b, c):
        return tail[a - 1].diff(ctx.q(b)).diff(ctx.jet(c, 1))

    triples = list(combinations(range(1, n + 1), 3))
    for i, j, k in triples:
        expected = sum((mixed(a, b, c) - mixed(a, c, b)
                        for a, b, c in ((i, j, k), (j, k, i), (k, i, j))),
                       ctx.zero)
        cell = report.cell(f"XC[{i},{j},{k}]")
        assert cell.residual == expected and not cell.passes
    assert [cell.label for cell in report.cells
            if cell.label.startswith("XC")] == \
        [f"XC[{i},{j},{k}]" for i, j, k in triples]


def test_implicit_time_dependent_coefficient():
    ctx = implicit_context(1)
    report = check_implicit(ImplicitSystem(ctx, [ctx.parse("d2q1 + t*v1")]))
    assert report.passes


def test_implicit_rejects_deep_jets():
    ctx = implicit_context(1)
    with pytest.raises(ImplicitOrderError):
        ImplicitSystem(ctx, [ctx.parse("d3q1")])


def test_implicit_needs_rich_context():
    plain = ExprContext(1)
    with pytest.raises(GeometryError):
        ImplicitSystem(plain, [plain.zero])


def test_total_derivative_shifts_jets():
    ctx = implicit_context(1)
    assert (total_derivative(ctx, ctx.parse("q1*v1"))
            == ctx.parse("q1*d2q1 + v1^2"))
    assert total_derivative(ctx, ctx.parse("t")) == ctx.one
    with pytest.raises(ImplicitOrderError):
        total_derivative(ctx, ctx.parse("d4q1"))


def test_closure_redundancy_on_constructed_systems():
    """Systems built as Euler-Lagrange expressions minus a velocity
    gradient plus base-only source terms satisfy the acceleration
    symmetry, first-order, and middle closure conditions by
    construction; the first and third closure families must then come
    out zero as well."""
    rng = random.Random(20260814)
    ctx = implicit_context(2)
    passed = 0
    for _ in range(50):
        L = random_poly_tq(ctx, rng, velocity_quadratic=True)
        D = random_poly_tq(ctx, rng, velocity_quadratic=True)
        system = []
        for i in (1, 2):
            lagrange = (total_derivative(ctx, L.diff(ctx.jet(i, 1)))
                        - L.diff(ctx.q(i)))
            mu = base_poly(ctx, rng)
            system.append(lagrange - D.diff(ctx.jet(i, 1)) + mu)
        report = check_implicit(ImplicitSystem(ctx, system))
        prerequisite = [cell for cell in report.cells
                        if cell.label.startswith(("T[", "OrderR", "OrderS", "C2"))]
        assert all(cell.passes for cell in prerequisite)
        for cell in report.cells:
            if cell.label.startswith(("C1", "C3")):
                assert cell.passes, cell.label
        passed += 1
    assert passed == 50


def random_poly_tq(ctx, rng, velocity_quadratic):
    """A random first-order function of (t, q, v), at most quadratic in
    the velocities."""
    leaves = [ctx.var(ctx.time_var())]
    leaves += [ctx.var(ctx.q(i)) for i in range(1, ctx.n + 1)]
    velocities = [ctx.var(ctx.jet(i, 1)) for i in range(1, ctx.n + 1)]
    total = ctx.zero
    for _ in range(4):
        term = ctx.const(small_fraction(rng))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(leaves)
        if velocity_quadratic:
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice(velocities)
        total = total + term
    return total


def base_poly(ctx, rng):
    """A random function of (t, q) only."""
    leaves = [ctx.var(ctx.time_var())]
    leaves += [ctx.var(ctx.q(i)) for i in range(1, ctx.n + 1)]
    total = ctx.zero
    for _ in range(3):
        term = ctx.const(small_fraction(rng))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(leaves)
        total = total + term
    return total
