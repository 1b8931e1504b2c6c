"""Tests for the ansatz-family multiplier search."""

import pathlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlag import conditions, exprcore, geometry, poly, solver, weights
from invlag.cli import ansatz_problem, load_problem
from invlag.exprcore import ExprContext, convert
from invlag.geometry import (InternalInconsistencyError, Sode, TensorField,
                             curvature, jacobi, matrix_det)
from invlag.reconstruct import forward_accelerations, forward_sode
from invlag.solver import (AnsatzProblem, LinearSystem, Representative,
                           SolverError, assemble,
                           constant_ansatz, diagonal_ansatz,
                           find_nonsingular, instantiate, polynomial_ansatz,
                           q_monomials, solve)
from invlag.conditions import check_multiplier_dissipative

import oracles
from clirun import run_cli
from oracles import NonlinearCouplingError
from exprgen import random_poly, random_sode
from sympyref import terms


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


def chain_four(b="b"):
    if b == "b":
        ctx = ExprContext(4, parameters=("b",))
    else:
        ctx = ExprContext(4)
    f = [ctx.parse(f"{b}*v1*v4"), ctx.parse("v2*v4"),
         ctx.parse(f"(1-({b}))*v1*v2 + ({b})*q2*v1*v4"
                   f" - ({b})*q1*v2*v4 + (({b})+1)*v3*v4"),
         ctx.parse("0")]
    return ctx, Sode(ctx, f)


def fixed_cubic_dissipation():
    """A cubic dissipation function cannot pair with any constant
    multiplier on a trivial system."""
    ctx = ExprContext(1)
    s = Sode(ctx, [ctx.zero])
    return s, AnsatzProblem("dissipative", (((1, 1), (ctx.one,)),),
                            D=ctx.parse("v1^3"))


def fixed_linear_drag():
    """Linear drag with its dissipation function fixed: the only
    multiplier of degree at most one is ``g = 1``, so the system is
    inhomogeneous and its solution unique."""
    ctx = ExprContext(1)
    s = Sode(ctx, [ctx.parse("-v1")])
    return s, polynomial_ansatz(ctx, "dissipative", 1,
                                D=ctx.parse("-1/2*v1^2"))


def inconsistent_space():
    s, problem = fixed_cubic_dissipation()
    return s, solve(assemble(s, problem))


def chain_four_space():
    """The translation-invariant degree-1 family of the chain system."""
    ctx, s = chain_four()
    problem = polynomial_ansatz(ctx, "thm3", 1, variables=(1, 2))
    return s, solve(assemble(s, problem))


def planar_drag_space():
    ctx, s = planar_drag()
    return s, solve(assemble(s, constant_ansatz(ctx, "thm3")))


def test_monomial_basis_enumeration():
    ctx = ExprContext(2)
    basis = q_monomials(ctx, 2)
    assert basis[0] == ctx.one
    assert set(str(b) for b in basis) == {
        "1", "q1", "q2", "q1^2", "q1*q2", "q2^2"}
    restricted = q_monomials(ctx, 1, variables=(2,))
    assert [str(b) for b in restricted] == ["1", "q2"]


def breadth_first_monomials(ctx, degree, variables=None):
    """Reference for ``q_monomials``: each degree multiplies the previous
    one by every variable in turn, dropping repeats by their text."""
    indices = tuple(variables) if variables is not None \
        else tuple(range(1, ctx.n + 1))
    monomials = [ctx.one]
    frontier = [ctx.one]
    for _ in range(degree):
        next_frontier = []
        seen = set()
        for base in frontier:
            for i in indices:
                candidate = base * ctx.var(ctx.q(i))
                if str(candidate) not in seen:
                    seen.add(str(candidate))
                    next_frontier.append(candidate)
        monomials.extend(next_frontier)
        frontier = next_frontier
    return tuple(monomials)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), degree=st.integers(0, 3))
def test_q_monomials_match_breadth_first_order(data, n, degree):
    """Repeated and unsorted variable lists included."""
    variables = data.draw(st.none() | st.lists(st.integers(1, n),
                                                max_size=4))
    ctx = ExprContext(n)
    assert q_monomials(ctx, degree, variables) == \
        breadth_first_monomials(ctx, degree, variables)


def test_constant_family_is_unconstrained_for_drag_system():
    """Every constant symmetric matrix satisfies the dissipative
    existence conditions here, so assembly produces no equations at
    all and the whole coefficient space survives."""
    ctx, s = planar_drag()
    system = assemble(s, constant_ansatz(ctx, "thm3"))
    assert len(system.rows) == 0
    space = solve(system)
    assert space.consistent
    assert space.dimension == 3
    rep = find_nonsingular(space, s, 1)
    assert rep is not None
    assert not matrix_det(rep.g).is_zero()
    assert check_multiplier_dissipative(s, rep.g).passes


def test_parameter_splitting_matches_instantiation():
    """The nullspace computed with symbolic parameters is identical to
    the one computed after substituting rational values."""
    ctx, s = planar_drag()
    symbolic = solve(assemble(s, constant_ansatz(ctx, "thm3")))
    ctx2 = ExprContext(2)
    f = [ctx2.parse("-1/2*q1 - 2*q2 - 3*v1"),
         ctx2.parse("2*q1 - 1/2*q2 + 3*v2")]
    s2 = Sode(ctx2, f)
    instantiated = solve(assemble(s2, constant_ansatz(ctx2, "thm3")))
    assert instantiated.nullspace == symbolic.nullspace
    assert instantiated.dimension == 3


def test_diagonal_polynomial_family_pins_unique_multiplier():
    """The diagonal quadratic family on the coupled system collapses to
    a single line, and the representative search lands on it."""
    ctx, s = coupled_three()
    problem = diagonal_ansatz(ctx, "thm3", 2)
    system = assemble(s, problem)
    assert len(system.unknowns) == 30
    space = solve(system)
    assert space.dimension == 1
    g, _ = instantiate(problem, ctx, space.nullspace[0])
    assert g.entry(1, 1) == ctx.parse("4")
    assert g.entry(2, 2) == ctx.one
    assert g.entry(3, 3) == ctx.parse("2*q2")
    rep = find_nonsingular(space, s, 1)
    assert rep is not None
    assert rep.report.nonsingularity.determinant == ctx.parse("8*q2")
    assert check_multiplier_dissipative(s, rep.g).passes
    report = rep.report
    assert report.suite == "thm3" and report.passes
    assert rep.g == g and rep.vector == space.nullspace[0]
    assert report.nonsingularity.determinant == matrix_det(rep.g)


def test_translation_invariant_family_is_structurally_singular():
    """On the four-dimensional chain system the invariant family forces
    an entire multiplier row to zero: a definitive negative, not just
    an exhausted search."""
    s, space = chain_four_space()
    assert space.consistent
    forced = {(1, 3), (2, 3), (3, 3), (3, 4)}
    for k, (part, i, j, _pos) in enumerate(space.problem.layout):
        if (i, j) in forced:
            assert all(vec[k] == 0 for vec in space.nullspace)
    assert find_nonsingular(space, s, 2) is None
    assert space.definitive_negative


def test_position_family_under_gyroscopic_conditions_fails_too():
    ctx, s = chain_four()
    space = solve(assemble(s, polynomial_ansatz(ctx, "thm4", 1)))
    assert find_nonsingular(space, s, 2) is None
    assert space.definitive_negative


@pytest.mark.parametrize("value", ["1/2", "-1/3", "3/4"])
def test_chain_gyroscopic_negative_survives_instantiation(value):
    ctx, s = chain_four(b=value)
    space = solve(assemble(s, polynomial_ansatz(ctx, "thm4", 1)))
    assert find_nonsingular(space, s, 2) is None


def test_empty_family_is_definitively_singular():
    ctx = ExprContext(2)
    s = Sode(ctx, [ctx.zero, ctx.zero])
    space = solve(assemble(s, AnsatzProblem("thm3", ())))
    assert find_nonsingular(space, s, 3) is None
    assert space.definitive_negative


def test_free_particle_identity_family():
    ctx = ExprContext(2)
    s = Sode(ctx, [ctx.zero, ctx.zero])
    problem = AnsatzProblem("classical", (((1, 1), (ctx.one,)),
                                          ((2, 2), (ctx.one,))))
    space = solve(assemble(s, problem))
    assert space.consistent and space.dimension == 2
    rep = find_nonsingular(space, s, 1)
    assert rep is not None
    assert matrix_det(rep.g) == ctx.one


def test_inconsistent_fixed_dissipation_yields_empty_space():
    """The inhomogeneous system has no solution and says so."""
    s, space = inconsistent_space()
    assert not space.consistent
    assert space.certificate_row is not None
    assert space.dimension == 0
    assert find_nonsingular(space, s, 1) is None


def test_joint_two_form_search():
    """Unknown two-form entries ride along with the multiplier in the
    gyroscopic suite; the first hit is a valid pair."""
    ctx, s = planar_drag()
    pairs = tuple((pair, (ctx.one,)) for pair in ((1, 1), (1, 2), (2, 2)))
    problem = AnsatzProblem("gyroscopic", pairs,
                            omega_basis=(((1, 2), (ctx.one,)),))
    space = solve(assemble(s, problem))
    assert space.consistent
    rep = find_nonsingular(space, s, 1)
    assert rep is not None
    assert rep.omega is not None


@pytest.mark.parametrize("name", ["coupled3", "chain4_gyro"])
def test_solve_builds_each_geometric_object_once(monkeypatch, name):
    """Assembly reads the system's geometry through its weight tables,
    cached on the system, so a whole ``solve`` builds each object at
    most once, and only in the fixture's own context: no context
    declares the unknowns."""
    builds = []
    for builder in ("_connection", "_jacobi", "_curvature", "_theta"):
        def counted(s, build=getattr(geometry, builder), builder=builder):
            builds.append((builder, s.ctx))
            return build(s)
        monkeypatch.setattr(geometry, builder, counted)
    result = run_cli("solve", name)
    assert result.returncode in (0, 3), result.stderr
    assert builds and len(set(builds)) == len(builds)
    assert {ctx for _builder, ctx in builds} == {load_problem(name, {}).ctx}


def test_extended_system_runs_the_curvature_check_on_its_origin():
    """An extension of an extension still reads the first system's
    objects, and a corrupt Jacobi entry there makes the extension's
    curvature fail the two-formula check instead of skipping it."""
    ctx, s = coupled_three()
    twice = s.extended(ctx.with_parameters(["c0"])).extended(
        ctx.with_parameters(["c0", "c1"]))
    assert twice.origin is s
    jac = jacobi(s)
    entries = dict(jac.entries)
    entries[(1, 2)] = jac.entry(1, 2) + ctx.parse("v1^2")
    s._memo["jacobi"] = TensorField(ctx, (1, 1), entries)
    with pytest.raises(InternalInconsistencyError):
        curvature(twice)


def test_problem_validation():
    ctx = ExprContext(2)
    with pytest.raises(SolverError):
        AnsatzProblem("nonsense", ())
    with pytest.raises(SolverError):
        AnsatzProblem("thm3", (((2, 1), (ctx.one,)),))
    with pytest.raises(SolverError):
        AnsatzProblem("thm3", (), omega_basis=(((1, 2), (ctx.one,)),))
    with pytest.raises(SolverError):
        instantiate(AnsatzProblem("thm3", (((1, 1), (ctx.one,)),)), ctx,
                    (Fraction(1), Fraction(2)))
    with pytest.raises(SolverError, match="multiplier entry"):
        AnsatzProblem("thm3", (((1, 1), (ctx.one,)), ((1, 2), (ctx.one,)),
                               ((1, 1), (ctx.parse("q1"),))))
    with pytest.raises(SolverError, match="two-form entry"):
        AnsatzProblem("gyroscopic", (((1, 1), (ctx.one,)),),
                      omega_basis=(((1, 2), (ctx.one,)),
                                   ((1, 2), (ctx.parse("q2"),))))
    # a zero basis function would make a direction whose multiplier is 0
    undetermined = "zero, so its coefficient is undetermined$"
    with pytest.raises(SolverError, match="^multiplier entry 1,1: basis "
                       f"function 1 is {undetermined}"):
        AnsatzProblem("thm3", (((1, 1), (ctx.zero,)), ((2, 2), (ctx.one,))))
    with pytest.raises(SolverError, match="^multiplier entry 1,2: basis "
                       f"function 2 is {undetermined}"):
        AnsatzProblem("thm3", (((1, 1), (ctx.one,)), ((1, 2), (
            ctx.parse("q1"), ctx.parse("q1*v2 - v2*q1")))))
    with pytest.raises(SolverError, match="^two-form entry 1,2: basis "
                       f"function 2 is {undetermined}"):
        AnsatzProblem("gyroscopic", (((1, 1), (ctx.one,)),),
                      omega_basis=(((1, 2), (ctx.parse("q2"), ctx.zero)),))


def test_problem_keeps_only_the_data_its_suite_reads():
    """An ansatz keeps ``D`` only when its suite takes it, and the
    two-form only when its suite takes it and no two-form unknowns are
    declared."""
    ctx = ExprContext(2)
    D = ctx.parse("v1^2*q2")
    omega = TensorField(ctx, (0, 2), {(1, 2): ctx.parse("q1"),
                                      (2, 1): ctx.parse("-q1")},
                        antisym=((1, 2),))
    unknowns = (((1, 2), (ctx.one,)),)
    for suite, omega_basis, kept in (("thm3", (), (None, None)),
                                     ("dissipative", (), (D, None)),
                                     ("gyroscopic", (), (None, omega)),
                                     ("gyroscopic", unknowns, (None, None))):
        problem = constant_ansatz(ctx, suite, omega_basis=omega_basis, D=D,
                                  omega=omega)
        assert (problem.D, problem.omega) == kept
        assert problem.omega_basis == omega_basis


@pytest.mark.parametrize("text, message", [
    ("c0*c1 + q1", "nonlinear unknown coupling"),
    ("c1^2 - c0", "nonlinear unknown coupling"),
    ("1/c0", "unknowns in a denominator"),
    ("q1/(q1 + c1) + 1/q1", "unknowns in a denominator"),
])
def test_residuals_nonlinear_in_the_unknowns_are_refused(monkeypatch, text,
                                                         message):
    """The extended-ring rows oracle refuses a cell that is not linear in
    the unknowns and names it; no supported suite makes one, so the
    suite is replaced."""
    ctx = ExprContext(1)
    s = Sode(ctx, [ctx.zero])
    problem = AnsatzProblem("classical",
                            (((1, 1), (ctx.one, ctx.parse("q1"))),))

    def cells(suite, s_e, g, D=None, omega=None):
        assert s_e.ctx.parameters == ("c0", "c1")
        return [("HD1[1,1,1]", s_e.ctx.parse("c0 - q1*c1 + 2")),
                ("DHSym[1,1]", s_e.ctx.parse(text))]

    monkeypatch.setattr(oracles, "suite_cells", cells)
    with pytest.raises(NonlinearCouplingError,
                       match=rf"^{message} at cell DHSym\[1,1\]$"):
        oracles.extended_system(s, problem)


def test_unknown_names_avoid_declared_parameters():
    ctx = ExprContext(1, parameters=("c0",))
    s = Sode(ctx, [ctx.parse("-q1")])
    problem = AnsatzProblem("classical", (((1, 1), (ctx.one,)),))
    system = assemble(s, problem)
    assert all(name not in ctx.parameters for name in system.unknowns)
    space = solve(system)
    assert space.dimension == 1


def test_solution_ordering_is_deterministic():
    ctx, s = planar_drag()
    problem = constant_ansatz(ctx, "thm3")
    first = solve(assemble(s, problem))
    second = solve(assemble(s, problem))
    assert first.nullspace == second.nullspace
    rep_a = find_nonsingular(first, s, 1)
    rep_b = find_nonsingular(second, s, 1)
    assert rep_a.g == rep_b.g
    assert rep_a.vector == rep_b.vector


@pytest.mark.parametrize("build, negative, found", [
    (inconsistent_space, False, False),
    (chain_four_space, True, False),
    (planar_drag_space, False, True),
])
def test_search_reads_the_space_and_returns_its_result(build, negative,
                                                       found, monkeypatch):
    """``definitive_negative`` depends on the space alone, and the search
    returns a record instead of writing into the space; each candidate's
    determinant is built once, by its report."""
    s, space = build()
    assert space.definitive_negative is negative
    original = conditions.nonsingularity_record
    calls = []

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(conditions, "nonsingularity_record", counting)
    rep = find_nonsingular(space, s, 1)
    assert space.definitive_negative is negative
    if not found:
        assert rep is None
        assert calls == []
        return
    assert isinstance(rep, Representative)
    assert rep.report.passes and rep.g is rep.report.multiplier
    # one record per candidate; the singular (2,2) members come first
    assert len(calls) == 3 and calls[-1] is rep.g
    record = rep.report.nonsingularity
    assert record.nonsingular and record.determinant == matrix_det(rep.g)
    assert rep.report.nonsingularity is record
    assert len(calls) == 3


def assert_matches_sympy_rref(space, dense):
    """``space`` is the solution set of the augmented rows ``dense``
    (Fractions, the right-hand side last) as sympy's ``rref`` and
    ``nullspace`` read them: the same consistency and particular
    solution, and nullspace vectors in primitive integers, first nonzero
    entry positive, along the reference directions."""
    count = len(space.unknowns)
    augmented = sympy.Matrix(
        len(dense), count + 1,
        [sympy.Rational(x.numerator, x.denominator)
         for row in dense for x in row])
    reduced, pivots = augmented.rref()
    assert space.consistent == (count not in pivots)
    if not space.consistent:
        assert space.nullspace == ()
        return
    expected = [Fraction(0)] * count
    for r, col in enumerate(pivots):
        expected[col] = Fraction(int(reduced[r, count].p),
                                 int(reduced[r, count].q))
    assert list(space.particular) == expected
    free = [c for c in range(count) if c not in pivots]
    reference = augmented[:, :count].nullspace()
    assert len(space.nullspace) == len(reference) == len(free)
    for vector, ref, column in zip(space.nullspace, reference, free):
        assert all(x.denominator == 1 for x in vector)
        assert gcd(*(int(x) for x in vector)) == 1
        assert next(x for x in vector if x) > 0
        assert [x / vector[column] for x in vector] == \
            [Fraction(int(y.p), int(y.q)) for y in ref]


def dense_fraction_rows(system):
    """The augmented rows of the residual ``system`` rebuilt from the
    terms of its residuals' numerators, as dense Fractions: the terms
    grouped by the
    monomial in everything but the unknowns, the constant negated into
    the last column, all-zero rows dropped."""
    ectx = system.context
    count = len(system.unknowns)
    columns = {ectx.gen_index(ectx.param(name)): k
               for k, name in enumerate(system.unknowns)}
    dense = []
    for _label, residual in system.residuals:
        groups = {}
        for monom, coeff in terms(residual.num):
            key = tuple(0 if position in columns else exponent
                        for position, exponent in enumerate(monom))
            row = groups.setdefault(key, [Fraction(0)] * (count + 1))
            hits = [k for position, k in columns.items() if monom[position]]
            if hits:
                row[hits[0]] += coeff
            else:
                row[count] -= coeff
        dense.extend(row for row in groups.values() if any(row))
    return dense


def readme_solve(name):
    problem = load_problem(name, {})
    return problem.sode(), ansatz_problem(problem)[0]


FORWARD = {
    2: ("1/2*(3*v1^2 + 2*v1*v2 + 2*v2^2) - q1^2 - q1*q2^2",
        "q1*v1^2 + v2^3 + q2*v1*v2"),
    3: ("1/2*(4*v1^2 + 2*v1*v2 + 3*v2^2 - 2*v2*v3 + 5*v3^2)"
        " - q1^2*q3 - q2^3",
        "q2*v1^2 + v1^3 + v2^3 + v3^3 + v1*v2*v3"),
}


def forward_search(n, degree):
    ctx = ExprContext(n)
    L, D = FORWARD[n]
    s = forward_sode(ctx.parse(L), ctx.parse(D), n)
    problem = (constant_ansatz(ctx, "thm3") if degree == 0
               else polynomial_ansatz(ctx, "thm3", degree))
    return s, problem


@pytest.mark.parametrize("build", [
    pytest.param(lambda name=name: readme_solve(name), id=name)
    for name in ("planar_drag", "coupled3", "chain4", "chain4_gyro")
] + [
    pytest.param(lambda n=n, degree=degree: forward_search(n, degree),
                 id=f"forward{n}-degree{degree}")
    for n in (2, 3) for degree in (0, 1)
] + [pytest.param(fixed_cubic_dissipation, id="cubic-dissipation"),
      pytest.param(fixed_linear_drag, id="linear-drag")])
def test_assembly_matches_the_dense_fraction_reference(build):
    """The sparse integer rows solve to what sympy makes of the dense
    Fraction matrix of the same cells, with as many rows; the cells are
    the residuals of the suite's run in the extended ring, whose rows
    assembly reads from weight tables instead."""
    s, problem = build()
    system = assemble(s, problem)
    dense = dense_fraction_rows(oracles.extended_residuals(s, problem))
    assert len(system.rows) == len(dense)
    assert all(value and isinstance(value, int)
               for row in system.rows for value in row.values())
    assert_matches_sympy_rref(solve(system), dense)


def random_system(rng, kind):
    """A small rational system ``rows · c = rhs``, the residual system
    of ``rows · c - rhs`` with the unknowns as parameters, and its dense
    augmented rows. The system's sparse rows are the dense ones in
    integers, each times a nonzero multiple of its denominators' lcm.
    ``kind`` adds all-zero rows, dependent rows, or a dependent row with
    a shifted right-hand side (inconsistent); ``empty`` has no rows at
    all."""
    count = rng.randint(1, 5)

    def value():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) \
            if rng.random() < 0.6 else Fraction(0)

    rows = [[value() for _ in range(count)] for _ in range(rng.randint(1, 4))]
    rhs = [value() for _ in rows]
    if kind == "empty":
        rows, rhs = [], []
    elif kind == "zero_rows":
        for _ in range(rng.randint(1, 2)):
            at = rng.randint(0, len(rows))
            rows.insert(at, [Fraction(0)] * count)
            rhs.insert(at, Fraction(0))
    elif kind in ("rank_deficient", "inconsistent"):
        weights = [value() for _ in rows]
        rows.append([sum(w * row[k] for w, row in zip(weights, rows))
                     for k in range(count)])
        rhs.append(sum(w * b for w, b in zip(weights, rhs)))
        if kind == "inconsistent":
            rows[-1] = [a + b for a, b in zip(rows[-1], rows[0])]
            rhs[-1] += rhs[0] + 1
    dense = [row + [b] for row, b in zip(rows, rhs)]
    sparse = []
    for row in dense:
        scale = lcm(*(x.denominator for x in row)) * rng.choice((1, -1, 6))
        sparse.append({col: int(x * scale) for col, x in enumerate(row) if x})
    names = tuple(f"c{k}" for k in range(count))
    ctx = ExprContext(1, names)
    unknowns = [ctx.var(ctx.param(name)) for name in names]
    residuals = []
    for r, (row, b) in enumerate(zip(rows, rhs)):
        total = ctx.const(-b)
        for a, c in zip(row, unknowns):
            total = total + ctx.const(a) * c
        residuals.append((f"row {r}", total))
    problem = AnsatzProblem("classical",
                            (((1, 1), (ctx.one,) * count),))
    return (LinearSystem(names, tuple(sparse), ctx, problem,
                         tuple(f"row {r}" for r in range(len(sparse)))),
            oracles.ResidualSystem(names, tuple(residuals), ctx, problem),
            dense)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("random", "empty", "zero_rows",
                             "rank_deficient", "inconsistent")))
def test_solve_matches_sympy_rref(seed, kind):
    system, _residuals, dense = random_system(random.Random(seed), kind)
    space = solve(system)
    if kind == "inconsistent":
        assert not space.consistent
    assert_matches_sympy_rref(space, dense)


def test_assembly_factors_no_denominator_again(monkeypatch):
    """The kinetic determinant ``q1^4 - q1^2 + 1`` of ``L = 1/2*(q1^4 +
    1)*v1^2 + 1/2*v2^2 + q1*v1*v2`` splits modulo every prime, so sympy
    factors it once, in the system's ring; assembly moves it into the
    ring of the unknowns without factoring it again."""
    ctx = ExprContext(2)
    L = ctx.parse("1/2*(q1^4 + 1)*v1^2 + 1/2*v2^2 + q1*v1*v2")
    s = Sode(ctx, forward_accelerations(L, ctx.zero))
    assert str(s.f[0]) == "(-2*q1^3*v1^2 + q1*v1^2)/(q1^4 - q1^2 + 1)"
    calls = []
    original = poly.Poly.factor_list
    monkeypatch.setattr(poly.Poly, "factor_list",
                        lambda p: calls.append(p) or original(p))
    system = assemble(s, polynomial_ansatz(ctx, "thm3", 1))
    assert len(system.unknowns) == 9
    assert calls == []


# --------------------------------------------------------------------------
# rows from weight tables against the extended-ring oracle


def primitive_rows(system):
    """``{label: sorted primitive rows}`` of an assembled system."""
    rows = {}
    for label, row in zip(system.labels, system.rows):
        common = gcd(*row.values())
        rows.setdefault(label, []).append(
            tuple(sorted((col, value // common) for col, value in row.items())))
    return {label: sorted(found) for label, found in rows.items()}


def assert_rows_match_the_extended_oracle(s, problem):
    """The weight-table rows of ``problem`` equal the rows of its suite's
    run in the extended ring, cell by cell, as multisets of primitive
    rows, and there are as many of them."""
    system = assemble(s, problem)
    oracle = oracles.extended_system(s, problem)
    assert system.context == s.ctx
    assert len(system.rows) == len(oracle.rows)
    assert primitive_rows(system) == primitive_rows(oracle)
    return system


EXPLICIT_BASIS = ("1", "q1", "q2", "v1", "q1*v2", "v1*v2", "1/q2",
                  "q1/(q2^2 + 1)", "(1 + v2)/(2 + q1)")
PARAMETRIC_BASIS = ("b*q1 + 1", "q2 - b", "b*v1", "1/(q1 + b)")
# two-form basis functions depend on the positions only
TWO_FORM_BASIS = ("1", "q1", "q2^2 - q1", "1/(q1^2 + 1)", "q2/(q1 + 3)")
PARAMETRIC_TWO_FORM = ("b*q1", "1/(q2 + b)")


def forward_case(rng, n, moving, parametric):
    """A system from ``forward_accelerations``: a kinetic matrix with
    diagonal ``k + 3`` and a symmetric +-1 or 0 next to it, whose first
    entry gains ``q_n`` when ``moving`` (so theta, Phi and R are
    rational), a polynomial potential and drift, and a random
    dissipation; a parameter ``b`` enters ``D`` when ``parametric``."""
    ctx = ExprContext(n, parameters=("b",) if parametric else ())

    def term(velocities, positions):
        value = ctx.const(Fraction(rng.choice((-3, -1, 1, 2)),
                                   rng.choice((1, 2, 3))))
        for _ in range(velocities):
            value = value * ctx.var(ctx.v(rng.randint(1, n)))
        for _ in range(rng.randint(0, positions)):
            value = value * ctx.var(ctx.q(rng.randint(1, n)))
        return value

    v = [ctx.var(ctx.v(k)) for k in range(1, n + 1)]
    L = ctx.zero
    for k in range(1, n + 1):
        entry = ctx.const(k + 3)
        if moving and k == 1:
            entry = entry + ctx.var(ctx.q(n))
        L = L + entry * v[k - 1] ** 2 / 2
        if k < n:
            L = L + rng.choice((-1, 0, 1)) * v[k - 1] * v[k]
        L = L + term(1, 1) - term(0, 2)
    D = sum((term(rng.randint(2, 3), 1) for _ in range(3)), ctx.zero)
    if parametric:
        D = D + ctx.var(ctx.param("b")) * term(2, 1)
    return ctx, Sode(ctx, forward_accelerations(L, D))


def random_data(rng, ctx, suite):
    """The fixed data of a ``suite`` ansatz over ``ctx``: for
    ``dissipative`` a random ``D``, sometimes with a denominator in the
    positions or a term in ``b``, or none; for ``gyroscopic`` two-form
    unknowns on random pairs, with basis functions drawn from
    ``TWO_FORM_BASIS`` (and ``PARAMETRIC_TWO_FORM`` when ``ctx`` declares
    ``b``), a fixed random two-form rational in the positions, or
    neither."""
    n = ctx.n
    if suite == "dissipative" and rng.random() < 0.8:
        D = random_poly(ctx, rng, degree=3, terms=3)
        if rng.random() < 0.4:
            D = D + random_poly(ctx, rng, degree=2, terms=1) / ctx.parse(
                f"q{n}^2 + 1")
        if ctx.parameters and rng.random() < 0.5:
            D = D + ctx.var(ctx.param("b")) * random_poly(ctx, rng, 2, 1)
        return {"D": D}
    if suite != "gyroscopic" or n < 2:
        return {}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = sorted(rng.sample(pairs, rng.randint(1, len(pairs))))
    kind = rng.choice(("unknowns", "unknowns", "fixed", "none"))
    if kind == "unknowns":
        texts = TWO_FORM_BASIS + (PARAMETRIC_TWO_FORM if ctx.parameters
                                  else ())
        return {"omega_basis": tuple(
            (pair, tuple(ctx.parse(text) for text in
                         rng.sample(texts, rng.randint(1, 2))))
            for pair in chosen)}
    if kind == "none":
        return {}
    entries = {}
    for i, j in chosen:
        entry = random_poly(ctx, rng, degree=2, terms=2, velocities=False)
        if rng.random() < 0.4:
            entry = entry / ctx.parse("q1 + 2")
        entries[(i, j)], entries[(j, i)] = entry, -entry
    return {"omega": TensorField(ctx, (0, 2), entries, antisym=((1, 2),))}


def random_problem(rng, ctx, kind, suite="thm3"):
    """An ansatz of ``suite`` over ``ctx`` with ``random_data``: a
    preset, or explicit entries on random pairs whose basis functions
    are drawn from ``EXPLICIT_BASIS`` (and ``PARAMETRIC_BASIS`` when
    ``ctx`` declares ``b``): velocity-dependent, rational and parametric
    ones."""
    n = ctx.n
    extra = random_data(rng, ctx, suite)
    if kind == "constant":
        return constant_ansatz(ctx, suite, **extra)
    if kind == "polynomial":
        return polynomial_ansatz(ctx, suite, 1, **extra)
    if kind == "diagonal":
        return diagonal_ansatz(ctx, suite, 2, **extra)
    texts = EXPLICIT_BASIS + (PARAMETRIC_BASIS if ctx.parameters else ())
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    entries = []
    for pair in sorted(rng.sample(pairs, rng.randint(1, len(pairs)))):
        basis = tuple(ctx.parse(text)
                      for text in rng.sample(texts, rng.randint(1, 3)))
        entries.append((pair, basis))
    return AnsatzProblem(suite, tuple(entries), **extra)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       moving=st.booleans(), parametric=st.booleans(),
       kind=st.sampled_from(("constant", "polynomial", "diagonal",
                             "explicit", "explicit")),
       suite=st.sampled_from(solver.SUITES))
def test_thm3_rows_equal_the_extended_ring_rows(seed, n, moving, parametric,
                                               kind, suite):
    """On systems from ``forward_accelerations`` with constant and
    position-dependent kinetic energy (rational theta, Phi and R), under
    every searchable suite, preset ansatze and explicit ones with
    velocity-dependent, rational and parametric basis functions, a fixed
    ``D``, a fixed two-form and two-form unknowns (``random_data``), the
    weight-table rows are the extended ring's, cell by cell."""
    rng = random.Random(seed)
    ctx, s = forward_case(rng, n, moving and n < 4, parametric)
    assert_rows_match_the_extended_oracle(
        s, random_problem(rng, ctx, kind, suite))


def extended_table_rows(s, problem, table):
    """The rows of the cells of ``table`` over ``problem``'s ansatz as
    the extended ring gives them: the terms evaluated on the symbolic
    multiplier and two-form and the problem's fixed ``D`` and two-form,
    all read through ``conditions._data`` (``conditions._evaluated``, as
    the suites evaluate them), each residual's numerator grouped as
    ``oracles.labelled`` groups those of a suite's run."""
    names = solver._unknown_names(s.ctx, len(problem.layout))
    ectx = s.ctx.with_parameters(names)
    g, omega = solver._ansatz_tensors(problem, ectx, [
        ectx.var(ectx.param(name)) for name in names])
    if omega is None and problem.omega is not None:
        omega = TensorField(ectx, (0, 2), {
            idx: convert(entry, ectx)
            for idx, entry in problem.omega.entries.items()},
            antisym=((1, 2),))
    D = convert(problem.D, ectx) if problem.D is not None else None
    extended = s.extended(ectx)
    data = conditions._data(extended, g.entries, D, omega)
    residuals = []
    for family, indices, terms in table:
        moved = tuple((sign, key, kind, convert(operand, ectx)
                       if kind == conditions.WEIGHT else operand)
                      for sign, key, kind, operand in terms)
        residual = conditions._evaluated(extended, data, {}, moved)
        if not residual.is_zero():
            residuals.append((conditions._label(family, *indices), residual))
    return oracles.labelled(oracles.ResidualSystem(
        names, tuple(residuals), ectx, problem))


def random_table(rng, s):
    """Cells of random terms over ``s``, with the random fixed ``D`` and
    two-form they read: terms of every kind on multiplier entries, on
    the velocity gradient of ``D`` and on two-form entries; weights,
    ``D`` and the two-form's entries are random polynomials over
    products of a few shared factors (the two-form's free of
    velocities), and pairs of weights on one entry differ by a
    polynomial, so that a cell's denominator, that of its known part
    too, cancels and must be divided out."""
    ctx, n = s.ctx, s.n
    indices = range(1, n + 1)
    factors = [ctx.parse(text) for text in ("q1 + 2", f"q{n}^2 + 1",
                                            "q1*v1 + 3")]

    def over(shared, degree=2, velocities=True):
        den = ctx.one
        for factor in rng.sample(shared, rng.randint(0, 2)):
            den = den * factor ** rng.randint(1, 2)
        return random_poly(ctx, rng, degree=degree, terms=2,
                           velocities=velocities) / den

    D = over(factors, degree=3) + over(factors, degree=3)
    two_form = {}
    for i, j in combinations(indices, 2):
        if rng.random() < 0.7:
            value = over(factors[:2], velocities=False)
            two_form[(i, j)], two_form[(j, i)] = value, -value
    omega = TensorField(ctx, (0, 2), two_form, antisym=((1, 2),))
    keys = ([(i, j) for i in indices for j in range(i, n + 1)]
            + [("D", i) for i in indices]
            + [("omega", i, j) for i, j in combinations(indices, 2)])
    table = []
    for cell in range(rng.randint(1, 4)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            key, sign = rng.choice(keys), rng.choice((1, -1))
            kind = rng.choice((conditions.WEIGHT, conditions.WEIGHT,
                               conditions.VELOCITY, conditions.HORIZONTAL,
                               conditions.FLOW, conditions.TWO_FORM,
                               "cancel"))
            if kind == "cancel":
                w = over(factors)
                terms += [(1, key, conditions.WEIGHT, w),
                          (-1, key, conditions.WEIGHT,
                           w + random_poly(ctx, rng, degree=1, terms=1))]
            elif kind == conditions.WEIGHT:
                w = over(factors)
                if not w.is_zero():
                    terms.append((sign, key, kind, w))
            elif kind == conditions.TWO_FORM:
                terms.append((sign, key, kind, (rng.randint(1, n),
                                                rng.randint(1, n))))
            else:
                terms.append((sign, key, kind, None if kind ==
                              conditions.FLOW else rng.randint(1, n)))
        table.append(("Cell", (cell,), tuple(terms)))
    return table, D, omega


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       kind=st.sampled_from(("constant", "polynomial", "explicit")),
       suite=st.sampled_from(("thm3", "gyroscopic")))
def test_ansatz_rows_of_random_tables_equal_the_extended_ring_rows(
        seed, n, kind, suite):
    """For random term tables on multiplier, ``D`` and two-form entries,
    with weights and fixed data over shared factors and cells whose
    denominator cancels, the rows of ``weights.ansatz_rows`` are the
    extended ring's, cell by cell, and as many. The ansatz carries the
    table's ``D``, and its two-form unless it declares two-form
    unknowns (``random_data`` of ``gyroscopic``), whatever its suite
    reads."""
    rng = random.Random(seed)
    ctx = ExprContext(n, parameters=("b",))
    s = random_sode(ctx, rng, degree=2)
    if kind == "explicit" and n < 2:
        kind = "polynomial"
    problem = random_problem(rng, ctx, kind, suite)
    table, D, omega = random_table(rng, s)
    problem = problem._replace(
        D=D, omega=None if problem.omega_basis else omega)
    rows, labels = weights.ansatz_rows(s, problem, table)
    expected = extended_table_rows(s, problem, table)
    assert len(rows) == len(expected.rows)
    new = LinearSystem((), tuple(rows), ctx, problem, tuple(labels))
    assert primitive_rows(new) == primitive_rows(expected)


FIXTURES = ("planar_drag", "planar_drag_euclidean", "planar_drag_gyro",
            "planar_drag_indefinite", "coupled3", "chain4", "chain4_gyro",
            "free2")


def fixture_families(problem, suite, degree):
    """Ansatze of ``suite`` over a loaded problem: a polynomial one of
    ``degree``, with the problem's ``D`` fixed for ``dissipative``, and
    for ``gyroscopic`` with its two-form fixed and with two-form
    unknowns of degree 1 instead; and its own ansatz when that searches
    ``suite``."""
    ctx, n = problem.ctx, problem.ctx.n
    extra = {}
    if suite == "dissipative" and problem.D is not None:
        extra["D"] = problem.D
    families = [polynomial_ansatz(ctx, suite, degree, **extra)]
    if suite == "gyroscopic":
        if problem.omega is not None:
            families.append(polynomial_ansatz(ctx, suite, degree,
                                              omega=problem.omega))
        families.append(polynomial_ansatz(ctx, suite, degree, omega_basis=tuple(
            ((i, j), q_monomials(ctx, 1)) for i in range(1, n + 1)
            for j in range(i + 1, n + 1))))
    if problem.ansatz is not None and problem.ansatz.get("suite") == suite:
        families.append(ansatz_problem(problem)[0])
    return families


@pytest.mark.parametrize("name", FIXTURES + ("search_n4_thm3",
                                             "fixed_drag_n4", "dense4"))
def test_thm3_rows_equal_the_extended_ring_rows_on_every_fixture(name):
    """Every explicit fixture and test problem under every searchable
    suite (``fixture_families`` of degree 1, constant for ``dense4``,
    whose n = 4 Phi is rational); and the preset and explicit families
    of the velocity-dependent, rational and parametric kinds, with
    ``random_data``, on ``coupled3`` and ``chain4``."""
    if name in FIXTURES:
        problem = load_problem(name, {})
    else:
        problem = load_problem(str(pathlib.Path(__file__).resolve().parent
                                   / "problems" / f"{name}.json"), {})
    s, ctx = problem.sode(), problem.ctx
    rng = random.Random(name)
    for suite in solver.SUITES:
        families = fixture_families(problem, suite,
                                    0 if name == "dense4" else 1)
        if name in ("coupled3", "chain4"):
            families += [random_problem(rng, ctx, "explicit", suite)
                         for _ in range(2)]
        for family in families:
            assert_rows_match_the_extended_oracle(s, family)


def test_thm3_assembly_runs_no_suite_and_builds_no_context(monkeypatch):
    """Assembly of every searchable suite reads the weight tables only:
    it neither extends the context with the unknowns, nor extends the
    system, nor runs the suite, and its rows are the oracle's, with a
    fixed ``D``, a fixed two-form and two-form unknowns too."""
    ctx, s = coupled_three()
    omega = TensorField(ctx, (0, 2), {
        (1, 2): ctx.parse("q3"), (2, 1): ctx.parse("-q3"),
        (2, 3): ctx.parse("1/(q1^2 + 1)"), (3, 2): ctx.parse("-1/(q1^2 + 1)")},
        antisym=((1, 2),))
    problems = [diagonal_ansatz(ctx, suite, 2) for suite in solver.SUITES] + [
        polynomial_ansatz(ctx, "dissipative", 1,
                          D=ctx.parse("q2*v1^2*v3 - v2^3/3")),
        polynomial_ansatz(ctx, "gyroscopic", 1, omega=omega),
        polynomial_ansatz(ctx, "gyroscopic", 1, omega_basis=(
            ((1, 3), (ctx.one, ctx.parse("q2/(q1 + 3)"))),
            ((2, 3), (ctx.parse("q1"),))))]
    expected = [primitive_rows(oracles.extended_system(s, problem))
                for problem in problems]

    def refused(*args, **kwargs):
        raise AssertionError("the extended path was taken")

    monkeypatch.setattr(ExprContext, "with_parameters", refused)
    monkeypatch.setattr(Sode, "extended", refused)
    monkeypatch.setattr(conditions, "check_suite", refused)
    monkeypatch.setattr(solver, "check_suite", refused)
    for problem, rows in zip(problems, expected):
        system = assemble(s, problem)
        assert primitive_rows(system) == rows and system.rows
    assert solve(assemble(s, problems[3])).dimension == 1


@pytest.mark.parametrize("name", ["coupled3", "chain4", "search_n4_thm3"])
def test_thm3_reverification_names_the_oracles_cell(name):
    """A perturbed solution point of a ``thm3`` system fails its packed
    re-verification of the rows at the cell that the extended-ring
    residuals name point by point (``oracles.reverify``), and the true
    points pass."""
    if name == "search_n4_thm3":
        name = str(pathlib.Path(__file__).resolve().parent / "problems"
                   / f"{name}.json")
    problem = load_problem(name, {})
    s, family = problem.sode(), ansatz_problem(problem)[0]
    system = assemble(s, family)
    oracle = oracles.extended_residuals(s, family)
    space = solve(system)
    assert space == solve(oracles.labelled(oracle))
    assert reverify_outcome(solver._reverify, system, space) is None
    rng = random.Random(name)
    failed = 0
    for _ in range(12):
        wrong = perturbed(space, rng)
        expected = reverify_outcome(oracles.reverify, oracle, wrong)
        assert reverify_outcome(solver._reverify, system, wrong) == expected
        failed += expected is not None
    assert failed


# --------------------------------------------------------------------------
# re-verification against substitution


def subst_reverify(system, space):
    """Reference for ``solver._reverify``: substitute the particular
    solution, and the particular solution shifted by every basis vector,
    into the residuals of the residual ``system`` and insist they vanish
    identically."""
    ectx = system.context
    unknown_vars = [ectx.param(name) for name in system.unknowns]
    points = [space.particular]
    for direction in space.nullspace:
        points.append(tuple(p + d for p, d in
                            zip(space.particular, direction)))
    for point in points:
        bindings = {var: ectx.const(value)
                    for var, value in zip(unknown_vars, point)}
        for label, residual in system.residuals:
            if not residual.subst(bindings).is_zero():
                raise InternalInconsistencyError(
                    f"solution fails re-verification at {label}")


def reverify_outcome(check, system, space):
    """The message ``check`` raises on ``space``, or None."""
    try:
        check(system, space)
    except InternalInconsistencyError as exc:
        return str(exc)
    return None


def spread(system, rng):
    """The residual ``system`` with residual ``k`` multiplied by ``a + b*q1^(k+1)*v1``
    for random nonzero integers ``a`` and ``b``: each residual vanishes
    where it did, and its unknowns now sit in monomials of ``q1`` and
    ``v1`` too."""
    ctx = system.context
    q1, v1 = ctx.var(ctx.q(1)), ctx.var(ctx.v(1))
    residuals = tuple(
        (label, residual * (ctx.const(rng.choice((-3, -1, 1, 2)))
                            + rng.choice((-2, 1, 5)) * q1 ** (k + 1) * v1))
        for k, (label, residual) in enumerate(system.residuals))
    return system._replace(residuals=residuals)


def perturbed(space, rng):
    """``space`` with one or two entries of its particular solution or
    of its basis vectors moved by small nonzero rationals, so that the
    points may fail at different cells."""
    vectors = [list(space.particular)] + [list(v) for v in space.nullspace]
    for _ in range(rng.randint(1, 2)):
        delta = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
        vectors[rng.randint(0, space.dimension)][
            rng.randrange(len(space.unknowns))] += delta
    return space._replace(particular=tuple(vectors[0]),
                          nullspace=tuple(map(tuple, vectors[1:])))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("random", "zero_rows", "rank_deficient")))
def test_reverification_agrees_with_substitution(seed, kind):
    """On the random systems of ``test_solve_matches_sympy_rref``, also
    with their residuals spread over monomials of ``q1`` and ``v1``, the
    integer pass over the residuals' rows (``oracles.labelled``) and
    substitution reach the same decision, with the same cell, at the
    true points (both pass) and at perturbed ones."""
    rng = random.Random(seed)
    system, residuals, _dense = random_system(rng, kind)
    space = solve(system)
    assume(space.consistent)
    for candidate in (residuals, spread(residuals, rng)):
        rows = oracles.labelled(candidate)
        assert reverify_outcome(solver._reverify, rows, space) is None
        assert reverify_outcome(subst_reverify, candidate, space) is None
        for _ in range(3):
            wrong = perturbed(space, rng)
            assert reverify_outcome(solver._reverify, rows, wrong) == \
                reverify_outcome(subst_reverify, candidate, wrong)


def fixed_drag_system():
    """``tests/problems/fixed_drag_n4.json``: ``D`` fixed, so the system
    is inhomogeneous; its space has dimension 2 and the particular
    solution ``g[1,1] = g[2,2] = -2/3``. Its assembled system, and the
    residuals of its suite's run in the extended ring."""
    problem = load_problem(str(pathlib.Path(__file__).resolve().parent
                               / "problems" / "fixed_drag_n4.json"), {})
    s, family = problem.sode(), ansatz_problem(problem)[0]
    return assemble(s, family), oracles.extended_residuals(s, family)


def shifted_rref(column):
    """``solver._rref`` with ``1/2`` added to entry ``column`` of its
    first pivot row over its pivot entry: in integers, the row doubled
    and its pivot entry added at ``column``. The right-hand side shifts
    the particular solution, a free column one basis vector."""
    original = solver._rref

    def shifted(rows):
        pivots = original(rows)
        first = min(pivots)
        row = {col: 2 * value for col, value in pivots[first].items()}
        row[column] = row.get(column, 0) + pivots[first][first]
        pivots[first] = row
        return pivots
    return shifted


@pytest.mark.parametrize("target", ["particular", "direction"])
def test_a_shifted_solution_fails_reverification_at_the_reference_cell(
        monkeypatch, target):
    """The fixed-dissipation system re-verifies as it is; a wrong
    particular solution, or a wrong basis vector, fails re-verification
    at the cell that substitution names, and only the shifted points
    fail."""
    system, residuals = fixed_drag_system()
    assert solve(system).dimension == 2
    pivots = solver._rref(system.rows)
    count = len(system.unknowns)
    free = [c for c in range(count) if c not in pivots]
    monkeypatch.setattr(solver, "_rref", shifted_rref(
        count if target == "particular" else free[0]))
    original, seen = solver._reverify, []

    def recording(system, space):
        seen.append(space)
        original(system, space)

    monkeypatch.setattr(solver, "_reverify", recording)
    with pytest.raises(InternalInconsistencyError) as caught:
        solve(system)
    (space,) = seen
    expected = reverify_outcome(subst_reverify, residuals, space)
    assert expected is not None and str(caught.value) == expected
    label = expected.rsplit(" ", 1)[1]
    assert label in dict(residuals.residuals)
    points = [space.particular] + [tuple(p + d for p, d in zip(
        space.particular, direction)) for direction in space.nullspace]
    failing = [k for k, point in enumerate(points)
               if reverify_outcome(subst_reverify, residuals, space._replace(
                   particular=point, nullspace=()))]
    assert failing == ([0, 1, 2] if target == "particular" else [1])


@pytest.mark.parametrize("text", ["c0^2 - q1*c1", "c0*c1 + v1"])
def test_reverification_refuses_a_residual_nonlinear_in_the_unknowns(text):
    """A hand-built residual system whose residual is not linear in the
    unknowns is refused by name when the rows oracle reads its rows, as
    the oracle's extended-ring assembly would refuse it."""
    ctx = ExprContext(1, ("c0", "c1"))
    problem = AnsatzProblem("classical", (((1, 1), (ctx.one, ctx.one)),))
    system = oracles.ResidualSystem(("c0", "c1"), (
        ("HD1[1,1,1]", ctx.parse("c0 - c1")),
        ("HD2[1,1]", ctx.parse(text))), ctx, problem)
    with pytest.raises(NonlinearCouplingError, match=r"^nonlinear unknown "
                       r"coupling at cell HD2\[1,1\]$"):
        solve(oracles.labelled(system))


# --------------------------------------------------------------------------
# elimination and re-verification against the straightforward oracles


def sparse_system(rng, width=None):
    """Sparse integer rows over ``width`` columns (up to 40 drawn from
    ``rng`` when not given), the last of them the right-hand side, in
    random order: random independent-looking rows,
    then duplicated, scaled and dependent ones, rows in the
    right-hand-side column only, and dependent rows with a shifted
    right-hand side, which make the system inconsistent; a third of the
    systems have neither and fewer base rows than columns. Values are
    small or past ``2**64``."""
    width = width or rng.randint(1, 40)
    rhs = width - 1
    consistent = rng.random() < 1 / 3
    kinds = ("duplicate", "scaled", "dependent")
    if not consistent:
        kinds += ("rhs", "shifted")

    def value():
        size = rng.choice((9, 9, 2**70))
        return rng.choice((-1, 1)) * rng.randint(1, size)

    def combination(rows):
        total = {}
        for row in rows:
            weight = value()
            for col, entry in row.items():
                total[col] = total.get(col, 0) + weight * entry
        return total

    base = [{col: value() for col in rng.sample(range(width),
                                                rng.randint(1, min(width, 8)))}
            for _ in range(rng.randint(0, width - 1 if consistent
                                       else width + 2))]
    rows = list(base)
    for _ in range(rng.randint(0, 2 * width)):
        kind = rng.choice(kinds)
        if kind == "rhs":
            rows.append({rhs: value()})
        elif not base:
            continue
        elif kind == "duplicate":
            rows.append(dict(rng.choice(base)))
        elif kind == "scaled":
            weight = value()
            rows.append({col: weight * entry
                         for col, entry in rng.choice(base).items()})
        else:
            row = combination(rng.sample(base, rng.randint(1,
                                                           min(3, len(base)))))
            if kind == "shifted":
                row[rhs] = row.get(rhs, 0) + value()
            rows.append({col: entry for col, entry in row.items() if entry})
    rows.extend({} for _ in range(rng.randint(0, 1)))
    rng.shuffle(rows)
    return rows


def shared_factor_system(rng, width):
    """Rows over ``width`` columns, the last the right-hand side, whose
    reduced pivot rows are fixed up front: each has a pivot entry 2, 3,
    4 or 6, often also at a free column times an integer, so that a
    kernel vector has a common factor above 1 and a particular solution
    is often not integral; the rows are the pivot rows scaled and
    random combinations of them, in random order."""
    rhs = width - 1
    leads = sorted(rng.sample(range(rhs), rng.randint(0, min(rhs, 6))))
    free = [col for col in range(width) if col not in leads]
    pivots = []
    for lead in leads:
        k = rng.choice((2, 3, 4, 6))
        row = {lead: k}
        for col in free:
            if col > lead and rng.random() < 0.5:
                row[col] = rng.choice((-1, 1)) * (
                    k * rng.randint(1, 3) if rng.random() < 0.6
                    else rng.randint(1, 9))
        pivots.append(row)
    rows = []
    for row in pivots:
        weight = rng.choice((-3, -1, 1, 2, 5))
        rows.append({col: weight * value for col, value in row.items()})
    for _ in range(rng.randint(0, 2 * len(pivots))):
        total = {}
        for row in rng.sample(pivots, rng.randint(1, len(pivots))):
            weight = rng.choice((-2, -1, 1, 3))
            for col, value in row.items():
                total[col] = total.get(col, 0) + weight * value
        rows.append({col: value for col, value in total.items() if value})
    rng.shuffle(rows)
    return rows


def normalised(pivots):
    """The integer pivot rows ``solver._rref`` returns, each checked to
    be in coprime integers with a positive pivot entry, in the form of
    ``oracles.rref``: the pivot columns in increasing order and each
    row over its pivot entry."""
    for col, row in pivots.items():
        assert all(type(value) is int and value for value in row.values())
        assert row[col] > 0 and gcd(*row.values()) == 1
    order = sorted(pivots)
    return order, [{c: Fraction(value, pivots[col][col])
                    for c, value in pivots[col].items()} for col in order]


def traced_rref(rows):
    """``solver._rref(rows)``, and whether some row passed the kernel
    test and still reduced to nothing: a row the test lets through must
    be new to the row space."""
    state = {"kernel": False, "wasted": False}
    reduce, kernel = solver._reduce, solver._kernel

    def reducing(row, pivots):
        out = reduce(row, pivots)
        state["wasted"] |= state["kernel"] and not out
        return out

    def reading(pivots, columns):
        state["kernel"] = True
        return kernel(pivots, columns)

    solver._reduce, solver._kernel = reducing, reading
    try:
        return solver._rref(rows), state["wasted"]
    finally:
        solver._reduce, solver._kernel = reduce, kernel


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rref_equals_the_one_pivot_at_a_time_oracle(seed):
    """On random sparse systems, the one-combination reduction with its
    kernel test gives exactly the pivots and rows of reducing by one
    pivot row at a time, and once the kernel is read, every row it does
    not skip adds a pivot."""
    rows = sparse_system(random.Random(seed))
    result, wasted = traced_rref(rows)
    assert normalised(result) == oracles.rref(rows)
    assert not wasted


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shared=st.booleans())
def test_solve_reads_the_space_as_the_fraction_oracle(seed, shared):
    """On the random sparse systems of
    ``test_rref_equals_the_one_pivot_at_a_time_oracle``, and on systems
    whose pivot rows share a factor with entries at free columns (so a
    kernel vector is divided by a common factor above 1 and a particular
    solution is not integral), ``solve``'s particular solution and
    nullspace basis equal, entry by entry and in order, those read off
    the one-pivot-at-a-time rows in ``Fraction``s and made primitive
    (``oracles.solution``)."""
    rng = random.Random(seed)
    width = rng.randint(1, 40)
    rows = (shared_factor_system if shared else sparse_system)(rng, width)
    count = width - 1
    system = LinearSystem(tuple(f"c{k}" for k in range(count)), tuple(rows),
                          ExprContext(1), None,
                          tuple(f"row{k}" for k in range(len(rows))))
    space = solve(system)
    order, pivot_rows = oracles.rref(rows)
    if count in order:
        assert not space.consistent
        return
    assert (space.particular, space.nullspace) == oracles.solution(
        order, pivot_rows, count)
    assert all(type(value) is Fraction for point in (
        space.particular, *space.nullspace) for value in point)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_over_lcm_equals_the_oracle_with_its_own_loops(seed):
    """On random pieces over shared denominator factors, some with a
    factor in both ``fa`` and ``fb`` (whose exponents add), and some
    sharing their ``a``, ``weights._over_lcm`` lifts every ``a`` and
    returns the lcm as the oracle's own top and lift loops do."""
    rng = random.Random(seed)
    ctx = ExprContext(2)
    factors = [factor for text in ("q1 + 1", "q2^2 + 1", "q1 - 2*q2",
                                   "q1*q2 + 3")
               for factor, _k in ctx.parse(f"1/({text})").den_factors]
    numerators = [ctx.parse(text).num for text in (
        "1", "q1", "2*q2 - 1", "q1^2*q2 + 3*q1", "-5")]

    def factorisation():
        return exprcore._factorisation({
            factor: rng.randint(1, 3)
            for factor in rng.sample(factors, rng.randint(0, 3))})

    pieces = []
    for _ in range(rng.randint(1, 6)):
        fa, fb = factorisation(), factorisation()
        if fa and rng.random() < 0.5:
            fb = exprcore._factorisation({**dict(fb),
                                          fa[0][0]: rng.randint(1, 2)})
        pieces.append((rng.randrange(5), rng.choice((-1, 1)),
                       rng.choice(numerators), rng.choice(numerators),
                       fa, fb))
    product = ctx._base.product
    assert weights._over_lcm(pieces, product) == oracles.over_lcm(
        pieces, product)


def test_rref_skips_the_rows_of_a_wide_search_by_kernel():
    """On the 50-unknown search of ``tests/problems/search_n4_thm3.json``
    more than ``KERNEL_FREE_COLUMNS`` columns start free, the kernel
    test skips most rows, and the result is the oracle's."""
    problem = load_problem(str(pathlib.Path(__file__).resolve().parent
                               / "problems" / "search_n4_thm3.json"), {})
    rows = assemble(problem.sode(), ansatz_problem(problem)[0]).rows
    calls = []
    reduce = solver._reduce
    solver._reduce = lambda row, pivots: calls.append(row) or reduce(
        row, pivots)
    try:
        result = solver._rref(rows)
    finally:
        solver._reduce = reduce
    assert normalised(result) == oracles.rref(rows)
    assert len(set().union(*rows)) > solver.KERNEL_FREE_COLUMNS
    assert len(calls) < len(rows) // 2


def reverify_case(rng, big, points, cells, perturb):
    """A hand-built residual system of ``cells`` residuals over
    ``points`` (the particular solution and its shifts) in which
    residual ``r`` vanishes
    at every point except those listed in ``perturb[r]``. Each shift moves its own unknown by a huge
    integer and leaves the others alone; a residual is a huge linear
    form in the other unknowns, less its value at the particular
    solution, plus, when perturbed at point ``p > 0``, a multiple of
    the unknown of shift ``p``, or a constant when ``p == 0``."""
    others = rng.randint(1, 3)
    count = points - 1 + others
    names = tuple(f"c{k}" for k in range(count))
    ctx = ExprContext(1, names)
    unknowns = [ctx.var(ctx.param(name)) for name in names]
    particular = [Fraction(rng.randint(-big, big), rng.randint(1, big))
                  for _ in range(count)]
    shifts = []
    for k in range(points - 1):
        shift = [Fraction(0)] * count
        shift[k] = Fraction(rng.choice((-1, 1)) * rng.randint(1, big))
        shifts.append(tuple(shift))
    residuals = []
    for r in range(cells):
        weights = [rng.randint(-big, big) for _ in range(others)]
        total = ctx.const(-sum(w * particular[points - 1 + k]
                               for k, w in enumerate(weights)))
        for k, w in enumerate(weights):
            total = total + ctx.const(w) * unknowns[points - 1 + k]
        for p in perturb.get(r, ()):
            nudge = ctx.const(rng.choice((-1, 1)) * rng.randint(1, big))
            total = total + (nudge * (unknowns[p - 1] - ctx.const(
                particular[p - 1])) if p else nudge)
        residuals.append((f"cell {r}", total))
    problem = AnsatzProblem("classical", (((1, 1), (ctx.one,) * count),))
    system = oracles.ResidualSystem(names, tuple(residuals), ctx, problem)
    space = solver.SolutionSpace(names, tuple(shifts), tuple(particular),
                                 None, problem, 1)
    return system, space


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), points=st.integers(1, 4),
       big=st.sampled_from((2**64 + 1, 2**80, 3**50)),
       last_only=st.booleans(), spread_out=st.booleans())
def test_reverification_equals_the_point_by_point_oracle(
        seed, points, big, last_only, spread_out):
    """With coefficients and point values past ``2**64``, the packed
    re-check names the same cell as summing point by point: when only
    the last point is perturbed, in one or more cells, and when any
    points are, also with the residuals spread over monomials of ``q1``
    and ``v1``."""
    rng = random.Random(seed)
    cells = rng.randint(1, 3)
    perturb = {}
    for _ in range(rng.randint(1, 3)):
        cell = rng.randrange(cells)
        point = points - 1 if last_only else rng.randrange(points)
        perturb.setdefault(cell, set()).add(point)
    system, space = reverify_case(rng, big, points, cells, perturb)
    if spread_out:
        system = spread(system, rng)
    expected = reverify_outcome(oracles.reverify, system, space)
    assert expected is not None
    assert reverify_outcome(solver._reverify, oracles.labelled(system),
                            space) == expected
    clean, clean_space = reverify_case(rng, big, points, cells, {})
    assert reverify_outcome(solver._reverify, oracles.labelled(clean),
                            clean_space) is None


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 200), sign=st.sampled_from((-1, 1)),
       case=st.sampled_from(("cancel", "carry")))
def test_reverification_at_the_field_boundary(k, sign, case):
    """Point fields whose value reaches ``2**(width - 1)``, the most the
    bound allows: ``cancel`` fails at the first point with ``±2**k`` and
    at the second with ``∓1``, which one bit less per field would sum to
    zero; ``carry`` fails in its first cell with ``±2**k`` and in its
    second with ``1``, both at the last point, which one bit less would
    read as the first cell failing past the last point."""
    ctx = ExprContext(1, ("c0", "c1"))
    c0, c1 = (ctx.var(ctx.param(name)) for name in ("c0", "c1"))
    problem = AnsatzProblem("classical", (((1, 1), (ctx.one, ctx.one)),))
    top = Fraction(sign * 2**k)
    if case == "cancel":
        residuals = (("cell 0", c0),)
        particular, shifts = (top, Fraction(0)), ((-sign - top, 0),)
    else:
        residuals = (("cell 0", c0), ("cell 1", c1))
        particular, shifts = (Fraction(0), Fraction(0)), ((top, 1),)
    system = oracles.ResidualSystem(("c0", "c1"), residuals, ctx, problem)
    space = solver.SolutionSpace(("c0", "c1"), tuple(
        tuple(map(Fraction, shift)) for shift in shifts), particular, None,
        problem, 1)
    expected = reverify_outcome(oracles.reverify, system, space)
    assert expected == "solution fails re-verification at cell 0"
    assert reverify_outcome(solver._reverify, oracles.labelled(system),
                            space) == expected
