"""Tests for the ansatz-family multiplier search."""

import pathlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlag import conditions, geometry, poly, solver
from invlag.cli import ansatz_problem, load_problem
from invlag.exprcore import ExprContext
from invlag.geometry import (InternalInconsistencyError, Sode, TensorField,
                             curvature, jacobi, matrix_det)
from invlag.reconstruct import forward_accelerations, forward_sode
from invlag.solver import (AnsatzProblem, LinearSystem,
                           NonlinearCouplingError, Representative,
                           SolverError, assemble,
                           constant_ansatz, diagonal_ansatz,
                           find_nonsingular, instantiate, polynomial_ansatz,
                           q_monomials, solve)
from invlag.conditions import (Cell, ConditionReport,
                               check_multiplier_dissipative)

from clirun import run_cli


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
    """Assembly reads the system's geometry through an extension, so a
    whole ``solve`` builds each object at most once, and only in the
    fixture's own context, never in the one that declares unknowns."""
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


@pytest.mark.parametrize("text, message", [
    ("c0*c1 + q1", "nonlinear unknown coupling"),
    ("c1^2 - c0", "nonlinear unknown coupling"),
    ("1/c0", "unknowns in a denominator"),
    ("q1/(q1 + c1) + 1/q1", "unknowns in a denominator"),
])
def test_residuals_nonlinear_in_the_unknowns_are_refused(monkeypatch, text,
                                                         message):
    """Assembly refuses a cell that is not linear in the unknowns and
    names it; no supported suite makes one, so the suite is replaced."""
    ctx = ExprContext(1)
    s = Sode(ctx, [ctx.zero])
    problem = AnsatzProblem("classical",
                            (((1, 1), (ctx.one, ctx.parse("q1"))),))

    def report(suite, s_e, g, D=None, omega=None):
        assert s_e.ctx.parameters == ("c0", "c1")
        return ConditionReport(suite, (
            Cell("HD1[1,1,1]", s_e.ctx.parse("c0 - q1*c1 + 2")),
            Cell("DHSym[1,1]", s_e.ctx.parse(text))))

    monkeypatch.setattr(solver, "check_suite", report)
    with pytest.raises(NonlinearCouplingError,
                       match=rf"^{message} at cell DHSym\[1,1\]$"):
        assemble(s, problem)


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
    """The augmented rows of ``system`` rebuilt from ``num.terms()``, as
    dense Fractions: the residuals' terms grouped by the monomial in
    everything but the unknowns, the constant negated into the last
    column, all-zero rows dropped."""
    ectx = system.context
    count = len(system.unknowns)
    columns = {ectx.gen_index(ectx.param(name)): k
               for k, name in enumerate(system.unknowns)}
    dense = []
    for _label, residual in system.residuals:
        groups = {}
        for monom, coeff in residual.num.terms():
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
    Fraction matrix of the same residuals, with as many rows."""
    s, problem = build()
    system = assemble(s, problem)
    dense = dense_fraction_rows(system)
    assert len(system.rows) == len(dense)
    assert all(value and isinstance(value, int)
               for row in system.rows for value in row.values())
    assert_matches_sympy_rref(solve(system), dense)


def random_system(rng, kind):
    """A small rational system ``rows · c = rhs`` whose residuals
    ``rows · c - rhs`` carry the unknowns as parameters, and its dense
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
    return (LinearSystem(names, tuple(sparse), tuple(residuals), ctx,
                         problem), dense)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("random", "empty", "zero_rows",
                             "rank_deficient", "inconsistent")))
def test_solve_matches_sympy_rref(seed, kind):
    system, dense = random_system(random.Random(seed), kind)
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
# re-verification against substitution


def subst_reverify(system, space):
    """Reference for ``solver._reverify``: substitute the particular
    solution, and the particular solution shifted by every basis vector,
    into the assembled residuals and insist they vanish identically."""
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
    """``system`` with residual ``k`` multiplied by ``a + b*q1^(k+1)*v1``
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
    integer pass and substitution reach the same decision, with the same
    cell, at the true points (both pass) and at perturbed ones."""
    rng = random.Random(seed)
    system, _dense = random_system(rng, kind)
    space = solve(system)
    assume(space.consistent)
    for candidate in (system, spread(system, rng)):
        assert reverify_outcome(solver._reverify, candidate, space) is None
        assert reverify_outcome(subst_reverify, candidate, space) is None
        for _ in range(3):
            wrong = perturbed(space, rng)
            assert reverify_outcome(solver._reverify, candidate, wrong) == \
                reverify_outcome(subst_reverify, candidate, wrong)


def fixed_drag_system():
    """``tests/problems/fixed_drag_n4.json``: ``D`` fixed, so the system
    is inhomogeneous; its space has dimension 2 and the particular
    solution ``g[1,1] = g[2,2] = -2/3``."""
    problem = load_problem(str(pathlib.Path(__file__).resolve().parent
                               / "problems" / "fixed_drag_n4.json"), {})
    return assemble(problem.sode(), ansatz_problem(problem)[0])


def shifted_rref(column):
    """``solver._rref`` with ``1/2`` added to entry ``column`` of its
    first pivot row: the right-hand side shifts the particular solution,
    a free column one basis vector."""
    original = solver._rref

    def shifted(rows):
        pivots, pivot_rows = original(rows)
        row = dict(pivot_rows[0])
        row[column] = row.get(column, 0) + Fraction(1, 2)
        return pivots, [row] + pivot_rows[1:]
    return shifted


@pytest.mark.parametrize("target", ["particular", "direction"])
def test_a_shifted_solution_fails_reverification_at_the_reference_cell(
        monkeypatch, target):
    """The fixed-dissipation system re-verifies as it is; a wrong
    particular solution, or a wrong basis vector, fails re-verification
    at the cell that substitution names, and only the shifted points
    fail."""
    system = fixed_drag_system()
    assert solve(system).dimension == 2
    pivots, _rows = solver._rref(system.rows)
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
    expected = reverify_outcome(subst_reverify, system, space)
    assert expected is not None and str(caught.value) == expected
    label = expected.rsplit(" ", 1)[1]
    assert label in dict(system.residuals)
    points = [space.particular] + [tuple(p + d for p, d in zip(
        space.particular, direction)) for direction in space.nullspace]
    failing = [k for k, point in enumerate(points)
               if reverify_outcome(subst_reverify, system, space._replace(
                   particular=point, nullspace=()))]
    assert failing == ([0, 1, 2] if target == "particular" else [1])


@pytest.mark.parametrize("text", ["c0^2 - q1*c1", "c0*c1 + v1"])
def test_reverification_refuses_a_residual_nonlinear_in_the_unknowns(text):
    """A hand-built system whose residual is not linear in the unknowns
    is refused by name, as assembly would refuse it."""
    ctx = ExprContext(1, ("c0", "c1"))
    problem = AnsatzProblem("classical", (((1, 1), (ctx.one, ctx.one)),))
    system = LinearSystem(("c0", "c1"), (), (
        ("HD1[1,1,1]", ctx.parse("c0 - c1")),
        ("HD2[1,1]", ctx.parse(text))), ctx, problem)
    with pytest.raises(NonlinearCouplingError, match=r"^nonlinear unknown "
                       r"coupling at cell HD2\[1,1\]$"):
        solve(system)
