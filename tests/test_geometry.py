"""Checks the geometric layer: connection coefficients, horizontal and
flow derivatives, the Jacobi endomorphism, curvature, and covariant
derivatives, against hand-computed values for two reference systems and
against structural identities on random systems."""

import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlag.cli import load_problem
from invlag.exprcore import Expr, ExprContext, ExprError, convert, lincomb
from invlag.geometry import (DimensionMismatchError, GeometryError,
                             InternalInconsistencyError, Sode,
                             TensorField, connection, curvature, d_basic,
                             gamma_apply, horizontal_apply,
                             identity_matrix, jacobi, matrix_det,
                             matrix_solve, nabla_tensor02, theta_tensor)

from exprgen import random_expr, random_poly, random_sode
from oracles import cramer_solve, dh_jacobi, nabla_tensor12, outcome


def planar_drag():
    """Linear planar system with a rotational force and velocity drag."""
    ctx = ExprContext(2, parameters=("a", "b", "omega"))
    f = [ctx.parse("-a*q1 - b*q2 - omega*v1"),
         ctx.parse("b*q1 - a*q2 + omega*v2")]
    return ctx, Sode(ctx, f)


def coupled_three():
    """Three-dimensional system with quadratic velocity coupling and a
    position-dependent denominator."""
    ctx = ExprContext(3)
    f = [ctx.parse("q2*v1*v3"), ctx.parse("v3^2"),
         ctx.parse("v1^2 - v2*v3/q2")]
    return ctx, Sode(ctx, f)


def test_connection_of_planar_drag():
    ctx, s = planar_drag()
    conn = connection(s)
    assert conn.entry(1, 1) == ctx.parse("1/2*omega")
    assert conn.entry(2, 2) == ctx.parse("-1/2*omega")
    assert conn.entry(1, 2).is_zero() and conn.entry(2, 1).is_zero()


def test_jacobi_of_planar_drag():
    ctx, s = planar_drag()
    jac = jacobi(s)
    assert jac.entry(1, 1) == ctx.parse("a - 1/4*omega^2")
    assert jac.entry(2, 2) == ctx.parse("a - 1/4*omega^2")
    assert jac.entry(1, 2) == ctx.parse("b")
    assert jac.entry(2, 1) == ctx.parse("-b")


def test_planar_drag_is_flat():
    _, s = planar_drag()
    assert curvature(s).is_zero()


def test_flow_derivatives_of_planar_metrics():
    ctx, s = planar_drag()
    indefinite = TensorField.from_matrix(
        ctx, [[ctx.one, ctx.zero], [ctx.zero, -ctx.one]], sym=((1, 2),))
    offdiag = TensorField.from_matrix(
        ctx, [[ctx.zero, ctx.one], [ctx.one, ctx.zero]], sym=((1, 2),))
    euclid = identity_matrix(ctx)
    grad1 = nabla_tensor02(s, indefinite)
    assert grad1.entry(1, 1) == ctx.parse("-omega")
    assert grad1.entry(2, 2) == ctx.parse("-omega")
    assert grad1.entry(1, 2).is_zero()
    assert nabla_tensor02(s, offdiag).is_zero()
    grad3 = nabla_tensor02(s, euclid)
    assert grad3.entry(1, 1) == ctx.parse("-omega")
    assert grad3.entry(2, 2) == ctx.parse("omega")
    assert grad3.entry(1, 2).is_zero()


def test_connection_of_coupled_system():
    ctx, s = coupled_three()
    conn = connection(s)
    expected = {
        (1, 1): "-1/2*q2*v3", (1, 3): "-1/2*q2*v1",
        (2, 3): "-v3",
        (3, 1): "-v1", (3, 2): "1/2*v3*q2^(-1)", (3, 3): "1/2*v2*q2^(-1)",
    }
    for i in range(1, 4):
        for j in range(1, 4):
            want = expected.get((i, j))
            if want is None:
                assert conn.entry(i, j).is_zero(), (i, j)
            else:
                assert conn.entry(i, j) == ctx.parse(want), (i, j)


def test_jacobi_of_coupled_system():
    ctx, s = coupled_three()
    jac = jacobi(s)
    rows = [
        ["-1/4*q2^2*v3^2", "-3/4*v1*v3", "1/4*q2^2*v1*v3 + 3/4*v1*v2"],
        ["-v1*v3", "1/2*v3^2/q2", "v1^2 - 1/2*v2*v3/q2"],
        ["1/2*q2*v1*v3 + 1/2*v1*v2/q2",
         "-1/4*v2*v3/q2^2 - 1/2*v1^2/q2",
         "-1/2*q2*v1^2 + 1/4*v2^2/q2^2"],
    ]
    for i in range(1, 4):
        for j in range(1, 4):
            assert jac.entry(i, j) == ctx.parse(rows[i - 1][j - 1]), (i, j)


def test_curvature_of_coupled_system():
    ctx, s = coupled_three()
    R = curvature(s)
    expected = {
        (1, 1, 2): "-1/4*v3",
        (1, 1, 3): "1/4*q2^2*v3 + 1/4*v2",
        (1, 2, 3): "1/2*v1",
        (2, 1, 3): "v1",
        (2, 2, 3): "-1/2*v3/q2",
        (3, 1, 2): "-1/2*v1/q2",
        (3, 1, 3): "-1/2*q2*v1",
        (3, 2, 3): "1/4*v2/q2^2",
    }
    for k in range(1, 4):
        for i in range(1, 4):
            for j in range(i + 1, 4):
                want = expected.get((k, i, j))
                if want is None:
                    assert R.entry(k, i, j).is_zero(), (k, i, j)
                else:
                    assert R.entry(k, i, j) == ctx.parse(want), (k, i, j)
                assert R.entry(k, j, i) == -R.entry(k, i, j)


def test_curvature_cross_check_catches_a_corrupt_jacobi():
    """``curvature`` compares its two formulas only for i < j; a
    velocity-dependent term slipped into one Jacobi entry still makes
    them disagree."""
    ctx, s = coupled_three()
    jac = jacobi(s)
    entries = dict(jac.entries)
    entries[(1, 2)] = jac.entry(1, 2) + ctx.parse("v1^2")
    s._memo["jacobi"] = TensorField(ctx, (1, 1), entries)
    with pytest.raises(InternalInconsistencyError):
        curvature(s)


@pytest.mark.parametrize("entry, table", [
    ((1, 2, 3), "connection_q"),      # d Gamma^1_2 / d q^3
    ((1, 1, 3), "theta"),             # d Gamma^1_1 / d v^3 = d Gamma^1_3 / d v^1
])
def test_curvature_cross_check_catches_a_corrupt_derivative_table(entry,
                                                                  table):
    """With the Jacobi endomorphism already built, a corrupt entry of a
    table of connection derivatives reaches only the connection route of
    the curvature, which then disagrees with the Jacobi route. A theta
    entry is changed on both of its symmetric slots."""
    ctx, s = coupled_three()
    jacobi(s)
    values = s._memo[table].entries
    k, i, j = entry
    for idx in {(k, i, j), (k, j, i)} if table == "theta" else {entry}:
        values[idx] = values.get(idx, ctx.zero) + ctx.parse("v2")
    with pytest.raises(InternalInconsistencyError):
        curvature(s)


def test_theta_torsion_check_catches_a_corrupt_connection():
    """A connection entry whose velocity derivative breaks the symmetry
    of theta in its lower slots is reported as torsion."""
    ctx, s = coupled_three()
    entries = dict(connection(s).entries)
    entries[(1, 2)] = entries.get((1, 2), ctx.zero) + ctx.parse("q1*v3")
    s._memo["connection"] = TensorField(ctx, (1, 1), entries)
    with pytest.raises(InternalInconsistencyError,
                       match=r"torsion: declared symmetric slots \(2, 3\)"):
        theta_tensor(s)


@pytest.mark.parametrize("name, calls", [("coupled3", 72), ("chain4", 144)])
def test_geometry_differentiates_each_connection_entry_once(name, calls,
                                                            monkeypatch):
    """Building the connection, the Jacobi endomorphism, theta and the
    curvature takes ``n^2`` derivatives for the connection, ``n^2`` for
    ``df/dq``, ``n`` each for the tables of the connection's position
    and velocity derivatives per nonzero connection entry and ``n^2 (n
    - 1)`` for the Jacobi route of the curvature: 72 for ``coupled3``
    (6 nonzero entries of 9) and 144 for ``chain4`` (8 of 16). A system
    extended to more parameters converts these objects and never
    builds the position table."""
    s = load_problem(name, {}).sode()
    extended = s.extended(s.ctx.with_parameters(["c"]))
    counted = []
    original = Expr.diff

    def diff(self, var):
        counted.append(var)
        return original(self, var)

    monkeypatch.setattr(Expr, "diff", diff)
    for build in (connection, jacobi, theta_tensor, curvature):
        build(s)
    assert len(counted) == calls
    for build in (connection, jacobi, theta_tensor, curvature):
        build(extended)
    assert len(counted) == calls
    assert "connection_q" in s._memo and "connection_q" not in extended._memo


def test_flow_derivative_of_coupled_metric():
    ctx, s = coupled_three()
    g = TensorField.from_matrix(
        ctx,
        [[ctx.parse("4"), ctx.zero, ctx.zero],
         [ctx.zero, ctx.one, ctx.zero],
         [ctx.zero, ctx.zero, ctx.parse("2*q2")]],
        sym=((1, 2),))
    grad = nabla_tensor02(s, g)
    assert grad.entry(1, 1) == ctx.parse("4*q2*v3")
    assert grad.entry(1, 3) == ctx.parse("4*q2*v1")
    assert grad.entry(3, 1) == ctx.parse("4*q2*v1")
    for pair in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        assert grad.entry(*pair).is_zero(), pair
    dissipation = ctx.parse("2*q2*v1^2*v3")
    for i in range(1, 4):
        for j in range(1, 4):
            hess = dissipation.diff(ctx.v(i)).diff(ctx.v(j))
            assert grad.entry(i, j) == hess, (i, j)


def test_vertical_derivative_of_jacobi_gives_three_curvatures():
    ctx, s = coupled_three()
    jac, R = jacobi(s), curvature(s)
    three = ctx.const(3)
    for k in range(1, 4):
        for i in range(1, 4):
            for j in range(1, 4):
                lhs = jac.entry(k, j).diff(ctx.v(i)) - jac.entry(k, i).diff(ctx.v(j))
                assert lhs == three * R.entry(k, i, j), (k, i, j)


def test_horizontal_commutator_is_curvature_contraction():
    ctx, s = coupled_three()
    R = curvature(s)
    F = ctx.parse("q2*v1^2*v3 + v2*v3 + q1*q3")
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = (horizontal_apply(s, i, horizontal_apply(s, j, F))
                   - horizontal_apply(s, j, horizontal_apply(s, i, F)))
            rhs = ctx.zero
            for k in range(1, 4):
                rhs = rhs + R.entry(k, i, j) * F.diff(ctx.v(k))
            assert lhs == rhs, (i, j)


def test_flow_derivative_against_direct_formula():
    ctx, s = coupled_three()
    F = ctx.parse("q1*v2 + q2^2*v3")
    direct = (ctx.var(ctx.v(1)) * F.diff(ctx.q(1))
              + ctx.var(ctx.v(2)) * F.diff(ctx.q(2))
              + ctx.var(ctx.v(3)) * F.diff(ctx.q(3))
              + s.f[0] * F.diff(ctx.v(1))
              + s.f[1] * F.diff(ctx.v(2))
              + s.f[2] * F.diff(ctx.v(3)))
    assert gamma_apply(s, F) == direct


def test_identities_on_random_systems():
    """On random polynomial systems the two curvature formulas agree
    (asserted internally), the vertical connection derivative is
    symmetric (asserted internally), and the antisymmetrised horizontal
    derivative of the Jacobi endomorphism equals the covariant flow
    derivative of the curvature."""
    rng = random.Random(31415)
    for n in (2, 3):
        ctx = ExprContext(n)
        for _ in range(3):
            s = random_sode(ctx, rng, degree=2)
            theta_tensor(s)
            R = curvature(s)
            assert dh_jacobi(s) == nabla_tensor12(s, R)


GEOMETRY = {"connection": connection, "jacobi": jacobi,
            "curvature": curvature, "theta": theta_tensor}


def assert_extension_matches_recomputation(s, extra, order):
    """The geometric objects of ``s.extended(ectx)``, read in ``order``,
    equal those of the same system built in ``ectx`` from scratch,
    declared symmetries included."""
    ectx = s.ctx.with_parameters(extra)
    extended = s.extended(ectx)
    direct = Sode(ectx, [convert(f, ectx) for f in s.f])
    assert extended.origin is s and extended.f == direct.f
    for key in order:
        got, want = GEOMETRY[key](extended), GEOMETRY[key](direct)
        assert got == want, key
        assert (got.sym, got.antisym) == (want.sym, want.antisym), key


def random_rational_sode(ctx, rng):
    """Polynomial right-hand sides over a nonconstant denominator in the
    positions."""
    f = []
    for _ in range(ctx.n):
        den = random_poly(ctx, rng, degree=1, terms=2, velocities=False)
        if den.is_constant():
            den = den + ctx.var(ctx.q(rng.randint(1, ctx.n)))
        f.append(random_poly(ctx, rng, degree=2) / den)
    return Sode(ctx, f)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       rational=st.booleans(), extra=st.integers(1, 6),
       order=st.permutations(sorted(GEOMETRY)))
def test_extended_geometry_equals_recomputation(seed, n, rational, extra, order):
    ctx = ExprContext(n, parameters=("a",))
    rng = random.Random(seed)
    s = (random_rational_sode(ctx, rng) if rational
         else random_sode(ctx, rng, degree=2))
    assert_extension_matches_recomputation(
        s, [f"c{k}" for k in range(extra)], order)


@pytest.mark.parametrize("name", ["coupled3", "planar_drag", "chain4_gyro"])
def test_extended_fixture_geometry_equals_recomputation(name):
    s = load_problem(name, {}).sode()
    assert_extension_matches_recomputation(
        s, [f"c{k}" for k in range(50)], ["curvature", "theta", "jacobi",
                                          "connection"])


def test_matrix_det_and_solve():
    ctx = ExprContext(3)
    g = TensorField.from_matrix(
        ctx,
        [[ctx.parse("4"), ctx.zero, ctx.zero],
         [ctx.zero, ctx.one, ctx.zero],
         [ctx.zero, ctx.zero, ctx.parse("2*q2")]])
    assert matrix_det(g) == ctx.parse("8*q2")
    rhs = [ctx.parse("4*v1"), ctx.parse("v2"), ctx.parse("2*q2*v3")]
    assert matrix_solve(g, rhs) == [ctx.parse("v1"), ctx.parse("v2"),
                                    ctx.parse("v3")]


def leibniz_det(tensor):
    """Reference determinant: the sum over all permutations, each signed
    by the parity of its inversion count."""
    n = tensor.n
    total = tensor.ctx.zero
    for perm in permutations(range(1, n + 1)):
        inversions = sum(perm[a] > perm[b]
                         for a, b in combinations(range(n), 2))
        term = tensor.ctx.one
        for i, j in enumerate(perm, 1):
            term = term * tensor.entry(i, j)
        total = total - term if inversions % 2 else total + term
    return total


def random_matrix(ctx, rng, kind):
    """A random n x n tensor with about a third of its entries zero;
    ``kind`` picks polynomial entries, rational entries with a
    non-constant denominator, or expressions in the parameters too."""
    def entry():
        if rng.random() < 0.3:
            return ctx.zero
        if kind == "parametric":
            return random_expr(ctx, rng, depth=2)
        value = random_poly(ctx, rng, degree=2, terms=2)
        if kind == "rational":
            den = random_poly(ctx, rng, degree=1, terms=2)
            value = value / (den + ctx.var(ctx.q(1)) if den.is_constant()
                             else den)
        return value
    n = ctx.n
    return TensorField.from_matrix(
        ctx, [[entry() for _ in range(n)] for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       kind=st.sampled_from(("polynomial", "rational", "parametric")))
def test_matrix_det_matches_leibniz_sum(seed, n, kind):
    ctx = ExprContext(n, parameters=("a", "b"))
    g = random_matrix(ctx, random.Random(seed), kind)
    assert matrix_det(g) == leibniz_det(g)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       kind=st.sampled_from(("polynomial", "rational", "parametric")))
def test_matrix_solve_inverts_the_product(seed, n, kind):
    ctx = ExprContext(n, parameters=("a", "b"))
    rng = random.Random(seed)
    g = random_matrix(ctx, rng, kind)
    assume(not leibniz_det(g).is_zero())
    x = [random_expr(ctx, rng, depth=2) for _ in range(n)]
    rhs = []
    for i in range(1, n + 1):
        total = ctx.zero
        for j in range(1, n + 1):
            total = total + g.entry(i, j) * x[j - 1]
        rhs.append(total)
    assert matrix_solve(g, rhs) == x


def small_matrix(ctx, rng, kind):
    """A random n x n tensor of linear polynomials, about a third of
    them zero; with ``kind`` ``rational`` about half the others are
    divided by a denominator drawn from four, in the positions or the
    parameters."""
    n = ctx.n
    pool = [ctx.parse(text) for text in
            ("q1 + 1", f"a - q{n}", f"q1*q{n} + 2", "b + 1/2")]

    def entry():
        if rng.random() < 0.3:
            return ctx.zero
        value = random_poly(ctx, rng, degree=1, terms=2)
        if kind == "rational" and rng.random() < 0.5:
            value = value / rng.choice(pool)
        return value
    return TensorField.from_matrix(
        ctx, [[entry() for _ in range(n)] for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       kind=st.sampled_from(("polynomial", "rational")),
       singular=st.booleans())
def test_matrix_solve_equals_cramers_rule(seed, n, kind, singular):
    """The characteristic-polynomial solve returns what Cramer's rule
    does, for any right-hand side, and refuses a singular matrix with
    the same error. A singular matrix has a zero row (n = 1) or a last
    row that is a combination of the others with polynomial weights."""
    ctx = ExprContext(n, parameters=("a", "b"))
    rng = random.Random(seed)
    g = small_matrix(ctx, rng, kind)
    if singular:
        rows = g.matrix()
        weights = [random_poly(ctx, rng, degree=1, terms=2)
                   for _ in range(n - 1)]
        rows[-1] = [lincomb(ctx, list(zip(weights, [row[j] for row in rows])))
                    for j in range(n)]
        g = TensorField.from_matrix(ctx, rows)
    rhs = [random_expr(ctx, rng, depth=2) for _ in range(n)]
    expected = outcome(cramer_solve, g, rhs)
    assert outcome(matrix_solve, g, rhs) == expected
    if singular:
        assert expected == (GeometryError,
                            "matrix is singular as an expression", None)


def test_matrix_det_of_dense_symbolic_six_by_six():
    n = 6
    ctx = ExprContext(n, parameters=[f"a{i}{j}" for i in range(1, n + 1)
                                     for j in range(i, n + 1)])
    g = TensorField.from_matrix(
        ctx, [[ctx.parse(f"a{min(i, j)}{max(i, j)}")
               for j in range(1, n + 1)] for i in range(1, n + 1)],
        sym=((1, 2),))
    assert matrix_det(g) == leibniz_det(g)


def test_d_basic_components():
    ctx = ExprContext(3)
    alpha = {(1,): ctx.parse("q2"), (2,): ctx.parse("-q1"),
             (3,): ctx.parse("q1*q3")}
    assert d_basic(ctx, alpha, 1) == {(1, 2): ctx.parse("-2"),
                                      (1, 3): ctx.parse("q3"),
                                      (2, 3): ctx.zero}
    omega = {(2, 3): ctx.parse("q1^2"), (1, 3): ctx.parse("q2")}
    assert d_basic(ctx, omega, 2) == {(1, 2, 3): ctx.parse("2*q1 - 1")}
    assert d_basic(ctx, {(): ctx.parse("q1*q2")}, 0) == {
        (1,): ctx.parse("q2"), (2,): ctx.parse("q1"), (3,): ctx.zero}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((3, 4)),
       degree=st.sampled_from((1, 2)))
def test_d_basic_squares_to_zero(seed, n, degree):
    ctx = ExprContext(n)
    rng = random.Random(seed)
    form = {idx: random_poly(ctx, rng, degree=3, velocities=False)
            for idx in combinations(range(1, n + 1), degree)}
    twice = d_basic(ctx, d_basic(ctx, form, degree), degree + 1)
    assert set(twice) == set(combinations(range(1, n + 1), degree + 2))
    assert all(value.is_zero() for value in twice.values())


def test_matrix_solve_rejects_singular():
    ctx = ExprContext(2)
    g = TensorField.from_matrix(ctx, [[ctx.one, ctx.one], [ctx.one, ctx.one]])
    with pytest.raises(GeometryError):
        matrix_solve(g, [ctx.one, ctx.one])


def test_matrix_solve_rejects_a_mismatched_right_hand_side():
    ctx = ExprContext(2)
    g = identity_matrix(ctx)
    with pytest.raises(DimensionMismatchError, match="dimension"):
        matrix_solve(g, [ctx.one])
    other = ExprContext(2, parameters=("a",))
    with pytest.raises(DimensionMismatchError, match="different context"):
        matrix_solve(g, [ctx.one, other.one])


def test_tensor_symmetry_validation():
    ctx = ExprContext(2)
    with pytest.raises(GeometryError):
        TensorField(ctx, (0, 2), {(1, 2): ctx.one, (2, 1): -ctx.one},
                    sym=((1, 2),))
    skew = TensorField(ctx, (0, 2), {(1, 2): ctx.one, (2, 1): -ctx.one},
                       antisym=((1, 2),))
    assert skew.entry(2, 1) == -ctx.one
    with pytest.raises(GeometryError):
        TensorField(ctx, (0, 2), {(1, 1): ctx.one}, antisym=((1, 2),))


def test_sode_rejects_bad_contexts():
    deep = ExprContext(2, max_jet_order=2)
    with pytest.raises(GeometryError):
        Sode(deep, [deep.zero, deep.zero])
    timed = ExprContext(2, uses_time=True)
    with pytest.raises(GeometryError):
        Sode(timed, [timed.zero, timed.zero])
    ctx = ExprContext(2)
    with pytest.raises(DimensionMismatchError):
        Sode(ctx, [ctx.zero])
    other = ExprContext(2, parameters=("a",))
    with pytest.raises(DimensionMismatchError):
        Sode(ctx, [other.zero, other.zero])


def test_tensor_rejects_foreign_entries():
    ctx = ExprContext(2)
    other = ExprContext(2, parameters=("a",))
    with pytest.raises(DimensionMismatchError):
        TensorField(ctx, (0, 2), {(1, 1): other.one})


def reference_symmetry_error(ctx, entries, sym, antisym):
    """The declared-symmetry check in its plain form, kept as a
    reference for ``TensorField``: after zero entries are dropped, each
    pair a swap exchanges is compared once, in entry order, by ``Expr``
    equality against the partner (negated for an antisymmetric pair).
    Returns the message the constructor should raise, or None."""
    entries = {idx: value for idx, value in entries.items()
               if not value.is_zero()}
    for slots, kind in ((sym, "symmetric"), (antisym, "antisymmetric")):
        for s1, s2 in slots:
            done = set()
            for idx, value in entries.items():
                if idx in done:
                    continue
                swapped = list(idx)
                swapped[s1 - 1], swapped[s2 - 1] = idx[s2 - 1], idx[s1 - 1]
                done.add(tuple(swapped))
                other = entries.get(tuple(swapped), ctx.zero)
                if value != (other if kind == "symmetric" else -other):
                    return f"declared {kind} slots {(s1, s2)} violated at {idx}"
    return None


def random_declared_tensor(rng):
    """A small tensor (n <= 3, rank 2 or 3) with random symmetry
    declarations, whose entries mostly honour them: each entry's partner
    across a declared pair is drawn as agreeing, missing, sign-flipped
    or unrelated, and some entries are zero, most of those on an
    antisymmetric diagonal."""
    n, rank = rng.randint(1, 3), rng.randint(2, 3)
    ctx = ExprContext(n, parameters=("a",))
    pairs = list(combinations(range(1, rank + 1), 2))
    rng.shuffle(pairs)
    cut = rng.randint(0, len(pairs))
    sym = pairs[:cut][:rng.randint(0, 2)]
    antisym = pairs[cut:][:rng.randint(0, 2)]
    indices = list(product(range(1, n + 1), repeat=rank))
    rng.shuffle(indices)
    entries, seen = {}, set()
    for idx in indices:
        if idx in seen:
            continue
        seen.add(idx)
        diagonal = any(idx[s1 - 1] == idx[s2 - 1] for s1, s2 in antisym)
        value = (ctx.zero if rng.random() < (0.8 if diagonal else 0.15)
                 else random_expr(ctx, rng, depth=2))
        entries[idx] = value
        for (s1, s2), sign in [(p, 1) for p in sym] + [(p, -1) for p in antisym]:
            swapped = list(idx)
            swapped[s1 - 1], swapped[s2 - 1] = idx[s2 - 1], idx[s1 - 1]
            swapped = tuple(swapped)
            if swapped in seen:
                continue
            seen.add(swapped)
            how = rng.choice(("agree", "agree", "agree", "missing",
                              "flipped", "unrelated"))
            if how == "agree":
                entries[swapped] = value * sign
            elif how == "flipped":
                entries[swapped] = value * -sign
            elif how == "unrelated":
                entries[swapped] = random_expr(ctx, rng, depth=2)
    items = list(entries.items())
    rng.shuffle(items)
    shape = rng.randint(0, rank)
    return ctx, (shape, rank - shape), dict(items), sym, antisym


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_declared_symmetries_raise_exactly_as_the_reference(seed):
    """The constructor's symmetry validation raises exactly when the
    plain reference check finds a violation, with the same message."""
    ctx, shape, entries, sym, antisym = random_declared_tensor(
        random.Random(seed))
    expected = reference_symmetry_error(ctx, entries, sym, antisym)
    if expected is None:
        tensor = TensorField(ctx, shape, entries, sym=sym, antisym=antisym)
        assert tensor.entries == {idx: value for idx, value in entries.items()
                                  if not value.is_zero()}
    else:
        with pytest.raises(GeometryError) as raised:
            TensorField(ctx, shape, entries, sym=sym, antisym=antisym)
        assert str(raised.value) == expected


def test_tensor_index_checks():
    """Indices are checked against the layout of the tensor's size."""
    ctx = ExprContext(2)
    for idx in [(1,), (1, 2, 1), (0, 1), (1, 3)]:
        with pytest.raises(GeometryError, match="bad index"):
            TensorField(ctx, (0, 2), {idx: ctx.one})
    assert TensorField(ctx, (1, 2), {(2, 1, 2): ctx.one}).entry(2, 1, 2) == ctx.one


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_flow_derivative_of_declared_symmetric_tensor(seed, n):
    """Built on ``i <= j`` and mirrored for a ``g`` declared symmetric,
    the flow derivative equals the one built entry by entry for the
    same ``g`` without the declaration."""
    ctx = ExprContext(n)
    rng = random.Random(seed)
    s = random_rational_sode(ctx, rng)
    upper = {(i, j): random_poly(ctx, rng, degree=2)
             for i in range(1, n + 1) for j in range(i, n + 1)}
    entries = {(i, j): upper[(min(i, j), max(i, j))]
               for i in range(1, n + 1) for j in range(1, n + 1)}
    symmetric = nabla_tensor02(s, TensorField(ctx, (0, 2), entries,
                                              sym=((1, 2),)))
    plain = nabla_tensor02(s, TensorField(ctx, (0, 2), entries))
    assert symmetric == plain
    assert list(symmetric.entries) == list(plain.entries)


def test_horizontal_apply_checks_its_index():
    ctx, s = coupled_three()
    for i in (0, 4):
        with pytest.raises(ExprError):
            horizontal_apply(s, i, ctx.parse("q1*v2"))
