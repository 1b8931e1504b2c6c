"""Tests for certificate reconstruction, verification, and the forward
problem."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlag.exprcore import ExprContext, NotPolynomialError
from invlag.geometry import (DimensionMismatchError, GeometryError, Sode,
                             TensorField, identity_matrix, matrix_det)
from invlag.reconstruct import (BasePointError, Certificate,
                                MultiplierCheckError,
                                SingularHessianError, base_homotopy,
                                forward_accelerations,
                                forward_sode, hessian, reconstruct_dissipative,
                                reconstruct_gyroscopic, verify_dissipative,
                                verify_gyroscopic, vertical_homotopy2)
from invlag.conditions import TwoFormError, check_suite

from exprgen import random_poly, small_fraction
from oracles import (base_homotopy_by_parts, outcome,
                     vertical_homotopy2_by_parts)


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


def antidiag(ctx):
    one = ctx.one
    zero = ctx.zero
    return TensorField.from_matrix(ctx, [[zero, one], [one, zero]],
                                   sym=((1, 2),))


def two_form(ctx, value):
    return TensorField(ctx, (0, 2), {(1, 2): value, (2, 1): -value},
                       antisym=((1, 2),))


def test_euclidean_multiplier_recovers_drag_pair():
    """The identity multiplier on the planar drag system produces the
    expected Lagrangian and dissipation function exactly."""
    ctx, s = planar_drag()
    cert = reconstruct_dissipative(s, identity_matrix(ctx))
    assert cert.kind == "dissipative"
    assert cert.L == ctx.parse("1/2*(v1^2 + v2^2)")
    assert cert.D == ctx.parse(
        "-a*(q1*v1 + q2*v2) + b*(q1*v2 - q2*v1) + 1/2*omega*(v2^2 - v1^2)")
    assert cert.D.diff(ctx.v(1)) == ctx.parse("-a*q1 - b*q2 - omega*v1")
    assert verify_dissipative(s, cert.L, cert.D).passes


def test_certificates_compare_without_their_verification():
    """Two certificates of the same data are equal and hash alike
    whatever report verified them; a certificate is frozen."""
    ctx, s = planar_drag()
    cert = reconstruct_dissipative(s, identity_matrix(ctx))
    fields = (cert.kind, cert.L, cert.D, cert.omega, cert.gauge)
    bare = Certificate(*fields)
    assert bare.verification is None and cert.verification.passes
    assert bare == cert and hash(bare) == hash(cert)
    assert bare != Certificate(cert.kind, cert.L, ctx.zero, gauge=cert.gauge)
    assert bare != fields
    assert repr(bare) == (f"Certificate(kind='dissipative', L={cert.L!r}, "
                          f"D={cert.D!r}, omega=None, gauge={cert.gauge!r}, "
                          "verification=None)")
    for name in ("kind", "verification"):
        with pytest.raises(AttributeError):
            setattr(cert, name, None)


def test_antidiagonal_multiplier_certificate():
    """The antidiagonal multiplier needs a velocity-linear gauge term in
    the Lagrangian; the base homotopy supplies it deterministically."""
    ctx, s = planar_drag()
    cert = reconstruct_dissipative(s, antidiag(ctx))
    assert cert.L == ctx.parse("v1*v2 + 1/2*omega*(q1*v2 - q2*v1)")
    assert cert.D == ctx.parse("(b*q1 - a*q2)*v1 - (a*q1 + b*q2)*v2")
    assert cert.gauge.lagrangian_linear == (ctx.parse("-1/2*omega*q2"),
                                            ctx.parse("1/2*omega*q1"))
    assert cert.gauge.lagrangian_scalar.is_zero()
    assert hessian(cert.L) == antidiag(ctx)


def test_coupled_metric_certificate():
    ctx, s = coupled_three()
    g = TensorField.from_matrix(
        ctx,
        [[ctx.parse("4"), ctx.zero, ctx.zero],
         [ctx.zero, ctx.one, ctx.zero],
         [ctx.zero, ctx.zero, ctx.parse("2*q2")]],
        sym=((1, 2),))
    cert = reconstruct_dissipative(s, g)
    assert cert.L == ctx.parse("1/2*(4*v1^2 + v2^2 + 2*q2*v3^2)")
    assert cert.D == ctx.parse("2*q2*v1^2*v3")
    assert all(a.is_zero() for a in cert.gauge.lagrangian_linear)
    assert all(e.is_zero() for e in cert.gauge.dissipation_linear)


def test_verify_dissipative_accepts_known_pair():
    ctx, s = planar_drag()
    L = ctx.parse("1/2*(v1^2 - v2^2) - 1/2*a*(q1^2 - q2^2) - b*q1*q2")
    D = ctx.parse("-1/2*omega*(v1^2 + v2^2)")
    report = verify_dissipative(s, L, D)
    assert report.passes
    assert report.suite == "lagrange-dissipative"
    assert report.nonsingularity.determinant == ctx.parse("-1")
    assert report.nonsingularity.nonsingular


def test_verify_dissipative_flags_missing_dissipation():
    """Dropping the dissipation function leaves a velocity residual in
    the first equation."""
    ctx, s = planar_drag()
    L = ctx.parse("1/2*(v1^2 - v2^2) - 1/2*a*(q1^2 - q2^2) - b*q1*q2")
    report = verify_dissipative(s, L, ctx.zero)
    assert not report.passes
    assert report.cell("EL[1]").residual == ctx.parse("-omega*v1")
    assert report.cell("EL[2]").residual == ctx.parse("-omega*v2")


def test_verify_gyroscopic_examples():
    ctx, s = planar_drag()
    L = ctx.parse("v1*v2 - a*q1*q2 - 1/2*b*(q2^2 - q1^2)")
    assert verify_gyroscopic(s, L, two_form(ctx, ctx.parse("omega"))).passes
    flipped = verify_gyroscopic(s, L, two_form(ctx, ctx.parse("-omega")))
    assert not flipped.passes
    assert flipped.cell("EL[1]").residual == ctx.parse("2*omega*v2")


def test_verify_gyroscopic_zero_form_matches_dissipative_zero():
    ctx, s = planar_drag()
    L = ctx.parse("v1*v2 + 1/2*omega*(q1*v2 - q2*v1)"
                  " - a*q1*q2 - 1/2*b*(q2^2 - q1^2)")
    gyro = verify_gyroscopic(s, L, two_form(ctx, ctx.zero))
    plain = verify_dissipative(s, L, ctx.zero)
    assert gyro.passes and plain.passes
    for cell in gyro.cells:
        assert plain.cell(cell.label).residual == cell.residual


def test_verify_gyroscopic_rejects_velocity_dependence():
    ctx, s = planar_drag()
    with pytest.raises(TwoFormError):
        verify_gyroscopic(s, ctx.parse("v1*v2"),
                          two_form(ctx, ctx.parse("v1")))


def test_constant_two_form_recovered_from_drag_system():
    """The planar drag system with the antidiagonal multiplier carries
    a constant gyroscopic two-form; reconstruction returns it along
    with the textbook Lagrangian."""
    ctx, s = planar_drag()
    cert = reconstruct_gyroscopic(s, antidiag(ctx))
    assert cert.kind == "gyroscopic"
    assert cert.omega.entry(1, 2) == ctx.parse("omega")
    assert cert.L == ctx.parse("v1*v2 - a*q1*q2 - 1/2*b*(q2^2 - q1^2)")
    assert cert.gauge.lagrangian_scalar == ctx.parse(
        "-a*q1*q2 - 1/2*b*(q2^2 - q1^2)")
    assert verify_gyroscopic(s, cert.L, cert.omega).passes


def test_curved_rotation_reconstruction():
    """A position-dependent rotation force needs a genuinely gyroscopic
    certificate: the recovered two-form is not closed, so no potential
    could absorb it."""
    ctx = ExprContext(3)
    s = Sode(ctx, [ctx.parse("q3*v2"), ctx.parse("-q3*v1"), ctx.zero])
    cert = reconstruct_gyroscopic(s, identity_matrix(ctx))
    assert cert.kind == "gyroscopic"
    assert cert.omega.entry(1, 2) == ctx.parse("q3")
    assert cert.omega.entry(2, 3).is_zero()
    assert cert.omega.entry(3, 1).is_zero()
    assert cert.L == ctx.parse("1/2*(v1^2 + v2^2 + v3^2)")
    assert verify_gyroscopic(s, cert.L, cert.omega).passes
    assert hessian(cert.L) == identity_matrix(ctx)
    # the derivative of the two-form matches the lowered curvature cycle
    closure = (cert.omega.entry(2, 3).diff(ctx.q(1))
               + cert.omega.entry(3, 1).diff(ctx.q(2))
               + cert.omega.entry(1, 2).diff(ctx.q(3)))
    assert closure == ctx.one


def test_conservative_force_lands_in_dissipation_term():
    """The dissipative route never moves velocity-free residuals into a
    potential: they stay in the dissipation function as exact terms."""
    ctx = ExprContext(2)
    s = Sode(ctx, [ctx.parse("-q1"), ctx.parse("-q2")])
    cert = reconstruct_dissipative(s, identity_matrix(ctx))
    assert cert.kind == "dissipative"
    assert cert.D == ctx.parse("-q1*v1 - q2*v2")
    assert verify_dissipative(s, cert.L, cert.D).passes
    gyro = reconstruct_gyroscopic(s, identity_matrix(ctx))
    assert gyro.kind == "classical"
    assert gyro.L == ctx.parse("1/2*(v1^2 + v2^2) - 1/2*(q1^2 + q2^2)")


def test_free_particle_certificates_are_trivial():
    ctx = ExprContext(2)
    s = Sode(ctx, [ctx.zero, ctx.zero])
    cert = reconstruct_dissipative(s, identity_matrix(ctx))
    assert cert.kind == "classical"
    assert cert.D.is_zero()
    assert cert.L == ctx.parse("1/2*(v1^2 + v2^2)")


def test_failing_multiplier_raises_with_report():
    ctx, s = planar_drag()
    bad = TensorField.from_matrix(
        ctx, [[ctx.one, ctx.zero], [ctx.zero, ctx.parse("q1 + 1")]],
        sym=((1, 2),))
    with pytest.raises(MultiplierCheckError) as info:
        reconstruct_dissipative(s, bad)
    assert not info.value.report.passes
    assert info.value.report.failing()
    euclidean = identity_matrix(ctx)
    with pytest.raises(MultiplierCheckError) as info:
        reconstruct_gyroscopic(s, euclidean)
    assert info.value.report.suite == "thm4"


@pytest.mark.parametrize("diagonal", [(0, 0), (1, 0)])
def test_a_singular_multiplier_is_refused_on_both_routes(diagonal):
    """On the free particle a constant singular multiplier passes both
    existence tests, but its Lagrangian would be degenerate: both routes
    refuse it with the passing existence report attached."""
    ctx = ExprContext(2)
    s = Sode(ctx, [ctx.zero, ctx.zero])
    g = TensorField.from_matrix(
        ctx, [[ctx.const(diagonal[0]), ctx.zero],
              [ctx.zero, ctx.const(diagonal[1])]], sym=((1, 2),))
    for builder, suite in ((reconstruct_dissipative, "thm3"),
                           (reconstruct_gyroscopic, "thm4")):
        with pytest.raises(MultiplierCheckError) as info:
            builder(s, g)
        report = info.value.report
        assert report.suite == suite and report.passes
        assert not report.nonsingularity.nonsingular


def test_vertical_homotopy_weights():
    ctx, _ = planar_drag()
    constant = TensorField.from_matrix(
        ctx, [[ctx.parse("2"), ctx.zero], [ctx.zero, ctx.parse("4*q1")]],
        sym=((1, 2),))
    assert vertical_homotopy2(constant) == ctx.parse("v1^2 + 2*q1*v2^2")
    cubic = TensorField.from_matrix(
        ctx, [[ctx.parse("6*v1"), ctx.zero], [ctx.zero, ctx.zero]],
        sym=((1, 2),))
    assert vertical_homotopy2(cubic) == ctx.parse("v1^3")


def test_vertical_homotopy_inverts_hessian_on_random_functions():
    """Any function vanishing to second order at rest is recovered
    exactly from its velocity Hessian."""
    import random
    rng = random.Random(90210)
    for n in (2, 3):
        ctx = ExprContext(n)
        for _ in range(6):
            total = ctx.zero
            for _ in range(5):
                term = ctx.const(small_fraction(rng))
                for _ in range(rng.randint(2, 4)):
                    term = term * ctx.var(ctx.v(rng.randint(1, n)))
                for _ in range(rng.randint(0, 2)):
                    term = term * ctx.var(ctx.q(rng.randint(1, n)))
                total = total + term
            assert vertical_homotopy2(hessian(total)) == total


def test_vertical_homotopy_rejections():
    ctx, _ = planar_drag()
    lopsided = TensorField(ctx, (0, 2), {(1, 2): ctx.one})
    with pytest.raises(GeometryError):
        vertical_homotopy2(lopsided)
    rational = TensorField.from_matrix(
        ctx, [[ctx.parse("1/(1 + v1^2)"), ctx.zero], [ctx.zero, ctx.one]],
        sym=((1, 2),))
    with pytest.raises(NotPolynomialError):
        vertical_homotopy2(rational)
    uneven = TensorField.from_matrix(
        ctx, [[ctx.parse("v2"), ctx.zero], [ctx.zero, ctx.zero]],
        sym=((1, 2),))
    with pytest.raises(GeometryError):
        vertical_homotopy2(uneven)


def _homotopy_tensor(ctx, rng, v_rational, uneven, lopsided):
    """The velocity Hessian of a random function polynomial in the
    velocities, its coefficients rational in the positions about half
    the time, with up to three defects added: the Hessian of a function
    rational in the velocities, a symmetric ``c*v_k`` that breaks the
    vertical symmetry, and a constant on one side of the diagonal."""
    n = ctx.n
    velocities = [ctx.var(ctx.v(k)) for k in range(1, n + 1)]
    positions = [ctx.var(ctx.q(k)) for k in range(1, n + 1)]
    total = ctx.zero
    for _ in range(4):
        term = ctx.const(small_fraction(rng))
        for _ in range(rng.randint(2, 4)):
            term = term * rng.choice(velocities)
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(positions)
        total = total + term
    if rng.random() < 0.5:
        total = total / ctx.parse(rng.choice(("q1 + 1", f"a - q{n}")))
    if v_rational:
        total = total + ctx.parse(rng.choice(
            ("1/(1 + v1 + q1)", "v1^2/v2" if n > 1 else "v1^3/(v1 + q1)")))
    entries = dict(hessian(total).entries)
    if uneven:
        i, j, k = (rng.randint(1, n) for _ in range(3))
        for idx in {(i, j), (j, i)}:
            entries[idx] = entries.get(idx, ctx.zero) + velocities[k - 1]
    if lopsided and n > 1:
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        entries[(i, j)] = entries.get((i, j), ctx.zero) + ctx.one
    return TensorField(ctx, (0, 2), entries)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       v_rational=st.booleans(), uneven=st.booleans(),
       lopsided=st.booleans())
def test_vertical_homotopy2_equals_the_sum_of_its_parts(
        seed, n, v_rational, uneven, lopsided):
    """One degree-weighted sum returns what the part-by-part homotopy
    does, and a lopsided, uneven or velocity-rational tensor raises the
    same error, the first of its defects in the same order."""
    ctx = ExprContext(n, parameters=("a",))
    M = _homotopy_tensor(ctx, random.Random(seed), v_rational, uneven,
                         lopsided)
    assert (outcome(vertical_homotopy2, M)
            == outcome(vertical_homotopy2_by_parts, M))


def _homotopy_form(ctx, rng, degree, pole, rational):
    """A random ``degree``-form on the base, all its components: each
    independent one polynomial in the positions (sometimes in the
    velocities too, sometimes over a parameter denominator), plus, when
    asked, components with a pole at the origin or rational in the
    positions without one."""
    n = ctx.n
    kinds = ["plain", "parameter"] + ["pole"] * pole + ["rational"] * rational
    form = {}
    for idx in combinations(range(1, n + 1), degree):
        value = random_poly(ctx, rng, degree=3,
                            velocities=rng.random() < 0.3)
        kind = rng.choice(kinds)
        if kind == "parameter":
            value = value / ctx.parse("a + 2")
        elif kind == "pole":
            value = value + ctx.const(small_fraction(rng, 1, 6)) / ctx.parse(
                rng.choice((f"q{idx[0]}", f"q1 + q{n}", f"q1^2 + q{n}")))
        elif kind == "rational":
            value = value / ctx.parse(rng.choice(("q1 + 1", f"a - q{n}")))
        for perm in permutations(range(degree)):
            inversions = sum(perm[a] > perm[b]
                             for a, b in combinations(range(degree), 2))
            form[tuple(idx[p] for p in perm)] = (-value if inversions % 2
                                                 else value)
    return form


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       degree=st.integers(1, 3), pole=st.booleans(), rational=st.booleans())
def test_base_homotopy_equals_the_sum_of_its_parts(seed, n, degree, pole,
                                                   rational):
    """One degree-weighted sum per component returns what the
    part-by-part homotopy does, and a form with a pole at the origin or
    rational in the positions raises the same error, at the first such
    component in the same order."""
    ctx = ExprContext(n, parameters=("a",))
    form = _homotopy_form(ctx, random.Random(seed), degree, pole, rational)
    assert (outcome(base_homotopy, ctx, form, degree)
            == outcome(base_homotopy_by_parts, ctx, form, degree))


def test_forward_sode_drag_pair():
    ctx = ExprContext(2, parameters=("a", "b", "omega"))
    L = ctx.parse("1/2*(v1^2 - v2^2) - 1/2*a*(q1^2 - q2^2) - b*q1*q2")
    D = ctx.parse("-1/2*omega*(v1^2 + v2^2)")
    s = forward_sode(L, D, 2)
    assert s.f[0] == ctx.parse("-a*q1 - b*q2 - omega*v1")
    assert s.f[1] == ctx.parse("b*q1 - a*q2 + omega*v2")


def test_forward_sode_guards():
    ctx = ExprContext(2)
    with pytest.raises(SingularHessianError):
        forward_sode(ctx.parse("q1*v1"), ctx.zero, 2)
    with pytest.raises(DimensionMismatchError):
        forward_sode(ctx.parse("1/2*(v1^2 + v2^2)"), ctx.zero, 3)
    other = ExprContext(2, parameters=("k",))
    with pytest.raises(DimensionMismatchError):
        forward_sode(ctx.parse("1/2*(v1^2 + v2^2)"), other.zero, 2)


def _random_regular_pair(ctx, rng):
    """A Lagrangian with constant invertible kinetic matrix plus random
    potential and drift terms, and a random polynomial dissipation."""
    n = ctx.n
    while True:
        rows = [[ctx.const(Fraction(rng.randint(-3, 3))) for _ in range(n)]
                for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
        kinetic = TensorField.from_matrix(ctx, rows, sym=((1, 2),))
        if not matrix_det(kinetic).is_zero():
            break
    L = vertical_homotopy2(kinetic)

    def q_poly(degree):
        total = ctx.zero
        for _ in range(3):
            term = ctx.const(small_fraction(rng))
            for _ in range(rng.randint(0, degree)):
                term = term * ctx.var(ctx.q(rng.randint(1, n)))
            total = total + term
        return total

    for i in range(1, n + 1):
        L = L + q_poly(2) * ctx.var(ctx.v(i))
    L = L - q_poly(3)
    D = ctx.zero
    for _ in range(4):
        term = ctx.const(small_fraction(rng))
        for _ in range(rng.randint(0, 3)):
            term = term * ctx.var(ctx.v(rng.randint(1, n)))
        for _ in range(rng.randint(0, 2)):
            term = term * ctx.var(ctx.q(rng.randint(1, n)))
        D = D + term
    return L, D


def test_forward_backward_round_trip():
    """Solving the forward problem and reconstructing from the Hessian
    always lands on a verified certificate with the same multiplier."""
    import random
    rng = random.Random(60601)
    for n in (2, 3):
        ctx = ExprContext(n)
        for _ in range(3):
            L, D = _random_regular_pair(ctx, rng)
            s = forward_sode(L, D, n)
            g = hessian(L)
            cert = reconstruct_dissipative(s, g)
            assert verify_dissipative(s, cert.L, cert.D).passes
            assert hessian(cert.L) == g


def _random_two_form(ctx, rng):
    """A basic two-form whose entries are random polynomials of degree
    up to two in the positions."""
    entries = {}
    for i, j in combinations(range(1, ctx.n + 1), 2):
        value = random_poly(ctx, rng, terms=2, velocities=False)
        entries[(i, j)], entries[(j, i)] = value, -value
    return TensorField(ctx, (0, 2), entries, antisym=((1, 2),))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       gyroscopic=st.booleans())
def test_forward_then_reconstruct_returns_the_system(seed, n, gyroscopic):
    """The accelerations of ``L`` with a constant invertible kinetic
    matrix, driven by a random polynomial ``D`` or a random basic
    ``omega``, reconstructed from the Hessian of ``L`` along the
    matching route: the certificate verifies, has that Hessian, and its
    own forward problem gives the same accelerations back."""
    rng = random.Random(seed)
    ctx = ExprContext(n)
    L, D = _random_regular_pair(ctx, rng)
    g = hessian(L)
    if gyroscopic:
        omega = _random_two_form(ctx, rng)
        s = Sode(ctx, forward_accelerations(L, omega=omega))
        cert = reconstruct_gyroscopic(s, g)
        assert verify_gyroscopic(s, cert.L, cert.omega).passes
        assert forward_accelerations(cert.L, omega=cert.omega) == list(s.f)
    else:
        s = Sode(ctx, forward_accelerations(L, D))
        cert = reconstruct_dissipative(s, g)
        assert verify_dissipative(s, cert.L, cert.D).passes
        assert forward_accelerations(cert.L, cert.D) == list(s.f)
    assert hessian(cert.L) == g


def _failing_families(report):
    return {cell.label.split("[")[0] for cell in report.failing()}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_every_explicit_suite_passes_on_the_system_its_data_generates(
        seed, n):
    """``L`` with a constant invertible kinetic matrix, alone, with a
    random polynomial ``D`` or with a random basic ``omega``, gives
    three systems by the forward problem. On each, the suites of its
    force pass on the Hessian of ``L``; ``rayleigh`` passes exactly when
    ``D`` is at most quadratic in the velocities. A velocity-quadratic
    change of ``D`` fails at an HD2 cell, and at n = 3 a change of
    ``omega`` that changes ``d omega`` fails at an Hg3 cell; at n <= 2
    ``d omega`` vanishes, so ``gyroscopic`` passes with any two-form."""
    rng = random.Random(seed)
    ctx = ExprContext(n)
    L, D = _random_regular_pair(ctx, rng)
    omega = _random_two_form(ctx, rng)
    g = hessian(L)
    c = ctx.const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                           rng.randint(1, 4)))
    a, b = rng.randint(1, n), rng.randint(1, n)

    s = Sode(ctx, forward_accelerations(L))
    for suite in ("classical", "prop2a"):
        assert check_suite(suite, s, g).passes, suite

    s = Sode(ctx, forward_accelerations(L, D))
    assert check_suite("dissipative", s, g, D=D).passes
    assert check_suite("thm3", s, g).passes
    velocities = [ctx.v(k) for k in range(1, n + 1)]
    quadratic = max(D.homogeneous_parts(velocities), default=0) <= 2
    rayleigh = check_suite("rayleigh", s, g)
    assert rayleigh.passes == quadratic
    assert rayleigh.notes[0].endswith(": pass")
    changed = D + c * ctx.var(ctx.v(a)) * ctx.var(ctx.v(b))
    assert "HD2" in _failing_families(
        check_suite("dissipative", s, g, D=changed))

    s = Sode(ctx, forward_accelerations(L, omega=omega))
    assert check_suite("gyroscopic", s, g, omega=omega).passes
    assert check_suite("thm4", s, g).passes
    if n < 3:
        assert check_suite("gyroscopic", s, g).passes
    else:
        i, j = sorted(rng.sample(range(1, 4), 2))
        k = 6 - i - j
        bump = c * ctx.var(ctx.q(k))
        entries = dict(omega.entries)
        entries[i, j] = omega.entry(i, j) + bump
        entries[j, i] = omega.entry(j, i) - bump
        changed = TensorField(ctx, (0, 2), entries, antisym=((1, 2),))
        assert _failing_families(
            check_suite("gyroscopic", s, g, omega=changed)) == {"Hg3"}


def test_gauge_freedom_two_verifying_pairs():
    """Two different Lagrangian/dissipation pairs for the same system
    and multiplier both satisfy the verifier: the representation is
    only fixed up to gauge."""
    ctx, s = planar_drag()
    g = TensorField.from_matrix(
        ctx, [[ctx.one, ctx.zero], [ctx.zero, ctx.parse("-1")]],
        sym=((1, 2),))
    hand_L = ctx.parse("1/2*(v1^2 - v2^2) - 1/2*a*(q1^2 - q2^2) - b*q1*q2")
    hand_D = ctx.parse("-1/2*omega*(v1^2 + v2^2)")
    cert = reconstruct_dissipative(s, g)
    assert verify_dissipative(s, hand_L, hand_D).passes
    assert verify_dissipative(s, cert.L, cert.D).passes
    assert cert.L != hand_L
    assert hessian(hand_L) == g and hessian(cert.L) == g


def test_base_point_pole_is_rejected():
    ctx = ExprContext(2)
    s = Sode(ctx, [ctx.parse("-v1/q1"), ctx.parse("v2/q1")])
    with pytest.raises(BasePointError):
        reconstruct_dissipative(s, antidiag(ctx))


def test_rational_multiplier_away_from_origin_still_certifies():
    """Rational position dependence is fine as long as the base
    homotopy never sees a pole."""
    ctx = ExprContext(1)
    s = Sode(ctx, [ctx.parse("v1^2/q1")])
    g = TensorField.from_matrix(ctx, [[ctx.parse("1/q1^2")]], sym=((1, 2),))
    cert = reconstruct_dissipative(s, g)
    assert cert.kind == "classical"
    assert cert.L == ctx.parse("(1/2*v1^2)/(q1^2)")
    assert cert.D.is_zero()
    assert verify_dissipative(s, cert.L, cert.D).passes


def test_verify_reports_nonconstant_determinant():
    ctx = ExprContext(2)
    L = ctx.parse("1/2*(2*v1^2 + (1 + q1^2)*v2^2) - q1^4 - q2^2")
    s = forward_sode(L, ctx.zero, 2)
    report = verify_dissipative(s, L, ctx.zero)
    assert report.passes
    assert report.nonsingularity.determinant == ctx.parse("2*(1 + q1^2)")
    assert report.nonsingularity.nonsingular
    assert report.nonsingularity.note


def test_gyroscopic_reconstruction_builds_the_curvature_cycles_once(
        monkeypatch):
    """Only the curvature form ``rho`` builds the curvature cycles, once
    per reconstruction; the thm4 report reads the cycle's contraction
    as weights of ``g``, on random n = 3 systems with gyroscopic
    forces."""
    import random

    from invlag import reconstruct
    from invlag.reconstruct import forward_accelerations

    calls = []
    original = reconstruct._curvature_cycles

    def counting(s, g):
        calls.append(s)
        return original(s, g)

    monkeypatch.setattr(reconstruct, "_curvature_cycles", counting)
    rng = random.Random(31337)
    ctx = ExprContext(3)
    for _ in range(3):
        L, _D = _random_regular_pair(ctx, rng)
        upper = {pair: ctx.const(small_fraction(rng)) + ctx.const(
                     small_fraction(rng)) * ctx.var(ctx.q(rng.randint(1, 3)))
                 for pair in ((1, 2), (1, 3), (2, 3))}
        entries = dict(upper)
        entries.update({(j, i): -value for (i, j), value in upper.items()})
        entries.update({(i, i): ctx.zero for i in range(1, 4)})
        omega = TensorField(ctx, (0, 2), entries, antisym=((1, 2),))
        s = Sode(ctx, forward_accelerations(L, omega=omega))
        calls.clear()
        cert = reconstruct_gyroscopic(s, hessian(L))
        assert calls == [s]
        assert verify_gyroscopic(s, cert.L, cert.omega).passes
