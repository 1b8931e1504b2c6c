"""Reconstruction of variational data from a valid multiplier, and the
forward problem.

Given a system and a multiplier passing the dissipative multiplier
test, this module produces a Lagrangian and a dissipation function; for
a multiplier passing the gyroscopic test it produces a Lagrangian and a
basic two-form. Both go through explicit homotopy integrals: one in the
velocity fibre (recovering a function from its velocity Hessian) and
one on the base (recovering a potential for a closed form). All
homotopies are centred at the origin and require polynomial data, so
the output is deterministic and stays inside the exact rational class.
The returned certificates are verified symbolically before they are
handed back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, NamedTuple, Optional, Tuple

from .exprcore import (Expr, ExprContext, NotPolynomialError,
                       ZeroDenominatorError, lincomb)
from .geometry import (DimensionMismatchError, GeometryError,
                       InternalInconsistencyError, Sode, TensorField,
                       d_basic, gamma_apply, matrix_solve, nabla_tensor02)
from .conditions import (ConditionReport, Cell, check_multiplier_dissipative,
                         check_multiplier_gyroscopic, _evaluated, _family,
                         _Frozen, _require_two_form)


class ReconstructError(Exception):
    """Reconstruction could not proceed on the given input."""


class MultiplierCheckError(ReconstructError):
    """The input multiplier fails its existence conditions or is
    singular; its existence report is attached."""

    def __init__(self, message: str, report: ConditionReport):
        super().__init__(message)
        self.report = report


class NotAffineResidualError(ReconstructError):
    """A residual expected to be affine in the velocities was not."""


class SingularHessianError(ReconstructError):
    """The velocity Hessian of the Lagrangian is identically singular."""


class BasePointError(ReconstructError):
    """A homotopy input has a pole at the origin, the fixed base point."""


class NotBasicError(ReconstructError):
    """A form expected to live on the base depends on the velocities."""


class NotClosedError(ReconstructError):
    """A form that must be closed for the homotopy to apply is not."""


class GaugeRecord(NamedTuple):
    """What the reconstruction added on top of the fibre homotopies:
    a velocity-linear term and a velocity-free term in the Lagrangian,
    and a velocity-linear term in the dissipation function."""

    lagrangian_linear: Tuple[Expr, ...]
    lagrangian_scalar: Expr
    dissipation_linear: Tuple[Expr, ...]
    base_point: str = "origin"


class Certificate(_Frozen):
    """A verified variational representation of a system of ``kind``
    ``dissipative``, ``gyroscopic`` or ``classical``; ``verification``
    is the passing report of ``verify_dissipative`` or
    ``verify_gyroscopic`` that verified it. Certificates are frozen, and
    equal when all but their ``verification`` is."""

    __slots__ = ("kind", "L", "D", "omega", "gauge", "verification")

    def __init__(self, kind: str, L: Expr, D: Optional[Expr] = None,
                 omega: Optional[TensorField] = None,
                 gauge: Optional[GaugeRecord] = None,
                 verification: Optional[ConditionReport] = None):
        super().__init__(kind, L, D, omega, gauge, verification)

    def _compared(self):
        return (self.kind, self.L, self.D, self.omega, self.gauge)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"Certificate({fields})"


# --------------------------------------------------------------------------
# Hessian and homotopies


def hessian(L: Expr) -> TensorField:
    """Velocity Hessian of a function, as a symmetric (0,2) tensor."""
    ctx = L.ctx
    v_pos = [ctx.gen_index(ctx.v(k)) for k in range(1, ctx.n + 1)]
    entries = {}
    for i, at in enumerate(v_pos, start=1):
        row = L.diff(at)
        for j, other in enumerate(v_pos, start=1):
            entries[(i, j)] = row.diff(other)
    return TensorField(ctx, (0, 2), entries, sym=((1, 2),))


def vertical_homotopy2(M: TensorField) -> Expr:
    """A function whose velocity Hessian is ``M``, vanishing to second
    order at zero velocity.

    A part of ``M`` homogeneous of degree ``k`` in the velocities
    contributes ``M_ij v^i v^j / ((k+1)(k+2))``, so the function is one
    sum of ``M_ij v^i v^j`` over ``i <= j`` (each pair off the diagonal
    listed twice), each of its terms of velocity degree ``d`` divided by
    ``(d-1) d``.
    Requires ``M`` symmetric with totally symmetric vertical derivative,
    and each entry polynomial in the velocities.
    """
    ctx = M.ctx
    n = M.n
    if M.shape != (0, 2):
        raise DimensionMismatchError("expected a (0,2) tensor")
    v_vars = [ctx.v(k) for k in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if M.entry(i, j) != M.entry(j, i):
                raise GeometryError(f"tensor is not symmetric at {(i, j)}")
    for i in range(1, n + 1):
        for j, k in combinations(range(1, n + 1), 2):
            if M.entry(i, j).diff(ctx.v(k)) != M.entry(i, k).diff(ctx.v(j)):
                raise GeometryError(
                    f"vertical derivative is not totally symmetric at {(i, j, k)}")
    if any(entry.den_factors and not entry.is_polynomial_in(v_vars)
           for entry in M.entries.values()):
        raise NotPolynomialError(
            "expression is rational in the splitting variables", v_vars[0])
    velocity = [ctx.var(var) for var in v_vars]
    terms = []
    for (i, j), entry in M.entries.items():
        if i <= j:
            pair = (entry, velocity[i - 1] * velocity[j - 1])
            terms += [pair] if i == j else [pair, pair]
    return lincomb(ctx, terms).degree_weighted(
        v_vars, lambda d: Fraction(1, (d - 1) * d))


def _require_base_polynomial(e: Expr, q_vars):
    """Refuse data the base homotopy cannot handle: a pole at the
    origin, then any other dependence of the denominator on the
    positions."""
    if e.is_polynomial_in(q_vars):
        return
    try:
        e.subst({var: e.ctx.zero for var in q_vars})
    except ZeroDenominatorError as exc:
        raise BasePointError(
            "input has a pole at the origin, the homotopy base point") from exc
    raise NotPolynomialError(
        "base homotopy needs polynomial dependence on the positions",
        q_vars[0])


def base_homotopy(ctx: ExprContext, form: dict, degree: int) -> dict:
    """Poincaré homotopy on the base for a closed ``degree``-form given
    as a map from index tuples to expressions (all components, fully
    antisymmetric). Returns the potential ``degree-1``-form as the same
    kind of map over ascending index tuples.

    A part of ``form`` homogeneous of degree ``m`` in the positions
    contributes ``q^i form[i, tail] / (m + degree)``, so each component
    is one sum of ``q^i form[i, tail]``, each of its terms of position
    degree ``d`` divided by ``d - 1 + degree``.
    """
    n = ctx.n
    q_vars = [ctx.q(k) for k in range(1, n + 1)]
    result = {}
    for tail in combinations(range(1, n + 1), degree - 1):
        terms = []
        for i in range(1, n + 1):
            value = form.get((i, *tail), ctx.zero)
            if not value.is_zero():
                _require_base_polynomial(value, q_vars)
                terms.append((value, ctx.var(q_vars[i - 1])))
        result[tail] = lincomb(ctx, terms).degree_weighted(
            q_vars, lambda d: Fraction(1, d - 1 + degree))
    return result


def _potential(ctx: ExprContext, form: dict, degree: int, part: str) -> dict:
    """The base homotopy of the closed basic ``degree``-form ``form``
    (all components), the ``part`` of a Lagrange residual: closedness is
    checked first and the potential is differentiated back to ``form``."""
    if any(not value.is_zero() for value in d_basic(ctx, form, degree).values()):
        raise InternalInconsistencyError(f"{part} is not closed")
    potential = base_homotopy(ctx, form, degree)
    if any(value != form[idx] for idx, value in
           d_basic(ctx, potential, degree - 1).items()):
        raise InternalInconsistencyError("base homotopy failed to invert")
    return potential


def _require_basic(s: Sode, form: dict, name: str):
    """Refuse a form with a component that depends on a velocity."""
    for idx, value in form.items():
        if any(value.depends_on(s.ctx.v(k)) for k in range(1, s.n + 1)):
            raise NotBasicError(f"{name} depends on velocity at {idx}")


# --------------------------------------------------------------------------
# Euler-Lagrange residuals and verification


def lagrange_residuals(s: Sode, L: Expr, D: Optional[Expr] = None,
                       omega: Optional[TensorField] = None):
    """The residuals of the governing equations for ``L`` with either a
    dissipation function or a gyroscopic two-form (or neither)."""
    residuals = []
    for i in range(1, s.n + 1):
        terms = [-L.diff(s.q_pos[i - 1])]
        if D is not None:
            terms.append(-D.diff(s.v_pos[i - 1]))
        if omega is not None:
            terms.extend((-omega.entry(i, k), velocity)
                         for k, velocity in enumerate(s.velocities, start=1))
        residuals.append(gamma_apply(s, L.diff(s.v_pos[i - 1]), terms))
    return residuals


def _lagrange_report(s: Sode, L: Expr, D: Optional[Expr] = None,
                     omega: Optional[TensorField] = None) -> ConditionReport:
    """One ``EL[i]`` cell per Lagrange residual, with the velocity
    Hessian of ``L`` as the multiplier."""
    suite = "lagrange-dissipative" if omega is None else "lagrange-gyroscopic"
    cells = tuple(Cell(f"EL[{i}]", r) for i, r in
                  enumerate(lagrange_residuals(s, L, D, omega), start=1))
    return ConditionReport(suite, cells, multiplier=hessian(L))


def verify_dissipative(s: Sode, L: Expr, D: Expr) -> ConditionReport:
    """Does the flow of the system satisfy the Lagrange equations of
    ``L`` with velocity-gradient forcing from ``D``? One residual cell
    per equation; the velocity Hessian's determinant is reported."""
    if L.ctx != s.ctx or D.ctx != s.ctx:
        raise DimensionMismatchError("data from another context")
    return _lagrange_report(s, L, D=D)


def verify_gyroscopic(s: Sode, L: Expr, omega: TensorField) -> ConditionReport:
    """Does the flow satisfy the Lagrange equations of ``L`` with the
    gyroscopic force of a basic two-form?"""
    if L.ctx != s.ctx:
        raise DimensionMismatchError("data from another context")
    _require_two_form(s, omega)
    return _lagrange_report(s, L, omega=omega)


# --------------------------------------------------------------------------
# reconstruction


def _affine_split(ctx: ExprContext, residual: Expr):
    """Split an expression affine in the velocities into (constant,
    linear-coefficient list); typed error if not affine."""
    v_vars = [ctx.v(k) for k in range(1, ctx.n + 1)]
    try:
        parts = residual.homogeneous_parts(v_vars)
    except NotPolynomialError as exc:
        raise NotAffineResidualError(
            f"residual is not polynomial in the velocities: {residual}") from exc
    if any(degree > 1 for degree in parts):
        raise NotAffineResidualError(
            f"residual is not affine in the velocities: {residual}")
    constant = parts.get(0, ctx.zero)
    linear = parts.get(1, ctx.zero)
    return constant, [linear.diff(v) for v in v_vars]


def _split_residuals(ctx: ExprContext, residuals):
    """Split Lagrange residuals affine in the velocities into their
    velocity-free parts and the two-form of their linear parts, which
    must be antisymmetric: all its components, the ascending pairs
    first."""
    base_terms, rows = zip(*(_affine_split(ctx, r) for r in residuals))
    pairs = list(combinations(range(1, ctx.n + 1), 2))
    if any(rows[i - 1][j - 1] != -rows[j - 1][i - 1] for i, j in pairs):
        raise InternalInconsistencyError(
            "velocity-linear residual part is not antisymmetric")
    if any(not rows[i][i].is_zero() for i in range(ctx.n)):
        raise InternalInconsistencyError(
            "velocity-linear residual part has a diagonal term")
    return base_terms, {(i, j): rows[i - 1][j - 1] for i, j in
                        pairs + [(j, i) for i, j in pairs]}


def _certify(s: Sode, g: TensorField, kind: str, report: ConditionReport,
             build) -> Certificate:
    """The finish both routes share: refuse a multiplier whose existence
    ``report`` fails; else verify the Lagrangian and force that
    ``build()`` returns with their gauge, check that the Lagrangian's
    velocity Hessian is ``g``, refuse it if ``g`` is singular (the
    Lagrangian is then degenerate; the existence report attached to the
    refusal shares the verification report's determinant), and certify
    them."""
    if not report.passes:
        raise MultiplierCheckError(
            f"multiplier fails the {kind} existence conditions", report)
    L, force, gauge = build()
    gyroscopic = kind == "gyroscopic"
    outcome = (verify_gyroscopic if gyroscopic else verify_dissipative)(
        s, L, force)
    if not outcome.passes:
        raise InternalInconsistencyError(
            "reconstructed pair fails verification")
    if outcome.multiplier != g:
        raise InternalInconsistencyError(
            "reconstructed Lagrangian has the wrong velocity Hessian")
    if not outcome.nonsingularity.nonsingular:
        raise MultiplierCheckError(f"multiplier is singular: "
                                   f"{outcome.nonsingularity.note}",
                                   report.sharing_record(outcome))
    return Certificate("classical" if force.is_zero() else kind, L,
                       D=None if gyroscopic else force,
                       omega=force if gyroscopic else None,
                       gauge=gauge, verification=outcome)


def reconstruct_dissipative(s: Sode, g: TensorField) -> Certificate:
    """From a multiplier passing the dissipative existence test, build
    a Lagrangian and a dissipation function and verify them.

    The fibre homotopy of ``g`` gives the kinetic part; the fibre
    homotopy of the flow derivative of ``g`` gives the leading part of
    the dissipation function. What is left of the Lagrange residual is
    affine in velocity; its linear part is a closed two-form on the
    base absorbed into the Lagrangian through a base homotopy, and its
    constant part moves into the dissipation function.
    """
    def build():
        ctx = s.ctx
        L0 = vertical_homotopy2(g)
        D0 = vertical_homotopy2(nabla_tensor02(s, g))
        base_terms, c = _split_residuals(ctx, lagrange_residuals(s, L0, D=D0))
        alpha_map = _potential(ctx, c, 2, "velocity-linear residual part")
        alpha = [alpha_map[(j,)] for j in range(1, s.n + 1)]
        return (lincomb(ctx, [L0, *zip(alpha, s.velocities)]),
                lincomb(ctx, [D0, *zip(base_terms, s.velocities)]),
                GaugeRecord(tuple(alpha), ctx.zero, tuple(base_terms)))

    return _certify(s, g, "dissipative", check_multiplier_dissipative(s, g),
                    build)


def reconstruct_gyroscopic(s: Sode, g: TensorField) -> Certificate:
    """From a multiplier passing the gyroscopic existence test, build a
    Lagrangian and a basic two-form and verify them.

    The Lagrange residual of the fibre-homotopy Lagrangian is affine in
    velocity. Its linear coefficient is the two-form: it is basic by
    construction and must be antisymmetric, and its exterior derivative
    must reproduce the lowered curvature cycle (which itself has to be
    basic and closed) — both verified symbolically. The velocity-free
    remainder must be exact and becomes a gauge potential.
    """
    def build():
        ctx = s.ctx
        rho = {idx: -cycle for idx, cycle in _curvature_cycles(s, g).items()}
        _require_basic(s, rho, "curvature form")
        if any(not value.is_zero() for value in d_basic(ctx, rho, 3).values()):
            raise NotClosedError("curvature form is not closed")
        L0 = vertical_homotopy2(g)
        base_terms, two_form = _split_residuals(ctx, lagrange_residuals(s, L0))
        omega = TensorField(ctx, (0, 2), two_form, antisym=((1, 2),))
        _require_basic(s, two_form, "recovered two-form")
        if d_basic(ctx, two_form, 2) != rho:
            raise InternalInconsistencyError(
                "two-form derivative does not match the curvature form")
        phi = _potential(ctx, {(i,): term for i, term in
                               enumerate(base_terms, start=1)},
                         1, "velocity-free residual part")[()]
        return L0 + phi, omega, GaugeRecord((ctx.zero,) * s.n, phi, ())

    return _certify(s, g, "gyroscopic", check_multiplier_gyroscopic(s, g),
                    build)


def _curvature_cycles(s: Sode, g: TensorField) -> dict:
    """The curvature cycle ``RCycle`` of the ``thm3`` terms on every
    ascending triple, which determine it: it is totally antisymmetric."""
    return {indices: _evaluated(s, g.entries, {}, terms)
            for _family_name, indices, terms in _family(s, "RCycle")}


# --------------------------------------------------------------------------
# forward problem


def forward_accelerations(L: Expr, D: Optional[Expr] = None,
                          omega: Optional[TensorField] = None) -> List[Expr]:
    """Solve the Lagrange equations of ``L`` with forcing from ``D``
    and the gyroscopic force of ``omega`` (either may be absent) for
    the accelerations: the Hessian times the accelerations equals minus
    the residuals of those equations along zero accelerations. ``L``
    must live in an explicit context, and its velocity Hessian must be
    nonsingular as a matrix of expressions."""
    ctx = L.ctx
    free = Sode(ctx, [ctx.zero] * ctx.n)
    rhs = [-r for r in lagrange_residuals(free, L, D, omega)]
    try:
        return matrix_solve(hessian(L), rhs)
    except GeometryError as exc:
        raise SingularHessianError(
            "velocity Hessian of the Lagrangian is singular") from exc


def forward_sode(L: Expr, D: Expr, n: int) -> Sode:
    """The explicit system governed by ``L`` with forcing from ``D``,
    checked against its own Lagrange equations."""
    ctx = L.ctx
    if D.ctx != ctx:
        raise DimensionMismatchError("dissipation from another context")
    if n != ctx.n:
        raise DimensionMismatchError(
            f"context has dimension {ctx.n}, not {n}")
    s = Sode(ctx, forward_accelerations(L, D))
    if not verify_dissipative(s, L, D).passes:
        raise InternalInconsistencyError(
            "forward construction failed its own verification")
    return s
