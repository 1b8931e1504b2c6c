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
                         check_multiplier_gyroscopic, _curvature_cycles,
                         _Frozen, _require_multiplier, _require_two_form)


class ReconstructError(Exception):
    """Reconstruction could not proceed on the given input."""


class MultiplierCheckError(ReconstructError):
    """The input multiplier fails its existence conditions; the failing
    report is attached."""

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

    Realized degree by degree: a part of ``M`` homogeneous of degree
    ``k`` in the velocities contributes ``M_ij v^i v^j / ((k+1)(k+2))``.
    Requires ``M`` symmetric with totally symmetric vertical derivative,
    and polynomial in the velocities.
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
    return lincomb(ctx, [
        (part, ctx.var(v_vars[i - 1]) * ctx.var(v_vars[j - 1])
         * ctx.const(Fraction(1, (degree + 1) * (degree + 2))))
        for (i, j), entry in M.entries.items()
        for degree, part in entry.homogeneous_parts(v_vars).items()])


def _base_parts(ctx: ExprContext, e: Expr):
    """Homogeneous parts in the position variables, with typed errors
    for data the base homotopy cannot handle."""
    q_vars = [ctx.q(k) for k in range(1, ctx.n + 1)]
    origin = {var: ctx.zero for var in q_vars}
    try:
        e.subst(origin)
    except ZeroDenominatorError as exc:
        raise BasePointError(
            "input has a pole at the origin, the homotopy base point") from exc
    try:
        return e.homogeneous_parts(q_vars)
    except NotPolynomialError as exc:
        raise NotPolynomialError(
            "base homotopy needs polynomial dependence on the positions",
            getattr(exc, "var", None)) from exc


def base_homotopy(ctx: ExprContext, form: dict, degree: int) -> dict:
    """Poincaré homotopy on the base for a closed ``degree``-form given
    as a map from index tuples to expressions (all components, fully
    antisymmetric). Returns the potential ``degree-1``-form as the same
    kind of map over ascending index tuples."""
    n = ctx.n
    result = {}
    for tail in combinations(range(1, n + 1), degree - 1):
        result[tail] = lincomb(ctx, [
            (part, ctx.var(ctx.q(i)) * ctx.const(Fraction(1, m + degree)))
            for i in range(1, n + 1) if not form.get((i, *tail), ctx.zero).is_zero()
            for m, part in _base_parts(ctx, form[(i, *tail)]).items()])
    return result


def _closed(ctx: ExprContext, form: dict, degree: int) -> bool:
    """Is a basic form stored on ascending tuples closed?"""
    return all(value.is_zero() for value in d_basic(ctx, form, degree).values())


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


def verify_dissipative(s: Sode, L: Expr, D: Expr) -> ConditionReport:
    """Does the flow of the system satisfy the Lagrange equations of
    ``L`` with velocity-gradient forcing from ``D``? One residual cell
    per equation; the velocity Hessian's determinant is reported."""
    if L.ctx != s.ctx or D.ctx != s.ctx:
        raise DimensionMismatchError("data from another context")
    cells = tuple(Cell(f"EL[{i}]", r) for i, r in
                  enumerate(lagrange_residuals(s, L, D=D), start=1))
    return ConditionReport("lagrange-dissipative", cells,
                           multiplier=hessian(L))


def verify_gyroscopic(s: Sode, L: Expr, omega: TensorField) -> ConditionReport:
    """Does the flow satisfy the Lagrange equations of ``L`` with the
    gyroscopic force of a basic two-form?"""
    if L.ctx != s.ctx:
        raise DimensionMismatchError("data from another context")
    _require_two_form(s, omega)
    cells = tuple(Cell(f"EL[{i}]", r) for i, r in
                  enumerate(lagrange_residuals(s, L, omega=omega), start=1))
    return ConditionReport("lagrange-gyroscopic", cells, multiplier=hessian(L))


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
    velocity-free parts and the two-form (on ascending pairs) of their
    linear parts, which must be antisymmetric."""
    base_terms = []
    rows = []
    for r in residuals:
        constant, linear = _affine_split(ctx, r)
        base_terms.append(constant)
        rows.append(linear)
    upper = {}
    for i, j in combinations(range(1, ctx.n + 1), 2):
        if rows[i - 1][j - 1] != -rows[j - 1][i - 1]:
            raise InternalInconsistencyError(
                "velocity-linear residual part is not antisymmetric")
        upper[(i, j)] = rows[i - 1][j - 1]
    if any(not rows[i][i].is_zero() for i in range(ctx.n)):
        raise InternalInconsistencyError(
            "velocity-linear residual part has a diagonal term")
    return base_terms, upper


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
    report = check_multiplier_dissipative(s, g)
    if not report.passes:
        raise MultiplierCheckError(
            "multiplier fails the dissipative existence conditions", report)
    ctx = s.ctx
    n = s.n
    L0 = vertical_homotopy2(g)
    D0 = vertical_homotopy2(nabla_tensor02(s, g))
    base_terms, c = _split_residuals(ctx, lagrange_residuals(s, L0, D=D0))
    if not _closed(ctx, c, 2):
        raise InternalInconsistencyError(
            "velocity-linear residual part is not closed")
    alpha_map = base_homotopy(ctx, _full_two_form(ctx, c), 2)
    alpha = [alpha_map[(j,)] for j in range(1, n + 1)]
    if d_basic(ctx, alpha_map, 1) != c:
        raise InternalInconsistencyError("base homotopy failed to invert")
    velocities = [ctx.var(ctx.v(j)) for j in range(1, n + 1)]
    L = lincomb(ctx, [L0, *zip(alpha, velocities)])
    D = lincomb(ctx, [D0, *zip(base_terms, velocities)])
    outcome = verify_dissipative(s, L, D)
    if not outcome.passes:
        raise InternalInconsistencyError(
            "reconstructed pair fails verification")
    if outcome.multiplier != g:
        raise InternalInconsistencyError(
            "reconstructed Lagrangian has the wrong velocity Hessian")
    gauge = GaugeRecord(tuple(alpha), ctx.zero, tuple(base_terms))
    kind = "classical" if D.is_zero() else "dissipative"
    return Certificate(kind, L, D=D, gauge=gauge, verification=outcome)


def _full_two_form(ctx: ExprContext, upper: dict) -> dict:
    """Extend a two-form given on ascending pairs to all ordered pairs."""
    form = dict(upper)
    for (i, j), value in upper.items():
        form[(j, i)] = -value
    return form


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
    _require_multiplier(s, g)  # before the cycles read g
    cycles = _curvature_cycles(s, g)
    report = check_multiplier_gyroscopic(s, g, cycles)
    if not report.passes:
        raise MultiplierCheckError(
            "multiplier fails the gyroscopic existence conditions", report)
    ctx = s.ctx
    n = s.n
    rho = {idx: -cycle for idx, cycle in cycles.items()}
    for idx, value in rho.items():
        for k in range(1, n + 1):
            if value.depends_on(ctx.v(k)):
                raise NotBasicError(
                    f"curvature form depends on velocity at {idx}")
    if not _closed(ctx, rho, 3):
        raise NotClosedError("curvature form is not closed")

    L0 = vertical_homotopy2(g)
    base_terms, upper = _split_residuals(ctx, lagrange_residuals(s, L0))
    omega = TensorField(ctx, (0, 2), _full_two_form(ctx, upper),
                        antisym=((1, 2),))
    for k in range(1, n + 1):
        for idx, value in upper.items():
            if value.depends_on(ctx.v(k)):
                raise NotBasicError(
                    f"recovered two-form depends on velocity at {idx}")
    if d_basic(ctx, upper, 2) != rho:
        raise InternalInconsistencyError(
            "two-form derivative does not match the curvature form")

    base_form = {(i,): base_terms[i - 1] for i in range(1, n + 1)}
    if not _closed(ctx, base_form, 1):
        raise InternalInconsistencyError(
            "velocity-free residual part is not closed")
    phi_map = base_homotopy(ctx, base_form, 1)
    phi = phi_map[()]
    if d_basic(ctx, phi_map, 0) != base_form:
        raise InternalInconsistencyError("base homotopy failed to invert")
    L = L0 + phi
    outcome = verify_gyroscopic(s, L, omega)
    if not outcome.passes:
        raise InternalInconsistencyError(
            "reconstructed pair fails verification")
    if outcome.multiplier != g:
        raise InternalInconsistencyError(
            "reconstructed Lagrangian has the wrong velocity Hessian")
    gauge = GaugeRecord(tuple(ctx.zero for _ in range(n)), phi, ())
    kind = "classical" if omega.is_zero() else "gyroscopic"
    return Certificate(kind, L, omega=omega, gauge=gauge,
                       verification=outcome)


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
