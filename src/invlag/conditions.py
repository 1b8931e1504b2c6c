"""Condition suites for the inverse problem, reported cell by cell.

Every suite turns its inputs into a list of named residual expressions
("cells"); the suite passes exactly when every residual is the zero
expression. Residuals are kept symbolically so a failing report shows
the actual obstruction, not just a flag. Suites covering explicit
systems take a :class:`~invlag.geometry.Sode` plus candidate data (a
multiplier ``g``, a dissipation function ``D``, a two-form ``omega``);
implicit systems get their own wrapper type and checker.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence, Tuple

from .exprcore import Expr, ExprContext, lincomb
from .geometry import (DimensionMismatchError, GeometryError, Sode,
                       TensorField, _horizontal_terms, curvature, d_basic,
                       jacobi, matrix_det, nabla_tensor02, theta_tensor)


class TwoFormError(Exception):
    """The gyroscopic two-form is not antisymmetric or not basic."""


class ImplicitOrderError(Exception):
    """An implicit right-hand side uses jets deeper than acceleration."""


# --------------------------------------------------------------------------
# report containers


class Cell(NamedTuple):
    """One named residual; the cell passes when the residual vanishes."""

    label: str
    residual: Expr

    @property
    def passes(self) -> bool:
        return self.residual.is_zero()


class NonsingularityRecord(NamedTuple):
    """Symbolic determinant of the candidate multiplier, with a verdict.

    ``nonsingular`` means the determinant is not identically zero; a
    non-constant determinant still vanishes somewhere, which is flagged
    in ``note`` rather than analysed further.
    """

    determinant: Expr
    nonsingular: bool
    note: str = ""


class _Frozen:
    """A record of ``__slots__`` filled in order by ``__init__``, then
    frozen; two of one class are equal when their ``_compared()`` are."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())


class ConditionReport(_Frozen):
    """The cells of one suite run. The nonsingularity record of the
    multiplier is computed on first read of ``nonsingularity``, so
    callers that only want the verdict never pay for the determinant.
    Reports are frozen, and equal when their suite, cells and notes
    are: the multiplier takes no part."""

    __slots__ = ("suite", "cells", "multiplier", "notes", "_nonsingularity")

    def __init__(self, suite: str, cells: Tuple[Cell, ...],
                 multiplier: Optional[TensorField] = None,
                 notes: Tuple[str, ...] = ()):
        super().__init__(suite, cells, multiplier, notes)

    def _compared(self):
        return (self.suite, self.cells, self.notes)

    @property
    def nonsingularity(self) -> Optional[NonsingularityRecord]:
        try:
            return self._nonsingularity
        except AttributeError:
            record = (None if self.multiplier is None
                      else nonsingularity_record(self.multiplier))
            object.__setattr__(self, "_nonsingularity", record)
            return record

    @property
    def passes(self) -> bool:
        return all(cell.passes for cell in self.cells)

    def failing(self) -> Tuple[Cell, ...]:
        return tuple(cell for cell in self.cells if not cell.passes)

    def cell(self, label: str) -> Cell:
        for cell in self.cells:
            if cell.label == label:
                return cell
        raise KeyError(label)

    def __repr__(self):
        verdict = "pass" if self.passes else "FAIL"
        return (f"ConditionReport({self.suite}: {verdict}, "
                f"{len(self.cells)} cells, {len(self.failing())} failing)")


def _label(family: str, *indices) -> str:
    return f"{family}[{','.join(str(i) for i in indices)}]"


def nonsingularity_record(g: TensorField) -> NonsingularityRecord:
    det = matrix_det(g)
    if det.is_zero():
        return NonsingularityRecord(det, False, "determinant is identically zero")
    note = ""
    if det.free_varids():
        note = ("determinant is non-constant, so it vanishes on a proper "
                "subset of the domain")
    return NonsingularityRecord(det, True, note)


# --------------------------------------------------------------------------
# input validation


def _require_multiplier(s: Sode, g: TensorField):
    if g.ctx != s.ctx:
        raise DimensionMismatchError("multiplier lives in a different context")
    if g.shape != (0, 2):
        raise DimensionMismatchError("multiplier must be a (0,2) tensor")
    for i, j in combinations(range(1, s.n + 1), 2):
        if g.entry(i, j) != g.entry(j, i):
            raise GeometryError(f"multiplier is not symmetric at {(i, j)}")


def _require_two_form(s: Sode, omega: TensorField):
    if omega.ctx != s.ctx:
        raise DimensionMismatchError("two-form lives in a different context")
    if omega.shape != (0, 2):
        raise DimensionMismatchError("two-form must be a (0,2) tensor")
    ctx = s.ctx
    for i in range(1, s.n + 1):
        for j in range(1, s.n + 1):
            entry = omega.entry(i, j)
            if entry != -omega.entry(j, i):
                raise TwoFormError(f"two-form is not antisymmetric at {(i, j)}")
            for k in range(1, s.n + 1):
                if entry.depends_on(ctx.v(k)):
                    raise TwoFormError(
                        f"two-form entry {(i, j)} depends on velocities")


def _require_function(s: Sode, D: Expr):
    if D.ctx != s.ctx:
        raise DimensionMismatchError("dissipation function from another context")


# --------------------------------------------------------------------------
# shared cell families


def _hd1_cells(s: Sode, g: TensorField):
    """Velocity symmetry of the candidate: V_k(g_ij) - V_j(g_ik)."""
    v, indices = s.v_pos, range(1, s.n + 1)
    return [Cell(_label("HD1", i, j, k),
                 g.entry(i, j).diff(v[k - 1]) - g.entry(i, k).diff(v[j - 1]))
            for i in indices for j, k in combinations(indices, 2)]


def _nabla_cells(s: Sode, g: TensorField, family: str = "NablaG"):
    grad = nabla_tensor02(s, g)
    return [Cell(_label(family, i, j), grad.entry(i, j))
            for i in range(1, s.n + 1) for j in range(i, s.n + 1)]


def _lowered_jacobi(s: Sode, g: TensorField) -> TensorField:
    """The Jacobi endomorphism lowered with the candidate, ``(g Phi)_ij
    = sum_k g_ik Phi^k_j``: built once per report and read by every
    cell that needs it."""
    jac = jacobi(s)
    indices = range(1, s.n + 1)
    return TensorField(s.ctx, (0, 2), {
        (i, j): lincomb(s.ctx, [(g.entry(i, k), jac.entry(k, j))
                                for k in indices])
        for i in indices for j in indices})


def _phi_cells(s: Sode, g: TensorField):
    g_phi = _lowered_jacobi(s, g)
    return [Cell(_label("PhiSym", i, j), g_phi.entry(i, j) - g_phi.entry(j, i))
            for i, j in combinations(range(1, s.n + 1), 2)]


def _curvature_cycles(s: Sode, g: TensorField) -> dict:
    """The curvature cycle ``sum_j g_ij R^j_kl + g_lj R^j_ik + g_kj R^j_li``
    on every ascending triple ``(i, k, l)``, built once per report; it is
    totally antisymmetric, so these triples determine it."""
    if s.n < 3:  # no triples: R is not needed, so not built
        return {}
    R = curvature(s)
    indices = range(1, s.n + 1)
    return {(i, k, l): lincomb(s.ctx, [
                term for j in indices for term in (
                    (g.entry(i, j), R.entry(j, k, l)),
                    (g.entry(l, j), R.entry(j, i, k)),
                    (g.entry(k, j), R.entry(j, l, i)))])
            for i, k, l in combinations(indices, 3)}


def _velocity_contraction(ctx: ExprContext, form: dict, i: int, j: int) -> Expr:
    """``sum_k form_ijk v^k`` for ``i < j`` and a totally antisymmetric
    three-form stored on ascending index tuples: a repeated index reads
    as zero, and ``(i, j, k)`` is an odd permutation of its ascending
    order exactly when ``k`` lies between ``i`` and ``j``."""
    return lincomb(ctx, [(form[tuple(sorted((i, j, k)))], -ctx.var(ctx.v(k))
                          if i < k < j else ctx.var(ctx.v(k)))
                         for k in range(1, ctx.n + 1) if k not in (i, j)])


# --------------------------------------------------------------------------
# explicit suites


def check_classical(s: Sode, g: TensorField) -> ConditionReport:
    """Multiplier conditions for a plain variational representation:
    velocity symmetry, covariant constancy along the flow, and symmetry
    of the force endomorphism lowered with the candidate."""
    _require_multiplier(s, g)
    cells = _hd1_cells(s, g) + _nabla_cells(s, g) + _phi_cells(s, g)
    return ConditionReport("classical", tuple(cells), multiplier=g)


def check_dissipative(s: Sode, g: TensorField, D: Expr) -> ConditionReport:
    """Conditions for a representation with a dissipation function:
    velocity symmetry, the flow derivative of the candidate matching
    the velocity Hessian of ``D``, and the lowered force endomorphism
    being symmetric up to horizontal derivatives of ``D``."""
    _require_multiplier(s, g)
    _require_function(s, D)
    ctx = s.ctx
    cells = _hd1_cells(s, g)
    grad = nabla_tensor02(s, g)
    dD = [D.diff(at) for at in s.v_pos]  # the velocity gradient of D
    for i in range(1, s.n + 1):
        for j in range(i, s.n + 1):
            residual = grad.entry(i, j) - dD[i - 1].diff(s.v_pos[j - 1])
            cells.append(Cell(_label("HD2", i, j), residual))
    g_phi = _lowered_jacobi(s, g)
    for i, j in combinations(range(1, s.n + 1), 2):
        residual = lincomb(ctx, [g_phi.entry(i, j), -g_phi.entry(j, i)]
                           + _horizontal_terms(s, i, -dD[j - 1])
                           + _horizontal_terms(s, j, dD[i - 1]))
        cells.append(Cell(_label("HD3", i, j), residual))
    return ConditionReport("dissipative", tuple(cells), multiplier=g)


def check_gyroscopic(s: Sode, g: TensorField, omega: TensorField) -> ConditionReport:
    """Conditions for a representation with gyroscopic forces from a
    basic two-form: velocity symmetry, covariant constancy, and the
    lowered force endomorphism being symmetric up to the contraction of
    the exterior derivative of the two-form with the velocity."""
    _require_multiplier(s, g)
    _require_two_form(s, omega)
    ctx = s.ctx
    cells = _hd1_cells(s, g) + _nabla_cells(s, g, family="Hg2")
    pairs = list(combinations(range(1, s.n + 1), 2))
    d_omega = d_basic(ctx, {pair: omega.entry(*pair) for pair in pairs}, 2)
    g_phi = _lowered_jacobi(s, g)
    for i, j in pairs:
        residual = lincomb(ctx, [g_phi.entry(i, j), -g_phi.entry(j, i),
                                 -_velocity_contraction(ctx, d_omega, i, j)])
        cells.append(Cell(_label("Hg3", i, j), residual))
    return ConditionReport("gyroscopic", tuple(cells), multiplier=g)


def check_multiplier_dissipative(s: Sode, g: TensorField) -> ConditionReport:
    """Existence conditions for some dissipation function, in terms of
    the candidate alone: velocity symmetry, symmetry of the horizontal
    covariant differential, and vanishing of the curvature cycle."""
    _require_multiplier(s, g)
    theta, indices = theta_tensor(s), range(1, s.n + 1)
    minus_g = TensorField(s.ctx, (0, 2), {
        idx: -value for idx, value in g.entries.items()})
    cells = _hd1_cells(s, g)
    for k in indices:
        for i, j in combinations(indices, 2):
            residual = lincomb(s.ctx, _horizontal_terms(s, i, g.entry(j, k))
                               + _horizontal_terms(s, j, minus_g.entry(i, k)) + [
                term for l in indices for term in (
                    (g.entry(i, l), theta.entry(l, j, k)),
                    (minus_g.entry(j, l), theta.entry(l, i, k)))])
            cells.append(Cell(_label("DHSym", i, j, k), residual))
    cells.extend(Cell(_label("RCycle", *idx), cycle)
                 for idx, cycle in _curvature_cycles(s, g).items())
    return ConditionReport("thm3", tuple(cells), multiplier=g)


def check_multiplier_gyroscopic(s: Sode, g: TensorField,
                                cycles: Optional[dict] = None
                                ) -> ConditionReport:
    """Existence conditions for some gyroscopic two-form, in terms of
    the candidate alone: velocity symmetry, covariant constancy, and
    the lowered force endomorphism matching the velocity contraction of
    the curvature cycle. Additionally flags entries of the candidate or
    of the lowered force endomorphism whose denominator vanishes
    identically at zero velocity (those would not restrict smoothly).
    A caller that needs the curvature cycles as well builds them with
    ``_curvature_cycles(s, g)`` and passes them as ``cycles``."""
    _require_multiplier(s, g)
    ctx = s.ctx
    cells = _hd1_cells(s, g) + _nabla_cells(s, g)
    g_phi = _lowered_jacobi(s, g)
    if cycles is None:
        cycles = _curvature_cycles(s, g)
    for k, l in combinations(range(1, s.n + 1), 2):
        # sum_i cycle_ikl v^i = sum_i cycle_kli v^i: the cycle is cyclic
        residual = lincomb(ctx, [g_phi.entry(l, k), -g_phi.entry(k, l),
                                 -_velocity_contraction(ctx, cycles, k, l)])
        cells.append(Cell(_label("PhiR", k, l), residual))
    cells.extend(_smooth_at_rest_cells(s, g, g_phi))
    return ConditionReport("thm4", tuple(cells), multiplier=g)


def _smooth_at_rest_cells(s: Sode, g: TensorField, g_phi: TensorField):
    """Indicator cells (one when bad, zero when fine) for denominators
    of ``g`` and ``g Phi`` vanishing identically at zero velocity."""
    ctx = s.ctx
    rest = {ctx.v(k): ctx.zero for k in range(1, s.n + 1)}
    cells = []
    for name, matrix in (("g", g), ("PhiG", g_phi)):
        for i in range(1, s.n + 1):
            for j in range(i, s.n + 1):
                den = matrix.entry(i, j).denominator_expr()
                bad = den.subst(rest).is_zero()
                cells.append(Cell(_label(f"{SMOOTH_AT_REST}.{name}", i, j),
                                  ctx.one if bad else ctx.zero))
    return cells


def check_prop2a(s: Sode, g: TensorField) -> ConditionReport:
    """The reduced pair of multiplier conditions: velocity symmetry and
    covariant constancy along the flow, with the force-endomorphism
    condition deliberately left out."""
    _require_multiplier(s, g)
    cells = _hd1_cells(s, g) + _nabla_cells(s, g)
    return ConditionReport("prop2a", tuple(cells), multiplier=g)


def check_rayleigh(s: Sode, g: TensorField) -> ConditionReport:
    """Restriction to dissipation functions quadratic in velocity: the
    flow derivative of the candidate must be velocity-independent. The
    multiplier conditions themselves are reported in the notes, not
    enforced."""
    _require_multiplier(s, g)
    grad, indices = nabla_tensor02(s, g), range(1, s.n + 1)
    cells = [Cell(_label("VNablaG", i, j, k), grad.entry(i, j).diff(s.ctx.v(k)))
             for i in indices for j in range(i, s.n + 1) for k in indices]
    base = check_multiplier_dissipative(s, g)
    verdict = "pass" if base.passes else "fail"
    notes = (f"multiplier conditions for a dissipative representation: {verdict}",)
    return ConditionReport("rayleigh", tuple(cells), multiplier=g, notes=notes)


# --------------------------------------------------------------------------
# the suite table


class Suite(NamedTuple):
    """One explicit suite: the name of its checker in this module, the
    candidate data it takes after ``g``, whether the ansatz search
    supports it, and the reconstruction route that integrates its
    multiplier, if there is one."""

    checker: str
    takes: Tuple[str, ...] = ()
    searchable: bool = True
    route: Optional[str] = None


#: the label prefix of the smooth-at-rest cells, which the assembly skips
SMOOTH_AT_REST = "SmoothV0"
SUITES = {
    "classical": Suite("check_classical"),
    "dissipative": Suite("check_dissipative", ("D",), route="dissipative"),
    "gyroscopic": Suite("check_gyroscopic", ("omega",), route="gyroscopic"),
    "thm3": Suite("check_multiplier_dissipative", route="dissipative"),
    "thm4": Suite("check_multiplier_gyroscopic", route="gyroscopic"),
    "prop2a": Suite("check_prop2a"),
    "rayleigh": Suite("check_rayleigh", searchable=False),
}


def check_suite(suite: str, s: Sode, g: TensorField, D: Optional[Expr] = None,
                omega: Optional[TensorField] = None) -> ConditionReport:
    """Run the explicit suite named ``suite`` on the candidate ``g``. The
    suites that take ``D`` or ``omega`` get the zero function or the zero
    two-form when it is not given. The checker is looked up by name at
    call time, so a rebinding of the module attribute reaches it."""
    entry = SUITES[suite]
    given = {"D": D if D is not None else s.ctx.zero, "omega": omega}
    if omega is None and "omega" in entry.takes:
        given["omega"] = TensorField(s.ctx, (0, 2), {}, antisym=((1, 2),))
    checker = globals()[entry.checker]
    return checker(s, g, *(given[name] for name in entry.takes))


# --------------------------------------------------------------------------
# implicit systems


class _ImplicitFields(NamedTuple):
    ctx: ExprContext
    f: Tuple[Expr, ...]


class ImplicitSystem(_ImplicitFields):
    """A time-dependent implicit second-order system ``f_i = 0`` whose
    left-hand sides may involve positions, velocities and accelerations.
    The context must carry time and jets up to order four, because the
    closure coefficients involve two total time derivatives."""

    __slots__ = ()

    def __new__(cls, ctx: ExprContext, f: Sequence[Expr]):
        if not ctx.uses_time or ctx.max_jet_order < 4:
            raise GeometryError(
                "implicit systems need a context with time and jets up to order 4")
        f = tuple(f)
        if len(f) != ctx.n:
            raise DimensionMismatchError(
                f"expected {ctx.n} expressions, got {len(f)}")
        for position, entry in enumerate(f, start=1):
            if entry.ctx != ctx:
                raise DimensionMismatchError("expression from another context")
            for var in entry.free_varids():
                if var.kind == "jet" and var.order > 2:
                    raise ImplicitOrderError(
                        f"f_{position} depends on a jet of order {var.order}")
        return super().__new__(cls, ctx, f)

    @property
    def n(self) -> int:
        return self.ctx.n


def implicit_context(n: int, parameters: Sequence[str] = ()) -> ExprContext:
    """The standard context for implicit problems."""
    return ExprContext(n, parameters=tuple(parameters), max_jet_order=4,
                       uses_time=True)


def total_derivative(ctx: ExprContext, e: Expr) -> Expr:
    """Total time derivative along the jet prolongation, shifting each
    jet variable to the next order."""
    if e.ctx != ctx:
        raise DimensionMismatchError("expression from another context")
    for var in e.free_varids():
        if var.kind == "jet" and var.order >= ctx.max_jet_order:
            raise ImplicitOrderError(
                f"total derivative would need a jet of order {var.order + 1}")
    terms = [e.diff(ctx.time_var())] if ctx.uses_time else []
    for i in range(1, ctx.n + 1):
        terms.append((ctx.var(ctx.jet(i, 1)), e.diff(ctx.q(i))))
        terms.extend((ctx.var(ctx.jet(i, order + 1)), e.diff(ctx.jet(i, order)))
                     for order in range(1, ctx.max_jet_order))
    return lincomb(ctx, terms)


def _first_order_residual(ctx: ExprContext, e: Expr) -> Expr:
    """What remains of ``e`` beyond functions of (t, q, velocity)."""
    high = {ctx.jet(i, order): ctx.zero
            for i in range(1, ctx.n + 1)
            for order in range(2, ctx.max_jet_order + 1)}
    return e - e.subst(high)


def check_implicit(sys: ImplicitSystem) -> ConditionReport:
    """Generalized variational-with-dissipation test for an implicit
    system: the acceleration block must be symmetric, the two families
    of closure coefficients must be first order, the closure relations
    among their derivatives must hold, and — computed independently as
    a cross-check — the reduced formulation for systems affine in the
    acceleration must agree."""
    ctx = sys.ctx
    f = sys.f
    half, minus_half = ctx.const(Fraction(1, 2)), ctx.const(Fraction(-1, 2))
    indices = range(1, sys.n + 1)
    pairs = list(combinations(indices, 2))

    # the derivatives of f_i by the position, the velocity and the
    # acceleration of coordinate j, each keyed (i, j) and computed once
    by_q, by_v, by_a = ({(i, j): f[i - 1].diff(ctx.jet(j, order))
                         for i in indices for j in indices}
                        for order in (0, 1, 2))
    t_coeff = {(i, j): by_a[i, j] - by_a[j, i] for i, j in pairs}
    s_coeff = {(i, j): lincomb(ctx, [by_v[i, j], by_v[j, i], (
                   ctx.const(-2), total_derivative(ctx, by_a[j, i]))])
               for i in indices for j in indices}
    r_coeff = {(i, j): lincomb(ctx, [
                   by_q[i, j], -by_q[j, i],
                   (minus_half, total_derivative(ctx, by_v[i, j] - by_v[j, i])),
                   (half, total_derivative(ctx, total_derivative(
                       ctx, t_coeff[i, j])))])
               for i, j in pairs}

    cells = [Cell(_label("T", *pair), t_coeff[pair]) for pair in pairs]
    cells += [Cell(_label("OrderR", *pair),
                   _first_order_residual(ctx, r_coeff[pair])) for pair in pairs]
    cells += [Cell(_label("OrderS", *idx), _first_order_residual(ctx, value))
              for idx, value in s_coeff.items()]
    cells += [Cell(_label("C1", *idx), residual)
              for idx, residual in d_basic(ctx, r_coeff, 2).items()]
    for i, j in pairs:
        for k in indices:
            residual = lincomb(ctx, [
                r_coeff[i, j].diff(ctx.jet(k, 1)),
                (minus_half, s_coeff[i, k].diff(ctx.q(j))),
                (half, s_coeff[j, k].diff(ctx.q(i)))])
            cells.append(Cell(_label("C2", i, j, k), residual))
    for i in indices:
        for j, k in pairs:
            residual = (s_coeff[i, j].diff(ctx.jet(k, 1))
                        - s_coeff[i, k].diff(ctx.jet(j, 1)))
            cells.append(Cell(_label("C3", i, j, k), residual))

    cells.extend(_reduced_route_cells(sys))

    return ConditionReport("implicit", tuple(cells),
                           multiplier=TensorField(ctx, (0, 2), by_a))


def _reduced_route_cells(sys: ImplicitSystem):
    """The reduced test for systems affine in the acceleration, used as
    an independent cross-check of the closure route."""
    ctx = sys.ctx
    n = sys.n
    half, minus_half = ctx.const(Fraction(1, 2)), ctx.const(Fraction(-1, 2))
    rest = {ctx.jet(i, 2): ctx.zero for i in range(1, n + 1)}
    block = [[sys.f[i].diff(ctx.jet(j + 1, 2)) for j in range(n)]
             for i in range(n)]
    tail = [sys.f[i].subst(rest) for i in range(n)]

    cells = []
    for i, j in combinations(range(1, n + 1), 2):
        cells.append(Cell(_label("XGSym", i, j),
                          block[i - 1][j - 1] - block[j - 1][i - 1]))
    for i in range(1, n + 1):
        residual = lincomb(ctx, [sys.f[i - 1], -tail[i - 1]] + [
            (-block[i - 1][j - 1], ctx.var(ctx.jet(j, 2))) for j in range(1, n + 1)])
        cells.append(Cell(_label("XAffine", i), residual))
    for i in range(1, n + 1):
        for j, k in combinations(range(1, n + 1), 2):
            cells.append(Cell(_label("XA", i, j, k),
                              block[i - 1][j - 1].diff(ctx.jet(k, 1))
                              - block[i - 1][k - 1].diff(ctx.jet(j, 1))))
    for i, j in combinations(range(1, n + 1), 2):
        for k in range(1, n + 1):
            residual = lincomb(ctx, [
                block[i - 1][k - 1].diff(ctx.q(j)),
                (minus_half, tail[i - 1].diff(ctx.jet(j, 1)).diff(ctx.jet(k, 1))),
                -block[j - 1][k - 1].diff(ctx.q(i)),
                (half, tail[j - 1].diff(ctx.jet(i, 1)).diff(ctx.jet(k, 1)))])
            cells.append(Cell(_label("XB", i, j, k), residual))
    # XC is d of the 2-form d tail_b/dv_a - d tail_a/dv_b
    sigma = {(a, b): tail[b - 1].diff(ctx.jet(a, 1))
             - tail[a - 1].diff(ctx.jet(b, 1))
             for a, b in combinations(range(1, n + 1), 2)}
    for idx, residual in d_basic(ctx, sigma, 2).items():
        cells.append(Cell(_label("XC", *idx), residual))
    return cells
