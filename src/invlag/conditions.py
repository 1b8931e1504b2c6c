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
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple, Optional, Sequence, Tuple

from .exprcore import Expr, ExprContext, lincomb
from .geometry import (DimensionMismatchError, GeometryError, Sode,
                       TensorField, _flow_terms, _horizontal_terms,
                       _memoised, _neg_connection, curvature, d_basic,
                       jacobi, matrix_det, nabla_tensor02, theta_tensor)


class TwoFormError(GeometryError):
    """The gyroscopic two-form is not antisymmetric or not basic."""


class ImplicitOrderError(GeometryError):
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

    def sharing_record(self, other: "ConditionReport") -> "ConditionReport":
        """This report with the nonsingularity record of ``other``, a
        report on an equal multiplier: one determinant serves both."""
        report = ConditionReport(self.suite, self.cells, self.multiplier,
                                 self.notes)
        object.__setattr__(report, "_nonsingularity", other.nonsingularity)
        return report

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


def _require_tensor02(s: Sode, t: TensorField, name: str):
    if t.ctx != s.ctx:
        raise DimensionMismatchError(f"{name} lives in a different context")
    if t.shape != (0, 2):
        raise DimensionMismatchError(f"{name} must be a (0,2) tensor")


def _require_multiplier(s: Sode, g: TensorField):
    _require_tensor02(s, g, "multiplier")
    for i, j in combinations(range(1, s.n + 1), 2):
        if g.entry(i, j) != g.entry(j, i):
            raise GeometryError(f"multiplier is not symmetric at {(i, j)}")


def _require_two_form(s: Sode, omega: TensorField):
    _require_tensor02(s, omega, "two-form")
    for i in range(1, s.n + 1):
        for j in range(1, s.n + 1):
            entry = omega.entry(i, j)
            if entry != -omega.entry(j, i):
                raise TwoFormError(f"two-form is not antisymmetric at {(i, j)}")
            _require_velocity_free(s, (i, j), entry)


def _require_velocity_free(s: Sode, pair: Tuple[int, int], entry: Expr):
    """Refuse a two-form entry, or a basis function of one, that
    depends on velocities."""
    for k in range(1, s.n + 1):
        if entry.depends_on(s.ctx.v(k)):
            raise TwoFormError(f"two-form entry {pair} depends on velocities")


def _require_function(s: Sode, D: Expr):
    if D.ctx != s.ctx:
        raise DimensionMismatchError("dissipation function from another context")


# --------------------------------------------------------------------------
# a cell family shared by the implicit checks


def _symmetry_cells(family: str, n: int, entry, velocity):
    """Velocity symmetry of a matrix ``M``: ``V_k(M_ij) - V_j(M_ik)`` on
    every ``i`` and every ``j < k``, where ``entry(i, j)`` is ``M_ij``
    and ``velocity(k)`` the variable ``V_k`` differentiates by."""
    indices = range(1, n + 1)
    return [Cell(_label(family, i, j, k), entry(i, j).diff(velocity(k))
                 - entry(i, k).diff(velocity(j)))
            for i in indices for j, k in combinations(indices, 2)]


# --------------------------------------------------------------------------
# cells as terms linear in the candidate data

#: the kinds of a term ``(sign, key, kind, operand)``: ``sign`` times
#: the entry ``key`` of the candidate data (``_data``) times the
#: expression ``operand`` (a weight), differentiated by the velocity
#: ``v_operand``, horizontally along ``operand``, or along the flow; or
#: ``sign`` times ``v_m`` times its derivative by ``q_k``, ``operand``
#: ``(k, m)``. A key is ``(i, j)`` for ``g_ij`` (``i <= j``), ``("omega",
#: i, j)`` for ``omega_ij`` (``i < j``) and ``("D", i)`` for the
#: derivative of ``D`` by ``v_i``
WEIGHT, VELOCITY, HORIZONTAL, FLOW, TWO_FORM = range(5)


def _pair(i: int, j: int) -> Tuple[int, int]:
    return (i, j) if i <= j else (j, i)


@lru_cache(maxsize=16)
def _skeleton(n: int) -> dict:
    """The cells of every family over dimension ``n``, each ``(indices,
    terms, slots)``: ``terms`` the terms without a weight and ``slots``
    the weights, ``(sign, pair, table, key)`` for ``g_pair`` times the
    entry ``key`` of the system's table ``table`` (``_WEIGHTS``), a term
    only where that entry is nonzero; ``D_i`` is the derivative of ``D``
    by ``v_i``:

    * ``HD1[i,j,k] = V_k g_ij - V_j g_ik`` on every ``i`` and ``j < k``;
    * ``DHSym[i,j,k] = H_i g_jk - H_j g_ik + sum_l (g_il theta^l_jk -
      g_jl theta^l_ik)`` on every ``k`` and ``i < j``;
    * ``RCycle[i,k,l] = sum_j (g_ij R^j_kl + g_lj R^j_ik + g_kj
      R^j_li)`` on every ascending triple;
    * ``NablaG[i,j] = Gamma(g_ij) - sum_k (g_ik Gamma^k_j + g_jk
      Gamma^k_i)`` on ``i <= j``, also labelled ``Hg2``, and ``HD2``
      less ``V_j D_i``;
    * ``PhiSym[i,j] = sum_k (g_ik Phi^k_j - g_jk Phi^k_i)`` on ``i <
      j``, ``HD3`` plus ``H_j D_i - H_i D_j``, and ``Hg3`` less ``sum_k
      v^k (d omega)_ijk``, where ``(d omega)_ijk = d_i omega_jk + d_j
      omega_ki + d_k omega_ij`` vanishes for ``k`` in ``(i, j)``;
    * ``PhiR[k,l] = -PhiSym[k,l] - sum_i v^i RCycle[i,k,l]``, the cycle
      read as weights of ``g`` (``_cycle_weights``)."""
    indices = range(1, n + 1)
    pairs = list(combinations(indices, 2))
    upper = [(i, j) for i in indices for j in range(i, n + 1)]
    nabla = [((i, j), ((1, (i, j), FLOW, None),), tuple(
        (1, _pair(a, k), "neg_connection", (k, b)) for k in indices
        for a, b in ((i, j), (j, i)))) for i, j in upper]
    skew = [((i, j), (), tuple(
        (sign, _pair(a, k), "jacobi", (k, b)) for k in indices
        for sign, a, b in ((1, i, j), (-1, j, i)))) for i, j in pairs]
    # -d_at omega_ab = sign * d_at omega_pair, pair = (a, b) sorted
    d_omega = [tuple((-1 if a < b else 1, ("omega",) + _pair(a, b),
                      TWO_FORM, (at, k))
                     for k in indices if k not in (i, j)
                     for at, a, b in ((i, j, k), (j, k, i), (k, i, j)))
               for i, j in pairs]
    return {
        "HD1": [((i, j, k), ((1, _pair(i, j), VELOCITY, k),
                             (-1, _pair(i, k), VELOCITY, j)), ())
                for i in indices for j, k in pairs],
        "DHSym": [((i, j, k), ((1, _pair(j, k), HORIZONTAL, i),
                               (-1, _pair(i, k), HORIZONTAL, j)),
                   tuple((sign, _pair(a, l), "theta", (l, b, k))
                         for l in indices
                         for sign, a, b in ((1, i, j), (-1, j, i))))
                  for k in indices for i, j in pairs],
        "RCycle": [((i, k, l), (), tuple(
            (1, _pair(a, j), "curvature", (j,) + rest) for j in indices
            for a, rest in ((i, (k, l)), (l, (i, k)), (k, (l, i)))))
            for i, k, l in combinations(indices, 3)],
        "NablaG": nabla, "Hg2": nabla,
        "HD2": [((i, j), terms + ((-1, ("D", i), VELOCITY, j),), slots)
                for (i, j), terms, slots in nabla],
        "PhiSym": skew,
        "HD3": [((i, j), terms + ((1, ("D", i), HORIZONTAL, j),
                                  (-1, ("D", j), HORIZONTAL, i)), slots)
                for (i, j), terms, slots in skew],
        "Hg3": [(at, terms + extra, slots)
                for (at, terms, slots), extra in zip(skew, d_omega)],
        "PhiR": [(at, (), tuple((-sign, pair, table, key)
                                for sign, pair, table, key in slots)
                  + tuple((-1, pair, "cycles", at + pair)
                          for pair in upper if n > 2))
                 for at, _terms, slots in skew],
    }


def _cycle_weights(s: Sode) -> dict:
    """The weight of ``g_ab`` in ``sum_i v^i RCycle[i,k,l]`` for ``k <
    l``, keyed ``(k, l, a, b)``, nonzero ones only; ``i`` runs outside
    ``(k, l)``, where the cycle vanishes."""
    indices, R, parts = range(1, s.n + 1), curvature(s).entries, {}
    for (k, l), i, j in product(combinations(indices, 2), indices, indices):
        for a, key in ((i, (j, k, l)), (l, (j, i, k)), (k, (j, l, i))):
            if i not in (k, l) and key in R:
                parts.setdefault((k, l) + _pair(a, j), []).append(
                    (s.velocities[i - 1], R[key]))
    weights = {key: lincomb(s.ctx, terms) for key, terms in parts.items()}
    return {key: w for key, w in weights.items() if w.num.coeffs}


#: the weight tables of a system that the skeleton's slots name
_WEIGHTS = {
    "theta": lambda s: theta_tensor(s).entries,
    "curvature": lambda s: curvature(s).entries,
    "jacobi": lambda s: jacobi(s).entries,
    "neg_connection": lambda s: _memoised(s, "neg_connection",
                                          _neg_connection).entries,
    "cycles": _cycle_weights,
}


def _family(s: Sode, family: str) -> tuple:
    """The cells of one family as ``(family, indices, terms)``, made
    once per system; a weight table is built only when some cell reads
    it."""
    key = f"{family} terms"
    if key not in s._memo:
        tables, cells = {}, []
        for indices, terms, slots in _skeleton(s.n)[family]:
            weights = []
            for sign, pair, table, at in slots:
                if table not in tables:
                    tables[table] = _WEIGHTS[table](s)
                weight = tables[table].get(at)
                if weight is not None:
                    weights.append((sign, pair, WEIGHT, weight))
            cells.append((family, indices, terms + tuple(weights)))
        s._memo[key] = tuple(cells)
    return s._memo[key]


def suite_terms(s: Sode, suite: str) -> tuple:
    """The cells of a searchable suite as terms linear in the candidate
    data (``WEIGHT`` to ``TWO_FORM``), in report order, ``(family,
    indices, terms)`` per cell (``_skeleton`` has the formulas), made
    once per system; zero weights are left out. The suites evaluate
    these terms on a candidate (``_evaluated``); the ansatz search reads
    them as weights of its unknowns (``weights.ansatz_rows``)."""
    key = f"{suite} suite terms"
    if key not in s._memo:
        s._memo[key] = tuple(cell for family in SUITES[suite].families
                             for cell in _family(s, family))
    return s._memo[key]


def _data(s: Sode, g_entries: dict, D: Optional[Expr],
          omega: Optional[TensorField]) -> dict:
    """The nonzero entries of the candidate data by term key: those of
    the multiplier ``g_entries``, the velocity gradient of ``D`` and the
    two-form ``omega`` above its diagonal, each checked first."""
    if D is None and omega is None:
        return g_entries
    data = dict(g_entries)
    if D is not None:
        _require_function(s, D)
        for i, at in enumerate(s.v_pos, start=1):
            entry = D.diff(at)
            if entry.num.coeffs:
                data["D", i] = entry
    if omega is not None:
        _require_two_form(s, omega)
        for i, j in combinations(range(1, s.n + 1), 2):
            entry = omega.entry(i, j)
            if entry.num.coeffs:
                data["omega", i, j] = entry
    return data


def _parts(s: Sode, kind: int, operand, entry: Expr) -> list:
    """The ``lincomb`` parts of a term of ``kind`` and ``operand`` on the
    entry ``entry``, negated already for a term of sign -1."""
    if kind == WEIGHT:
        return [(entry, operand)]
    if kind == VELOCITY:
        return [entry.diff(s.v_pos[operand - 1])]
    if kind == HORIZONTAL:
        return _horizontal_terms(s, operand, entry)
    if kind == FLOW:
        return _flow_terms(s, entry)
    return [(entry.diff(s.q_pos[operand[0] - 1]), s.velocities[operand[1] - 1])]


def _evaluated(s: Sode, data: dict, minus: dict, terms) -> Expr:
    """The sum of ``terms`` on the candidate data ``data`` (``_data``); a
    term on a missing (zero) entry adds nothing. A term of sign -1 reads
    the negated entry, made once per report and kept in ``minus``."""
    parts = []
    for sign, key, kind, operand in terms:
        entry = data.get(key)
        if entry is None:
            continue
        if sign < 0:
            if key not in minus:
                minus[key] = -entry
            entry = minus[key]
        parts += _parts(s, kind, operand, entry)
    return lincomb(s.ctx, parts)


def _report(suite: str, s: Sode, g: TensorField, D: Optional[Expr] = None,
            omega: Optional[TensorField] = None, extra=None) -> ConditionReport:
    """The report of ``suite``'s terms on the candidate ``g``, ``D`` and
    ``omega``, followed by the cells ``extra(s, g)`` when that is given;
    a missing ``D`` or ``omega`` reads as zero."""
    _require_multiplier(s, g)
    data, minus = _data(s, g.entries, D, omega), {}
    cells = tuple(Cell(_label(family, *indices),
                       _evaluated(s, data, minus, terms))
                  for family, indices, terms in suite_terms(s, suite))
    return ConditionReport(suite, cells + (extra(s, g) if extra else ()),
                           multiplier=g)


# --------------------------------------------------------------------------
# explicit suites


def check_classical(s: Sode, g: TensorField) -> ConditionReport:
    """Multiplier conditions for a plain variational representation:
    velocity symmetry, covariant constancy along the flow, and symmetry
    of the force endomorphism lowered with the candidate."""
    return _report("classical", s, g)


def check_dissipative(s: Sode, g: TensorField,
                      D: Optional[Expr]) -> ConditionReport:
    """Conditions for a representation with a dissipation function:
    velocity symmetry, the flow derivative of the candidate matching
    the velocity Hessian of ``D``, and the lowered force endomorphism
    being symmetric up to horizontal derivatives of ``D``; ``None``
    reads as the zero function."""
    return _report("dissipative", s, g, D=D)


def check_gyroscopic(s: Sode, g: TensorField,
                     omega: Optional[TensorField]) -> ConditionReport:
    """Conditions for a representation with gyroscopic forces from a
    basic two-form: velocity symmetry, covariant constancy, and the
    lowered force endomorphism being symmetric up to the contraction of
    the exterior derivative of the two-form with the velocity; ``None``
    reads as the zero two-form."""
    return _report("gyroscopic", s, g, omega=omega)


def check_multiplier_dissipative(s: Sode, g: TensorField) -> ConditionReport:
    """Existence conditions for some dissipation function, in terms of
    the candidate alone: velocity symmetry, symmetry of the horizontal
    covariant differential, and vanishing of the curvature cycle."""
    return _report("thm3", s, g)


def check_multiplier_gyroscopic(s: Sode, g: TensorField) -> ConditionReport:
    """Existence conditions for some gyroscopic two-form, in terms of
    the candidate alone: velocity symmetry, covariant constancy, and
    the lowered force endomorphism matching the velocity contraction of
    the curvature cycle. Additionally flags entries of the candidate or
    of the lowered force endomorphism whose denominator vanishes
    identically at zero velocity (those would not restrict smoothly)."""
    return _report("thm4", s, g, extra=_smooth_at_rest_cells)


def _smooth_at_rest_cells(s: Sode, g: TensorField) -> tuple:
    """Indicator cells (one when bad, zero when fine) for denominators
    of ``g`` and of the lowered force endomorphism ``(g Phi)_ij = sum_k
    g_ik Phi^k_j`` vanishing identically at zero velocity, on ``i <=
    j``."""
    ctx, indices, jac = s.ctx, range(1, s.n + 1), jacobi(s).entries
    rest = {ctx.v(k): ctx.zero for k in indices}

    def lowered(i, j):
        return lincomb(ctx, [(g.entry(i, k), jac[k, j]) for k in indices
                             if (k, j) in jac])

    return tuple(
        Cell(_label(f"SmoothV0.{name}", i, j),
             ctx.one if entry(i, j).denominator_expr().subst(rest).is_zero()
             else ctx.zero)
        for name, entry in (("g", g.entry), ("PhiG", lowered))
        for i in indices for j in range(i, s.n + 1))


def check_prop2a(s: Sode, g: TensorField) -> ConditionReport:
    """The reduced pair of multiplier conditions: velocity symmetry and
    covariant constancy along the flow, with the force-endomorphism
    condition deliberately left out."""
    return _report("prop2a", s, g)


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
    candidate data it takes after ``g``, the reconstruction route that
    integrates its multiplier, if there is one, and the families of its
    cells as terms linear in the candidate (``suite_terms``), in report
    order: the ansatz search supports exactly the suites that have
    them."""

    checker: str
    takes: Tuple[str, ...] = ()
    route: Optional[str] = None
    families: Tuple[str, ...] = ()


SUITES = {
    "classical": Suite("check_classical",
                       families=("HD1", "NablaG", "PhiSym")),
    "dissipative": Suite("check_dissipative", ("D",), "dissipative",
                         ("HD1", "HD2", "HD3")),
    "gyroscopic": Suite("check_gyroscopic", ("omega",), "gyroscopic",
                        ("HD1", "Hg2", "Hg3")),
    "thm3": Suite("check_multiplier_dissipative", (), "dissipative",
                  ("HD1", "DHSym", "RCycle")),
    "thm4": Suite("check_multiplier_gyroscopic", (), "gyroscopic",
                  ("HD1", "NablaG", "PhiR")),
    "prop2a": Suite("check_prop2a", families=("HD1", "NablaG")),
    "rayleigh": Suite("check_rayleigh"),
}


def check_suite(suite: str, s: Sode, g: TensorField, D: Optional[Expr] = None,
                omega: Optional[TensorField] = None) -> ConditionReport:
    """Run the explicit suite named ``suite`` on the candidate ``g``,
    passing the data it takes (``None`` reads as zero). The checker is
    looked up by name at call time, so a rebinding of the module
    attribute reaches it."""
    entry = SUITES[suite]
    given = {"D": D, "omega": omega}
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
    half, minus_half = ctx.const(Fraction(1, 2)), ctx.const(Fraction(-1, 2))
    indices = range(1, sys.n + 1)
    pairs = list(combinations(indices, 2))

    # the derivatives of f_i by the position, the velocity and the
    # acceleration of coordinate j, each keyed (i, j) and computed once
    by_q, by_v, by_a = ({(i, j): sys.f[i - 1].diff(ctx.jet(j, order))
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
    cells += _symmetry_cells("C3", sys.n, lambda i, j: s_coeff[i, j],
                             lambda k: ctx.jet(k, 1))

    cells.extend(_reduced_route_cells(sys))

    return ConditionReport("implicit", tuple(cells),
                           multiplier=TensorField(ctx, (0, 2), by_a))


def _reduced_route_cells(sys: ImplicitSystem):
    """The reduced test for systems affine in the acceleration, used as
    an independent cross-check of the closure route."""
    ctx = sys.ctx
    half, minus_half = ctx.const(Fraction(1, 2)), ctx.const(Fraction(-1, 2))
    indices = range(1, sys.n + 1)
    rest = {ctx.jet(i, 2): ctx.zero for i in indices}
    block = {(i, j): sys.f[i - 1].diff(ctx.jet(j, 2))
             for i in indices for j in indices}
    tail = {i: sys.f[i - 1].subst(rest) for i in indices}

    cells = [Cell(_label("XGSym", i, j), block[i, j] - block[j, i])
             for i, j in combinations(indices, 2)]
    for i in indices:
        residual = lincomb(ctx, [sys.f[i - 1], -tail[i]] + [
            (-block[i, j], ctx.var(ctx.jet(j, 2))) for j in indices])
        cells.append(Cell(_label("XAffine", i), residual))
    cells += _symmetry_cells("XA", sys.n, lambda i, j: block[i, j],
                             lambda k: ctx.jet(k, 1))
    for i, j in combinations(indices, 2):
        for k in indices:
            residual = lincomb(ctx, [
                block[i, k].diff(ctx.q(j)),
                (minus_half, tail[i].diff(ctx.jet(j, 1)).diff(ctx.jet(k, 1))),
                -block[j, k].diff(ctx.q(i)),
                (half, tail[j].diff(ctx.jet(i, 1)).diff(ctx.jet(k, 1)))])
            cells.append(Cell(_label("XB", i, j, k), residual))
    # XC is d of the 2-form d tail_b/dv_a - d tail_a/dv_b
    sigma = {(a, b): tail[b].diff(ctx.jet(a, 1)) - tail[a].diff(ctx.jet(b, 1))
             for a, b in combinations(indices, 2)}
    for idx, residual in d_basic(ctx, sigma, 2).items():
        cells.append(Cell(_label("XC", *idx), residual))
    return cells
