"""Multiplier search inside finite ansatz families.

Each supported condition suite is linear in the multiplier entries (and
in an optional two-form), so declaring every entry as an unknown
rational combination of user-chosen basis functions turns "does a
multiplier of this shape exist?" into an exact linear-algebra question.
Assembly reads every condition cell's integer numerator coefficients
and emits one sparse integer row per monomial in everything that is
not an unknown; solving is exact reduction of those rows to reduced
row echelon form, eliminated fraction-free in integers, whose points
are re-verified in one integer pass over the packed residuals; the
nonsingular-representative search is a bounded integer enumeration
over the solution space with a structural shortcut for spaces that
force an identically-zero row; it returns the member it finds and
leaves the space as it was.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm, prod
from operator import add
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exprcore import Expr, ExprContext, convert, lincomb
from .geometry import InternalInconsistencyError, Sode, TensorField
from .conditions import (SMOOTH_AT_REST, SUITES as SUITE_TABLE,
                         ConditionReport, check_suite)

SUITES = tuple(name for name, suite in SUITE_TABLE.items() if suite.searchable)


class SolverError(Exception):
    """A search problem is malformed or cannot be assembled."""


class NonlinearCouplingError(SolverError):
    """A condition residual is not linear in the unknowns (defensive:
    the supported suites never trigger this)."""


_Basis = Tuple[Tuple[Tuple[int, int], Tuple[Expr, ...]], ...]


class _AnsatzFields(NamedTuple):
    suite: str
    g_basis: _Basis
    omega_basis: _Basis = ()
    D: Optional[Expr] = None
    omega: Optional[TensorField] = None


class AnsatzProblem(_AnsatzFields):
    """A finite-dimensional search family: every multiplier entry (and
    optionally every two-form entry) is an unknown rational combination
    of fixed basis expressions. Symmetry is built in by declaring only
    entries with i <= j (respectively i < j)."""

    __slots__ = ()

    def __new__(cls, suite: str, g_basis: _Basis, omega_basis: _Basis = (),
                D: Optional[Expr] = None,
                omega: Optional[TensorField] = None):
        if suite not in SUITES:
            raise SolverError(f"unknown suite {suite!r}")
        for (i, j), _basis in g_basis:
            if i > j:
                raise SolverError(
                    "multiplier entries must be declared with i <= j")
        for (i, j), _basis in omega_basis:
            if i >= j:
                raise SolverError(
                    "two-form entries must be declared with i < j")
        for part, basis in (("multiplier", g_basis),
                            ("two-form", omega_basis)):
            pairs = [pair for pair, _basis in basis]
            if len(set(pairs)) < len(pairs):
                raise SolverError(f"a {part} entry is declared twice")
        if omega_basis and "omega" not in SUITE_TABLE[suite].takes:
            raise SolverError(
                "two-form unknowns only make sense for the gyroscopic suite")
        return super().__new__(cls, suite, g_basis, omega_basis, D, omega)

    @property
    def layout(self) -> Tuple[Tuple[str, int, int, int], ...]:
        """Unknown index -> (part, i, j, basis position), in declaration
        order; this fixes the meaning of every coefficient vector."""
        slots = []
        for (i, j), basis in self.g_basis:
            for k in range(len(basis)):
                slots.append(("g", i, j, k))
        for (i, j), basis in self.omega_basis:
            for k in range(len(basis)):
                slots.append(("omega", i, j, k))
        return tuple(slots)


class LinearSystem(NamedTuple):
    """An exact linear system in the unknowns ``c``, one sparse integer
    row ``{column: value}`` per (condition cell, monomial) pair: columns
    below ``len(unknowns)`` hold the coefficients of the unknowns and
    column ``len(unknowns)`` the right-hand side, so a row reads
    ``sum(row[k] * c[k]) = row[len(unknowns)]``."""

    unknowns: Tuple[str, ...]
    rows: Tuple[Dict[int, int], ...]
    residuals: Tuple[Tuple[str, Expr], ...]
    context: ExprContext
    problem: AnsatzProblem


class SolutionSpace(NamedTuple):
    """Affine solution set of an assembled system over ``n`` positions,
    in the coordinates fixed by the layout of ``problem``."""

    unknowns: Tuple[str, ...]
    nullspace: Tuple[Tuple[Fraction, ...], ...]
    particular: Optional[Tuple[Fraction, ...]]
    certificate_row: Optional[str]
    problem: AnsatzProblem
    n: int

    @property
    def consistent(self) -> bool:
        return self.particular is not None

    @property
    def dimension(self) -> int:
        return len(self.nullspace)

    @property
    def definitive_negative(self) -> bool:
        """True when the space is consistent but its members leave some
        multiplier row identically zero: a structural proof that no
        member is nonsingular."""
        if not self.consistent:
            return False
        dead = set(self.forced_zero())
        live_rows = {index for part, i, j, _position in self.problem.layout
                     if part == "g" and (part, i, j) not in dead
                     for index in (i, j)}
        return len(live_rows) < self.n

    def forced_zero(self) -> Tuple[Tuple[str, int, int], ...]:
        """The declared entries ``(part, i, j)`` that vanish at every
        point of the space, sorted; none when the system is
        inconsistent."""
        if not self.consistent:
            return ()
        points = (self.particular,) + self.nullspace
        dead: Dict[Tuple[str, int, int], bool] = {}
        for k, (part, i, j, _position) in enumerate(self.problem.layout):
            still = all(point[k] == 0 for point in points)
            dead[(part, i, j)] = dead.get((part, i, j), True) and still
        return tuple(sorted(key for key, gone in dead.items() if gone))


class Representative(NamedTuple):
    """A nonsingular member of a solution space: its coefficient vector,
    its two-form when the ansatz declares one, and the report of its
    suite re-check, which holds the multiplier and its determinant."""

    vector: Tuple[Fraction, ...]
    omega: Optional[TensorField]
    report: ConditionReport

    @property
    def g(self) -> TensorField:
        return self.report.multiplier


# --------------------------------------------------------------------------
# ansatz constructors


def q_monomials(ctx: ExprContext, degree: int,
                variables: Optional[Sequence[int]] = None) -> Tuple[Expr, ...]:
    """All monomials in the chosen position variables of total degree at
    most ``degree``, constants first, in graded lexicographic order."""
    indices = dict.fromkeys(variables if variables is not None
                            else range(1, ctx.n + 1))
    return tuple(prod((ctx.var(ctx.q(i)) for i in combo), start=ctx.one)
                 for d in range(degree + 1)
                 for combo in combinations_with_replacement(indices, d))


def constant_ansatz(ctx: ExprContext, suite: str, **extra) -> AnsatzProblem:
    """Full symmetric multiplier with constant entries."""
    entries = tuple((pair, (ctx.one,)) for pair in
                    _symmetric_pairs(ctx.n))
    return AnsatzProblem(suite, entries, **extra)


def polynomial_ansatz(ctx: ExprContext, suite: str, degree: int,
                      variables: Optional[Sequence[int]] = None,
                      **extra) -> AnsatzProblem:
    """Full symmetric multiplier, entries polynomial in the chosen
    position variables up to the given total degree."""
    basis = q_monomials(ctx, degree, variables)
    entries = tuple((pair, basis) for pair in _symmetric_pairs(ctx.n))
    return AnsatzProblem(suite, entries, **extra)


def diagonal_ansatz(ctx: ExprContext, suite: str, degree: int,
                    variables: Optional[Sequence[int]] = None,
                    **extra) -> AnsatzProblem:
    """Diagonal multiplier, entries polynomial in the chosen position
    variables up to the given total degree."""
    basis = q_monomials(ctx, degree, variables)
    entries = tuple(((i, i), basis) for i in range(1, ctx.n + 1))
    return AnsatzProblem(suite, entries, **extra)


def _symmetric_pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


# --------------------------------------------------------------------------
# assembly


def _unknown_names(ctx: ExprContext, count: int) -> Tuple[str, ...]:
    prefix = "c"
    while any(name.startswith(prefix) and name[len(prefix):].isdigit()
              for name in ctx.parameters):
        prefix += "c"
    return tuple(f"{prefix}{k}" for k in range(count))


def assemble(s: Sode, p: AnsatzProblem) -> LinearSystem:
    """Expand the suite's condition cells over the ansatz into an exact
    linear system, one sparse integer row per monomial in everything
    that is not an unknown. The suite runs on ``s.extended(...)``, which
    reads the geometry of ``s`` instead of building it again among the
    unknowns."""
    ctx = s.ctx
    layout = p.layout
    names = _unknown_names(ctx, len(layout))
    ectx = ctx.with_parameters(names)
    s_e = s.extended(ectx)
    unknown_vars = [ectx.param(name) for name in names]
    g, omega = _ansatz_tensors(p, ectx, [ectx.var(var) for var in unknown_vars])
    if omega is None and p.omega is not None:
        w_entries = {idx: convert(p.omega.entry(*idx), ectx)
                     for idx in p.omega.all_indices()}
        omega = TensorField(ectx, (0, 2), w_entries, antisym=((1, 2),))
    D = convert(p.D, ectx) if p.D is not None else None
    report = check_suite(p.suite, s_e, g, D=D, omega=omega)

    count = len(names)
    unknown_positions, cut, low, columns = _packed_layout(ectx, names)
    rows: List[Dict[int, int]] = []
    residuals: List[Tuple[str, Expr]] = []
    for cell in report.cells:
        if cell.label.startswith(SMOOTH_AT_REST):
            continue
        residual = cell.residual
        if residual.is_zero():
            continue
        residuals.append((cell.label, residual))
        if any(not factor.gens.isdisjoint(unknown_positions)
               for factor, _exponent in residual.den_factors):
            raise NonlinearCouplingError(
                f"unknowns in a denominator at cell {cell.label}")
        # the coefficients share one positive denominator, which leaves
        # every row's direction as it is
        groups: Dict[int, Dict[int, int]] = {}
        for monom, coeff in residual.num.coeffs.items():
            unknowns = monom & low
            if not unknowns:
                column, coeff = count, -coeff
            else:
                column = columns.get(unknowns)
                if column is None:
                    raise NonlinearCouplingError(
                        f"nonlinear unknown coupling at cell {cell.label}")
            groups.setdefault(monom >> cut, {})[column] = coeff
        rows.extend(groups.values())
    return LinearSystem(names, tuple(rows), tuple(residuals), ectx, p)


def _packed_layout(ectx: ExprContext, names: Sequence[str]):
    """``(positions, cut, low, columns)`` of the unknowns ``names``, the
    last generators (``with_parameters`` appends them): ``key >> cut`` is
    the rest of a packed monomial, ``key & low`` its unknown part."""
    total = len(ectx.all_varids())
    positions = range(total - len(names), total)
    assert ectx.parameters[len(ectx.parameters) - len(names):] == \
        tuple(names), "the unknowns must be the last generators"
    shifts = ectx._ring.shifts
    cut = shifts[positions.start - 1]
    columns = {1 << shifts[at]: column for column, at in enumerate(positions)}
    return positions, cut, (1 << cut) - 1, columns


def _ansatz_tensors(problem: AnsatzProblem, ctx: ExprContext,
                    coefficients: Sequence[Expr]):
    """The multiplier of the ansatz, and its two-form when one is
    declared, with ``coefficients`` (one per slot of the layout, in
    ``ctx``) in front of the basis expressions."""
    slots = iter(coefficients)

    def combine(basis):
        return lincomb(ctx, [(next(slots), convert(b, ctx)) for b in basis])

    g_entries: Dict[Tuple[int, int], Expr] = {}
    for (i, j), basis in problem.g_basis:
        g_entries[(i, j)] = g_entries[(j, i)] = combine(basis)
    g = TensorField(ctx, (0, 2), g_entries, sym=((1, 2),))
    omega = None
    if problem.omega_basis:
        w_entries: Dict[Tuple[int, int], Expr] = {}
        for (i, j), basis in problem.omega_basis:
            entry = combine(basis)
            w_entries[(i, j)] = entry
            w_entries[(j, i)] = -entry
        omega = TensorField(ctx, (0, 2), w_entries, antisym=((1, 2),))
    return g, omega


# --------------------------------------------------------------------------
# exact elimination


def _eliminate(row: Dict[int, int], pivot: Dict[int, int],
               col: int) -> Dict[int, int]:
    """``row`` with column ``col`` cleared by a multiple of ``pivot``,
    kept in integers and scaled back to coprime entries."""
    a, b = pivot[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: value * a for c, value in row.items()}
    for c, value in pivot.items():
        total = out.get(c, 0) - value * b
        if total:
            out[c] = total
        else:
            out.pop(c, None)
    if out:
        common = gcd(*out.values())
        if common != 1:
            out = {c: value // common for c, value in out.items()}
    return out


def _rref(rows) -> Tuple[List[int], List[Dict[int, Fraction]]]:
    """Reduced row echelon form of sparse rows of nonzero integers
    (``{column: int}``): the pivot columns in increasing order and, for
    each, its row with the pivot entry 1.

    Rows are eliminated in integers, fraction-free, one at a time: a new
    row is reduced by the pivot rows so far, and if anything is left its
    first column becomes a pivot, cleared from the earlier pivot rows.
    Pivot entries are kept positive, so clearing never changes their
    sign. The reduced form is unique, so the order of the rows does not
    matter: they are taken sparsest first.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in sorted(rows, key=len):
        if not row:
            continue
        common = gcd(*row.values())
        current = {col: value // common for col, value in row.items()}
        for col in [col for col in current if col in pivots]:
            current = _eliminate(current, pivots[col], col)
        if not current:
            continue
        lead = min(current)
        if current[lead] < 0:
            current = {c: -value for c, value in current.items()}
        for col, pivot in pivots.items():
            if lead in pivot:
                pivots[col] = _eliminate(pivot, current, lead)
        pivots[lead] = current
    order = sorted(pivots)
    return order, [{c: Fraction(value, pivots[col][col])
                    for c, value in pivots[col].items()} for col in order]


def solve(system: LinearSystem) -> SolutionSpace:
    """Reduced row echelon form over exact rationals of the augmented
    rows (``_rref``); the system is inconsistent exactly when the
    right-hand-side column is a pivot. Nullspace vectors are
    primitive-integer normalized, one per free unknown in declaration
    order. The particular solution and its shift by every basis vector
    are re-verified against the residuals in one integer pass over their
    packed numerators (``_reverify``). Assembly keeps unknowns out of the
    denominators, so the numerators decide, as substitution would. Over
    the lcm ``L`` of a point's denominators the unknown-free part of a
    monomial is worth ``L`` and unknown ``k`` ``L*c_k``, all integers."""
    count = len(system.unknowns)
    pivots, pivot_rows = _rref(system.rows)

    if count in pivots:
        certificate = "0 = 1 after elimination: no solution in this ansatz"
        return SolutionSpace(system.unknowns, (), None, certificate,
                             system.problem, system.context.n)

    zero = Fraction(0)

    particular = [zero] * count
    for col, row in zip(pivots, pivot_rows):
        particular[col] = row.get(count, zero)

    free_columns = [c for c in range(count) if c not in pivots]
    basis = []
    for free in free_columns:
        vector = [zero] * count
        vector[free] = Fraction(1)
        for col, row in zip(pivots, pivot_rows):
            vector[col] = -row.get(free, zero)
        basis.append(_primitive(vector))

    space = SolutionSpace(system.unknowns, tuple(tuple(v) for v in basis),
                          tuple(particular), None, system.problem,
                          system.context.n)
    _reverify(system, space)
    return space


def _primitive(vector: List[Fraction]) -> List[Fraction]:
    """Scale to coprime integers, keeping the first nonzero entry
    positive."""
    denominators = [value.denominator for value in vector if value != 0]
    if not denominators:
        return vector
    scale = lcm(*denominators)
    integers = [value * scale for value in vector]
    common = gcd(*(int(value) for value in integers))
    integers = [value / common for value in integers]
    for value in integers:
        if value != 0:
            if value < 0:
                integers = [-v for v in integers]
            break
    return integers


def _reverify(system: LinearSystem, space: SolutionSpace):
    """Insist the residuals vanish at every point ``solve`` names, and
    name the first failing cell at the first failing point."""
    _, cut, low, columns = _packed_layout(system.context, system.unknowns)
    points = [space.particular] + [tuple(map(add, space.particular, shift))
                                   for shift in space.nullspace]
    scales = [lcm(*(value.denominator for value in p)) for p in points]
    table = {field: [int(point[k] * scale) for point, scale in
                     zip(points, scales)] for field, k in columns.items()}
    table[0] = scales
    failures: Dict[int, str] = {}
    for label, residual in system.residuals:
        sums: Dict[int, List[int]] = {}
        for monom, coeff in residual.num.coeffs.items():
            values = table.get(monom & low)
            if values is None:
                raise NonlinearCouplingError(
                    f"nonlinear unknown coupling at cell {label}")
            row = sums.setdefault(monom >> cut, [0] * len(points))
            for index, value in enumerate(values):
                row[index] += coeff * value
        for row in sums.values():
            for index in filter(row.__getitem__, range(len(row))):
                failures.setdefault(index, label)
    if failures:
        raise InternalInconsistencyError(
            f"solution fails re-verification at {failures[min(failures)]}")


# --------------------------------------------------------------------------
# representative search


def instantiate(problem: AnsatzProblem, ctx: ExprContext,
                vector: Sequence[Fraction]):
    """Substitute a coefficient vector into the ansatz, producing the
    multiplier (and the two-form when one was declared)."""
    if len(vector) != len(problem.layout):
        raise SolverError("coefficient vector does not match the ansatz")
    return _ansatz_tensors(problem, ctx,
                           [ctx.const(Fraction(value)) for value in vector])


def coefficient_sequence(bound: int):
    """0, 1, -1, 2, -2, ... up to the bound."""
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def find_nonsingular(space: SolutionSpace, s: Sode,
                     bound: int) -> Optional[Representative]:
    """The first member of the space, in the enumeration order of
    integer combinations up to ``bound``, that passes the full suite
    re-check and whose determinant is not identically zero; ``None``
    when the space is inconsistent, definitively negative, or has no
    such member within the bound. The determinant is the nonsingularity
    record of the re-check's report, so it is built once, by the report
    that shows it."""
    if not space.consistent or space.definitive_negative:
        return None
    problem = space.problem
    for combo in product(coefficient_sequence(bound), repeat=space.dimension):
        vector = list(space.particular)
        for weight, direction in zip(combo, space.nullspace):
            if weight:
                for k, value in enumerate(direction):
                    vector[k] += weight * value
        if all(value == 0 for value in vector):
            continue
        g, omega = instantiate(problem, s.ctx, vector)
        # full symbolic re-check in the original context: the soundness
        # invariant for returned representatives
        report = check_suite(problem.suite, s, g, D=problem.D,
                             omega=omega if omega is not None
                             else problem.omega)
        if report.passes and report.nonsingularity.nonsingular:
            return Representative(tuple(vector), omega, report)
    return None
