"""Multiplier search inside finite ansatz families.

Each supported condition suite is linear in the multiplier entries (and
in an optional two-form), so declaring every entry as an unknown
rational combination of user-chosen basis functions turns "does a
multiplier of this shape exist?" into an exact linear-algebra question.
Assembly emits one sparse integer row per monomial, in everything that
is not an unknown, of each condition cell's numerator, labelled with
its cell, for every suite straight from the system's base-ring weight
tables (``weights.ansatz_rows``). Solving is exact reduction of
those rows to reduced row echelon form in integers, which reduces each
row by all its pivot rows in one combination and, once few columns are
free, skips the rows a kernel test shows to lie in the row space
already; the basis of the solution space is the same integer kernel
over the unknowns; the points of the solution are re-verified against
every row in one integer pass, all points packed into one integer per
column; the nonsingular-representative search is a bounded integer
enumeration over the solution space with a structural shortcut for
spaces that force an identically-zero row; it returns the member it
finds and leaves the space as it was.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm, prod
from operator import add
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .exprcore import Expr, ExprContext, check_generators, convert, lincomb
from .geometry import InternalInconsistencyError, Sode, TensorField
from .conditions import (SUITES as SUITE_TABLE, ConditionReport,
                         _require_velocity_free, check_suite, suite_terms)
from .weights import ansatz_rows

SUITES = tuple(name for name, suite in SUITE_TABLE.items() if suite.families)


class SolverError(Exception):
    """A search problem is malformed or cannot be assembled."""


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
    of fixed basis expressions, none of them zero. Symmetry is built in
    by declaring only entries with i <= j (respectively i < j). Of the
    fixed ``D`` and ``omega`` it keeps what its suite reads: ``D`` when
    the suite takes it, ``omega`` when the suite takes it and no
    two-form unknowns are declared."""

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
            for (i, j), functions in basis:
                for k, function in enumerate(functions, start=1):
                    if function.is_zero():
                        raise SolverError(
                            f"{part} entry {i},{j}: basis function {k} is "
                            "zero, so its coefficient is undetermined")
        takes = SUITE_TABLE[suite].takes
        if omega_basis and "omega" not in takes:
            raise SolverError(
                "two-form unknowns only make sense for the gyroscopic suite")
        return super().__new__(
            cls, suite, g_basis, omega_basis, D if "D" in takes else None,
            omega if "omega" in takes and not omega_basis else None)

    @property
    def layout(self) -> Tuple[Tuple[str, int, int, int], ...]:
        """Unknown index -> (part, i, j, basis position), in declaration
        order; this fixes the meaning of every coefficient vector."""
        return tuple((part, i, j, k) for part, entries in (
            ("g", self.g_basis), ("omega", self.omega_basis))
            for (i, j), basis in entries for k in range(len(basis)))


class LinearSystem(NamedTuple):
    """An exact linear system in the unknowns ``c``, one sparse integer
    row ``{column: value}`` per (condition cell, monomial) pair: columns
    below ``len(unknowns)`` hold the coefficients of the unknowns and
    column ``len(unknowns)`` the right-hand side, so a row reads
    ``sum(row[k] * c[k]) = row[len(unknowns)]``. ``labels`` names the
    cell of each row; ``context`` is the system's."""

    unknowns: Tuple[str, ...]
    rows: Tuple[Dict[int, int], ...]
    context: ExprContext
    problem: AnsatzProblem
    labels: Tuple[str, ...]


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
    return polynomial_ansatz(ctx, suite, 0, **extra)


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
    that is not an unknown, from the system's own weight tables
    (``weights.ansatz_rows`` over ``conditions.suite_terms``). The terms
    on the problem's fixed ``D`` or two-form go to the right-hand side;
    a two-form basis function that depends on velocities is refused, as
    the suite does."""
    names = _unknown_names(s.ctx, len(p.layout))
    check_generators(len(s.ctx.all_varids()) + len(names))
    for pair, basis in sorted(p.omega_basis):  # the pairs are distinct
        for function in basis:
            _require_velocity_free(s, pair, function)
    rows, labels = ansatz_rows(s, p, suite_terms(s, p.suite))
    return LinearSystem(names, tuple(rows), s.ctx, p, tuple(labels))


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


# ``_rref`` tests rows against the kernel once at most this many of the
# columns its rows use are free: each further free column adds a kernel
# vector to every test and a refresh of the kernel. On the rows of the
# ``search`` workload's solves, 3 and 4 were fastest and 8 and 16 took
# 10-40 % longer; at lin n = 5 and 6 (``tests/shapes.py``) 4 to 16 did
# equally well.
KERNEL_FREE_COLUMNS = 4


def _reduce(row, pivots):
    """``row`` less the multiple of each pivot row whose pivot column it
    touches, as one integer combination scaled back to coprime entries:
    a positive multiple of ``row - sum(row[c] / pivot[c] * pivot)``.
    The pivot rows must be fully reduced (no pivot row touches another
    pivot column), so the combination clears every touched pivot column
    and touches no other one."""
    touched = [col for col in row if col in pivots]
    if touched:
        scale = lcm(*(pivots[col][col] for col in touched))
        out = {col: value * scale for col, value in row.items()}
        for col in touched:
            pivot = pivots[col]
            factor = row[col] * scale // pivot[col]
            for c, value in pivot.items():
                out[c] = out.get(c, 0) - factor * value
        row = {col: value for col, value in out.items() if value}
    common = gcd(*row.values())
    if common > 1:
        row = {col: value // common for col, value in row.items()}
    return row


def _kernel(pivots, columns):
    """A basis of the kernel of the fully reduced pivot rows over
    ``columns``, in coprime integers with the first nonzero entry
    positive: for each free column ``f``, in increasing order, the
    vector with ``L`` at ``f`` and ``-L * pivot[f] / pivot[c]`` at each
    pivot column ``c`` whose row touches ``f``, ``L`` the lcm of those
    pivot entries, divided by the gcd of its entries."""
    kernel = []
    for free in sorted(columns.difference(pivots)):
        hits = [(col, pivot) for col, pivot in pivots.items() if free in pivot]
        scale = lcm(*(pivot[col] for col, pivot in hits))
        vector = {free: scale}
        for col, pivot in hits:
            vector[col] = -pivot[free] * scale // pivot[col]
        common = gcd(*vector.values())
        if vector[min(vector)] < 0:
            common = -common
        kernel.append({col: value // common for col, value in vector.items()})
    return kernel


def _rref(rows) -> Dict[int, Dict[int, int]]:
    """Reduced row echelon form of sparse rows of nonzero integers
    (``{column: int}``), in integers: ``{pivot column: row}``, each row
    in coprime integers with a positive pivot entry.

    Rows are taken one at a time, sparsest first, and pivot rows are
    kept fully reduced. Once at most ``KERNEL_FREE_COLUMNS`` of the
    columns the rows use are free, a row is first tested against an
    integer basis of the kernel of the pivot rows (``_kernel``): a row
    orthogonal to all of it lies in their row space and adds nothing,
    so it is skipped. Any other row
    is reduced by every pivot row it touches in one combination
    (``_reduce``); if anything is left, its first column becomes a pivot
    and is cleared from the earlier pivot rows the same way, and the
    kernel is read off the pivot rows again. The reduced form is unique,
    so neither the order of the rows nor the skipping changes it."""
    rows = sorted(filter(None, rows), key=len)
    columns = set().union(*rows)
    pivots = {}
    kernel = None
    for row in rows:
        if kernel is not None and not any(
                sum(value * vector.get(col, 0) for col, value in row.items())
                for vector in kernel):
            continue
        current = _reduce(row, pivots)
        if not current:
            continue
        lead = min(current)
        if current[lead] < 0:
            current = {c: -value for c, value in current.items()}
        clear = {lead: current}
        for col, pivot in pivots.items():
            if lead in pivot:
                pivots[col] = _reduce(pivot, clear)
        pivots[lead] = current
        if len(columns) - len(pivots) <= KERNEL_FREE_COLUMNS:
            kernel = _kernel(pivots, columns)
    return pivots


def solve(system: LinearSystem) -> SolutionSpace:
    """Reduced row echelon form in integers of the augmented rows
    (``_rref``); the system is inconsistent exactly when the
    right-hand-side column is a pivot. The particular solution sets
    each pivot unknown to its row's right-hand side over its pivot
    entry, and the nullspace basis is the integer kernel of the pivot
    rows over the unknowns (``_kernel``), one vector per free unknown in
    declaration order, in coprime integers with the first nonzero entry
    positive. The particular solution and its shift by every basis
    vector are re-verified against the rows in one integer pass over
    their packed values (``_reverify``). The rows are the cells'
    numerators and unknowns stay out of the denominators, so the rows
    decide, as substitution would. Over the lcm ``L`` of a point's
    denominators the right-hand side is worth ``L`` and unknown ``k``
    ``L*c_k``, all integers."""
    count = len(system.unknowns)
    pivots = _rref(system.rows)

    if count in pivots:
        certificate = "0 = 1 after elimination: no solution in this ansatz"
        return SolutionSpace(system.unknowns, (), None, certificate,
                             system.problem, system.context.n)

    particular = [Fraction(0)] * count
    for col, row in pivots.items():
        particular[col] = Fraction(row.get(count, 0), row[col])
    basis = tuple(tuple(Fraction(vector.get(k, 0)) for k in range(count))
                  for vector in _kernel(pivots, set(range(count))))
    space = SolutionSpace(system.unknowns, basis, tuple(particular), None,
                          system.problem, system.context.n)
    _reverify(system, space)
    return space


def _reverify(system: LinearSystem, space: SolutionSpace):
    """Insist the rows hold at every point ``solve`` names, and name the
    cell of the first failing row at the first failing point.

    Over the lcm ``L`` of its denominators each point is integral, and
    the values of one column at the ``d + 1`` points, ``L*c_k`` or
    ``-L`` for the right-hand side, are packed into one integer with a
    signed field of ``width`` bits per point, point ``p`` at bit ``p *
    width``. Each entry of a row then adds one product to its sum, whose
    field ``p`` is the row's value at point ``p``. Every field is at
    most ``B`` in size, the largest sum of a row's absolute entries
    times the largest absolute value, and ``width`` is the bit length of
    ``B``, so a nonzero field is not divisible by ``2**width``: a sum is
    zero exactly when every field is, and the lowest set bit of a
    nonzero sum lies in its first nonzero field."""
    labelled = list(zip(system.labels, system.rows))
    points = [space.particular] + [tuple(map(add, space.particular, shift))
                                   for shift in space.nullspace]
    scales = [lcm(*(value.denominator for value in p)) for p in points]
    table = [[point[k].numerator * (scale // point[k].denominator)
              for point, scale in zip(points, scales)]
             for k in range(len(system.unknowns))] + [[-L for L in scales]]
    largest = max(abs(value) for values in table for value in values)
    weight = max((sum(map(abs, row.values())) for _label, row in labelled),
                 default=0)
    width = (weight * largest).bit_length()
    packed = [sum(value << (index * width) for index, value in
                  enumerate(values)) for values in table]
    failures = {}
    for label, row in labelled:
        total = sum(coeff * packed[col] for col, coeff in row.items())
        if total:
            failures.setdefault(((total & -total).bit_length() - 1) // width,
                                label)
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
