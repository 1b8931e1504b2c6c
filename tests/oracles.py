"""Reference implementations the property tests compare the package with.

Each is the straightforward form of a routine the package computes in
one pass:

* ``cramer_solve``: ``tensor * x = rhs`` by Cramer's rule, n + 1
  determinants, where ``geometry.matrix_solve`` takes one characteristic
  polynomial and applies Cayley-Hamilton;
* ``vertical_homotopy2_by_parts`` and ``base_homotopy_by_parts``: the
  fibre and base homotopies built part by part from
  ``Expr.homogeneous_parts``, each part times its variable and its
  weight, where ``reconstruct`` forms one sum and weights its terms by
  degree;
* ``rref``: reduced row echelon form reducing every row by one pivot
  row at a time (``eliminate``), where ``solver._rref`` reduces a row
  by all its pivot rows in one combination and skips the rows a kernel
  test shows to lie in the row space;
* ``solution`` and ``primitive``: the particular solution and the
  nullspace basis read off those rows in ``Fraction``s, one free
  unknown at a time, each basis vector scaled to coprime integers
  afterwards, where ``solver.solve`` reads the basis as the integer
  kernel of its integer pivot rows (``solver._kernel``);
* ``over_lcm``: an ansatz cell's pieces lifted to the lcm of their
  denominators by their own loops, where ``weights._over_lcm`` merges
  each piece's factors and lifts them by
  ``exprcore.common_denominator``;
* ``reverify``: the solution re-check summing each monomial of each
  residual at each point separately, where ``solver._reverify`` packs
  the points into one integer and reads the rows;
* ``extended_system``: the rows of an ansatz read off its suite's cells
  (``suite_cells``) on ``Sode.extended`` in a ring whose last
  generators are the unknowns, each residual's numerator grouped by the
  monomial in everything else (``labelled``), where ``solver.assemble``
  sums them from the term tables ``conditions.suite_terms``
  (``weights.ansatz_rows``) and never builds that ring;
* ``multiplier_dissipative_cells`` and ``suite_cells``: the cells of
  every searchable suite written out formula by formula from whole
  tensors (``nabla g``, ``g Phi``, ``d omega``, the curvature cycles),
  where every checker evaluates the terms of
  ``conditions.suite_terms``;
* ``reconstruct_dissipative_gate_first`` and its finish
  ``certify_gate_first``: the dissipative reconstruction that runs the
  ``thm3`` existence suite before it builds anything, where
  ``reconstruct_dissipative`` and ``reconstruct._certify`` build and
  verify the certificate first and run the suite only to explain a
  refusal;
* ``dh_jacobi`` and ``nabla_tensor12``: the antisymmetrised horizontal
  derivative of the Jacobi endomorphism and the flow derivative of a
  (1,2) tensor, two routes to the flow derivative of the curvature that
  the package no longer needs;
* ``poly_text``, ``to_text`` and ``strings``: the printer that builds
  every monomial's text from its exponent tuple each time it prints it,
  where ``exprcore._poly_text`` reads it off the context's table, and
  the command line's tensor texts printed entry by entry, where
  ``cli._strings`` prints each symmetry orbit once.

``NonlinearCouplingError`` is raised only by the rows oracle here, which
reads rows from residuals that may not be linear in the unknowns.

They check their input in the same order and raise the same errors with
the same messages, so a test can compare outcomes, errors included.
"""

import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import add
from typing import NamedTuple, Optional, Sequence, Tuple

from invlag import solver
from invlag.exprcore import (Expr, ExprContext, LimitError,
                             NotPolynomialError, ZeroDenominatorError,
                             _factorisation, convert, lincomb)
from invlag.geometry import (DimensionMismatchError, GeometryError,
                             InternalInconsistencyError, Sode, TensorField,
                             _horizontal_terms, connection, curvature,
                             d_basic, gamma_apply, horizontal_apply, jacobi,
                             matrix_det, nabla_tensor02, theta_tensor)
from invlag.conditions import (ConditionReport,
                               check_multiplier_dissipative)
from invlag.reconstruct import (BasePointError, Certificate, GaugeRecord,
                                MultiplierCheckError, _potential,
                                _split_residuals, lagrange_residuals,
                                verify_dissipative, verify_gyroscopic,
                                vertical_homotopy2)
from invlag.solver import LinearSystem, SolverError


class NonlinearCouplingError(SolverError):
    """A condition residual is not linear in the unknowns (assembly reads
    terms linear in them, so only rows read from residuals raise this)."""


def cramer_solve(tensor, rhs):
    det = matrix_det(tensor)
    if det.is_zero():
        raise GeometryError("matrix is singular as an expression")
    indices = range(1, tensor.n + 1)
    return [matrix_det(TensorField(tensor.ctx, (0, 2), {
                (i, j): rhs[i - 1] if j == column else tensor.entry(i, j)
                for i in indices for j in indices})) / det
            for column in indices]


def vertical_homotopy2_by_parts(M):
    """A part of ``M`` homogeneous of degree ``k`` in the velocities
    contributes ``M_ij v^i v^j / ((k+1)(k+2))``."""
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
                    "vertical derivative is not totally symmetric at "
                    f"{(i, j, k)}")
    return lincomb(ctx, [
        (part, ctx.var(v_vars[i - 1]) * ctx.var(v_vars[j - 1])
         * ctx.const(Fraction(1, (degree + 1) * (degree + 2))))
        for (i, j), entry in M.entries.items()
        for degree, part in entry.homogeneous_parts(v_vars).items()])


def _base_parts(ctx, e):
    """Homogeneous parts in the positions: a pole at the origin, then
    any other rational dependence on the positions, is refused."""
    q_vars = [ctx.q(k) for k in range(1, ctx.n + 1)]
    try:
        e.subst({var: ctx.zero for var in q_vars})
    except ZeroDenominatorError as exc:
        raise BasePointError(
            "input has a pole at the origin, the homotopy base point") from exc
    try:
        return e.homogeneous_parts(q_vars)
    except NotPolynomialError as exc:
        raise NotPolynomialError(
            "base homotopy needs polynomial dependence on the positions",
            getattr(exc, "var", None)) from exc


def base_homotopy_by_parts(ctx, form, degree):
    """A part of ``form[i, tail]`` homogeneous of degree ``m`` in the
    positions contributes ``q^i part / (m + degree)`` to ``tail``."""
    n = ctx.n
    result = {}
    for tail in combinations(range(1, n + 1), degree - 1):
        result[tail] = lincomb(ctx, [
            (part, ctx.var(ctx.q(i)) * ctx.const(Fraction(1, m + degree)))
            for i in range(1, n + 1)
            if not form.get((i, *tail), ctx.zero).is_zero()
            for m, part in _base_parts(ctx, form[(i, *tail)]).items()])
    return result


def eliminate(row, pivot, col):
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


def rref(rows):
    """The pivot columns, increasing, and each pivot's row with the
    pivot entry 1: every row is reduced by the pivot rows so far, one
    column at a time; what is left becomes a pivot row and is cleared
    from the earlier ones."""
    pivots = {}
    for row in sorted(rows, key=len):
        if not row:
            continue
        common = gcd(*row.values())
        current = {col: value // common for col, value in row.items()}
        for col in [col for col in current if col in pivots]:
            current = eliminate(current, pivots[col], col)
        if not current:
            continue
        lead = min(current)
        if current[lead] < 0:
            current = {c: -value for c, value in current.items()}
        for col, pivot in pivots.items():
            if lead in pivot:
                pivots[col] = eliminate(pivot, current, lead)
        pivots[lead] = current
    order = sorted(pivots)
    return order, [{c: Fraction(value, pivots[col][col])
                    for c, value in pivots[col].items()} for col in order]


def solution(pivots, pivot_rows, count):
    """The particular solution and the nullspace basis of ``count``
    unknowns from the pivot columns and rows ``rref`` returns, the
    right-hand side in column ``count``: each pivot unknown is its
    row's right-hand side, and each free unknown in declaration order
    gives the vector with 1 there and the negated entries of its column
    at the pivot unknowns, made primitive (``primitive``)."""
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
        basis.append(primitive(vector))
    return tuple(particular), tuple(tuple(v) for v in basis)


def primitive(vector):
    """Scale a nonzero vector to coprime integers, keeping the first
    nonzero entry positive."""
    scale = lcm(*(value.denominator for value in vector))
    integers = [value * scale for value in vector]
    common = gcd(*map(int, integers))
    if next(filter(None, integers)) < 0:
        common = -common
    return [value / common for value in integers]


def over_lcm(pieces, product):
    """The ``(col, sign, a, b, fa, fb)`` pieces of
    ``weights.ansatz_rows`` with each ``a`` brought over the lcm of
    every ``a * b``'s denominator (``fa`` and ``fb`` factors), and that
    lcm as ``{factor: exponent}``."""
    dens, top = [], {}
    for *_rest, fa, fb in pieces:
        den = dict(fa)
        for factor, exponent in fb:
            den[factor] = den.get(factor, 0) + exponent
        dens.append(den)
        for factor, exponent in den.items():
            if exponent > top.get(factor, 0):
                top[factor] = exponent
    lifted, out = {}, []
    for (col, sign, a, b, _fa, _fb), den in zip(pieces, dens):
        lift = _factorisation({factor: exponent - den.get(factor, 0)
                               for factor, exponent in top.items()
                               if exponent > den.get(factor, 0)})
        if lift:
            if (id(a), lift) not in lifted:
                lifted[id(a), lift] = a * product(lift)
            a = lifted[id(a), lift]
        out.append((col, sign, a, b, (), ()))
    return out, top


class ResidualSystem(NamedTuple):
    """The cells of a suite over an ansatz as residuals in ``context``,
    whose last generators are the ``unknowns``."""

    unknowns: Tuple[str, ...]
    residuals: Tuple[Tuple[str, Expr], ...]
    context: ExprContext
    problem: solver.AnsatzProblem


def extended_residuals(s, problem) -> ResidualSystem:
    """The nonzero cells of ``problem``'s suite, less the smooth-at-rest
    indicators, written out formula by formula (``suite_cells``) on
    ``s.extended(...)`` with the ansatz's unknowns as parameters; a
    fixed ``D`` or two-form is converted to that ring, and a missing one
    is zero."""
    names = solver._unknown_names(s.ctx, len(problem.layout))
    ectx = s.ctx.with_parameters(names)
    s_e = s.extended(ectx)
    g, omega = solver._ansatz_tensors(problem, ectx, [
        ectx.var(ectx.param(name)) for name in names])
    if omega is None and problem.omega is not None:
        omega = TensorField(ectx, (0, 2), {
            idx: convert(problem.omega.entry(*idx), ectx)
            for idx in problem.omega.entries}, antisym=((1, 2),))
    D = convert(problem.D, ectx) if problem.D is not None else ectx.zero
    if omega is None:
        omega = TensorField(ectx, (0, 2), {}, antisym=((1, 2),))
    return ResidualSystem(names, tuple(
        (label, residual) for label, residual in suite_cells(
            problem.suite, s_e, g, D=D, omega=omega)
        if not (label.startswith("SmoothV0") or residual.is_zero())),
        ectx, problem)


def packed_layout(ectx: ExprContext, names: Sequence[str]):
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


def labelled(system: ResidualSystem) -> LinearSystem:
    """The rows of the residuals, each labelled with its cell: a
    residual's numerator coefficients grouped by the monomial in
    everything else, the unknown-free part negated into the right-hand
    side column. A residual with an unknown in a denominator factor,
    or not linear in the unknowns, is refused."""
    rows, labels = [], []
    positions, cut, low, columns = packed_layout(system.context,
                                                 system.unknowns)
    for label, residual in system.residuals:
        if any(not factor.gens.isdisjoint(positions)
               for factor, _exponent in residual.den_factors):
            raise NonlinearCouplingError(
                f"unknowns in a denominator at cell {label}")
        groups = {}
        for monom, coeff in residual.num.coeffs.items():
            unknowns = monom & low
            if not unknowns:
                column, coeff = len(columns), -coeff
            else:
                column = columns.get(unknowns)
                if column is None:
                    raise NonlinearCouplingError(
                        f"nonlinear unknown coupling at cell {label}")
            groups.setdefault(monom >> cut, {})[column] = coeff
        rows += groups.values()
        labels += [label] * len(groups)
    return LinearSystem(system.unknowns, tuple(rows), system.context,
                        system.problem, tuple(labels))


def extended_system(s, problem) -> LinearSystem:
    """The rows of ``problem`` read off the suite's extended-ring run."""
    return labelled(extended_residuals(s, problem))


def reverify(system: ResidualSystem, space):
    """Raise ``InternalInconsistencyError`` naming the first failing
    cell at the first failing point of ``space``, summing every
    monomial of every residual at every point."""
    _, cut, low, columns = packed_layout(system.context, system.unknowns)
    points = [space.particular] + [tuple(map(add, space.particular, shift))
                                   for shift in space.nullspace]
    scales = [lcm(*(value.denominator for value in p)) for p in points]
    table = {field: [int(point[k] * scale) for point, scale in
                     zip(points, scales)] for field, k in columns.items()}
    table[0] = scales
    failures = {}
    for label, residual in system.residuals:
        sums = {}
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


def multiplier_dissipative_cells(s, g):
    """``(label, residual)`` of every ``thm3`` cell, in report order:
    ``HD1[i,j,k] = V_k g_ij - V_j g_ik``, ``DHSym[i,j,k] = H_i g_jk -
    H_j g_ik + sum_l (g_il theta^l_jk - g_jl theta^l_ik)`` and
    ``RCycle[i,k,l] = sum_j (g_ij R^j_kl + g_lj R^j_ik + g_kj
    R^j_li)``."""
    ctx, indices = s.ctx, range(1, s.n + 1)
    cells = [(f"HD1[{i},{j},{k}]", g.entry(i, j).diff(ctx.v(k))
              - g.entry(i, k).diff(ctx.v(j)))
             for i in indices for j, k in combinations(indices, 2)]
    theta = theta_tensor(s)
    for k in indices:
        for i, j in combinations(indices, 2):
            total = (horizontal_apply(s, i, g.entry(j, k))
                     - horizontal_apply(s, j, g.entry(i, k)))
            for l in indices:
                total = total + g.entry(i, l) * theta.entry(l, j, k) \
                    - g.entry(j, l) * theta.entry(l, i, k)
            cells.append((f"DHSym[{i},{j},{k}]", total))
    if s.n >= 3:
        R = curvature(s)
        for i, k, l in combinations(indices, 3):
            total = ctx.zero
            for j in indices:
                total = total + g.entry(i, j) * R.entry(j, k, l) \
                    + g.entry(l, j) * R.entry(j, i, k) \
                    + g.entry(k, j) * R.entry(j, l, i)
            cells.append((f"RCycle[{i},{k},{l}]", total))
    return cells


def _velocity_contraction(ctx, form, i, j):
    """``sum_k form_ijk v^k`` for ``i < j`` and a totally antisymmetric
    three-form stored on ascending index tuples."""
    return lincomb(ctx, [(form[tuple(sorted((i, j, k)))], -ctx.var(ctx.v(k))
                          if i < k < j else ctx.var(ctx.v(k)))
                         for k in range(1, ctx.n + 1) if k not in (i, j)])


def suite_cells(suite, s, g, D: Optional[Expr] = None,
                omega: Optional[TensorField] = None):
    """``(label, residual)`` of every cell of an explicit searchable
    suite, in report order, as its checker built them from whole
    tensors: ``HD1``; the flow derivative ``nabla g`` of
    ``geometry.nabla_tensor02`` on ``i <= j`` (``NablaG``, ``Hg2``, and
    ``HD2`` less ``D``'s velocity Hessian); the skew part of the lowered
    Jacobi endomorphism ``g Phi`` on ``i < j`` (``PhiSym``; ``HD3`` plus
    ``H_j D_(v_i) - H_i D_(v_j)``; ``Hg3`` less the velocity contraction
    of ``d omega`` from ``geometry.d_basic``; ``PhiR[k,l] = (g Phi)_lk -
    (g Phi)_kl`` less that of the curvature cycles); and for ``thm4``
    the smooth-at-rest indicators of ``g`` and ``g Phi``."""
    if suite == "thm3":
        return multiplier_dissipative_cells(s, g)
    ctx, n, indices = s.ctx, s.n, range(1, s.n + 1)
    thm3 = multiplier_dissipative_cells(s, g)
    cells = [cell for cell in thm3 if cell[0].startswith("HD1")]
    cycles = dict(zip(combinations(indices, 3), (
        residual for label, residual in thm3 if label.startswith("RCycle"))))
    grad = nabla_tensor02(s, g)
    family = {"dissipative": "HD2", "gyroscopic": "Hg2"}.get(suite, "NablaG")
    dD = [D.diff(ctx.v(k)) for k in indices] if suite == "dissipative" \
        else None
    cells += [(f"{family}[{i},{j}]", grad.entry(i, j) if dD is None
               else grad.entry(i, j) - dD[i - 1].diff(ctx.v(j)))
              for i in indices for j in range(i, n + 1)]
    if suite == "prop2a":
        return cells
    jac = jacobi(s)
    g_phi = {(i, j): lincomb(ctx, [(g.entry(i, k), jac.entry(k, j))
                                   for k in indices])
             for i in indices for j in indices}
    if suite == "gyroscopic":
        d_omega = d_basic(ctx, omega.entries, 2)
    for i, j in combinations(indices, 2):
        skew = g_phi[i, j] - g_phi[j, i]
        if suite == "classical":
            cells.append((f"PhiSym[{i},{j}]", skew))
        elif suite == "dissipative":
            cells.append((f"HD3[{i},{j}]", skew
                          + horizontal_apply(s, j, dD[i - 1])
                          - horizontal_apply(s, i, dD[j - 1])))
        elif suite == "gyroscopic":
            cells.append((f"Hg3[{i},{j}]", skew - _velocity_contraction(
                ctx, d_omega, i, j)))
        else:
            cells.append((f"PhiR[{i},{j}]", -skew - _velocity_contraction(
                ctx, cycles, i, j)))
    if suite == "thm4":
        rest = {ctx.v(k): ctx.zero for k in indices}
        for name, matrix in (("g", g.entry), ("PhiG",
                                              lambda i, j: g_phi[i, j])):
            for i in indices:
                for j in range(i, n + 1):
                    bad = matrix(i, j).denominator_expr().subst(
                        rest).is_zero()
                    cells.append((f"SmoothV0.{name}[{i},{j}]",
                                  ctx.one if bad else ctx.zero))
    return cells


def outcome(function, *args):
    """What ``function(*args)`` returns, or the type, message and
    ``var`` of what it raises."""
    try:
        return "returns", function(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "var", None)


def nabla_tensor12(s: Sode, T: TensorField) -> TensorField:
    """Covariant derivative along the flow of a (1,2) tensor (slot order
    (k, i, j)), by the Leibniz extension of the (1,0)/(0,1) rules."""
    if T.ctx != s.ctx or T.shape != (1, 2):
        raise DimensionMismatchError("expected a (1,2) tensor over the system")
    conn, indices = connection(s), range(1, s.n + 1)
    return TensorField(s.ctx, (1, 2), {
        (k, i, j): gamma_apply(s, T.entry(k, i, j), [
            term for l in indices for term in (
                (conn.entry(k, l), T.entry(l, i, j)),
                (-conn.entry(l, i), T.entry(k, l, j)),
                (-conn.entry(l, j), T.entry(k, i, l)))])
        for k in indices for i in indices for j in indices})


def dh_jacobi(s: Sode) -> TensorField:
    """Antisymmetrised horizontal derivative of the Jacobi endomorphism,
    slot order (k, i, j); equals the covariant derivative of the
    curvature along the flow (tested property)."""
    jac, theta, indices = jacobi(s), theta_tensor(s), range(1, s.n + 1)
    return TensorField(s.ctx, (1, 2), {
        (k, i, j): lincomb(s.ctx, _horizontal_terms(s, i, jac.entry(k, j))
                           + _horizontal_terms(s, j, -jac.entry(k, i)) + [
            term for l in indices for term in (
                (jac.entry(l, j), theta.entry(k, l, i)),
                (-jac.entry(l, i), theta.entry(k, l, j)))])
        for k in indices for i in indices for j in indices})


def certify_gate_first(s: Sode, g: TensorField, kind: str,
                        report: ConditionReport, build) -> Certificate:
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


def reconstruct_dissipative_gate_first(s: Sode,
                                       g: TensorField) -> Certificate:
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

    return certify_gate_first(s, g, "dissipative",
                               check_multiplier_dissipative(s, g), build)


def poly_text(ctx: ExprContext, poly) -> str:
    """The terms of ``poly`` in descending lex order, each coefficient
    read off its integer over ``poly.den`` with one gcd."""
    coeffs = poly.coeffs
    if not coeffs:
        return "0"
    names = ctx._names
    den = poly.den
    chunks = []
    keys = sorted(coeffs, reverse=True)
    for key, monom in zip(keys, poly.ring.unpack(keys)):
        coeff = coeffs[key]
        if coeff < 0:
            coeff = -coeff
            chunks.append(" - " if chunks else "-")
        elif chunks:
            chunks.append(" + ")
        factors = "*".join([names[position] if exponent == 1
                            else f"{names[position]}^{exponent}"
                            for position, exponent in enumerate(monom)
                            if exponent])
        if coeff == den and factors:  # the coefficient 1
            chunks.append(factors)
            continue
        g = gcd(coeff, den)
        try:
            coefficient = (str(coeff // g) if g == den
                           else f"{coeff // g}/{den // g}")
        except ValueError:  # past Python's limit for int to str
            raise LimitError("cannot print a coefficient of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        chunks.append(f"{coefficient}*{factors}" if factors else coefficient)
    return "".join(chunks)


def to_text(expr: Expr) -> str:
    """Canonical text form; feeding it back to ``parse`` reproduces ``expr``."""
    if not expr.den_factors:
        return poly_text(expr.ctx, expr.num)
    return f"({poly_text(expr.ctx, expr.num)})/({poly_text(expr.ctx, expr.den)})"


def strings(t: TensorField) -> list:
    """The entries of ``t`` as text, in lists nested one per index; a
    zero entry, which ``t.entries`` leaves out, reads ``0``."""
    texts = {idx: str(value) for idx, value in t.entries.items()}
    n = t.n
    nested = [texts.get(idx, "0")
              for idx in product(range(1, n + 1), repeat=t.rank)]
    for _ in range(t.rank - 1):
        nested = [nested[k:k + n] for k in range(0, len(nested), n)]
    return nested
