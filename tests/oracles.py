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
* ``reverify``: the solution re-check summing each monomial at each
  point separately, where ``solver._reverify`` packs the points into
  one integer;
* ``multiplier_dissipative_cells``: the ``thm3`` cells written out
  formula by formula, where ``conditions.check_multiplier_dissipative``
  evaluates the term table ``conditions.multiplier_terms`` that the
  ansatz search also reads.

They check their input in the same order and raise the same errors with
the same messages, so a test can compare outcomes, errors included.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add

from invlag.exprcore import NotPolynomialError, ZeroDenominatorError, lincomb
from invlag.geometry import (DimensionMismatchError, GeometryError,
                             InternalInconsistencyError, TensorField,
                             curvature, horizontal_apply, matrix_det,
                             theta_tensor)
from invlag.reconstruct import BasePointError
from invlag.solver import NonlinearCouplingError, _packed_layout


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


def reverify(system, space):
    """Raise ``InternalInconsistencyError`` naming the first failing
    cell at the first failing point of ``space``, summing every
    monomial of every residual at every point."""
    _, cut, low, columns = _packed_layout(system.context, system.unknowns)
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


def outcome(function, *args):
    """What ``function(*args)`` returns, or the type, message and
    ``var`` of what it raises."""
    try:
        return "returns", function(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "var", None)
