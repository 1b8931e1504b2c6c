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
  degree.

They check their input in the same order and raise the same errors with
the same messages, so a test can compare outcomes, errors included.
"""

from fractions import Fraction
from itertools import combinations

from invlag.exprcore import NotPolynomialError, ZeroDenominatorError, lincomb
from invlag.geometry import (DimensionMismatchError, GeometryError,
                             TensorField, matrix_det)
from invlag.reconstruct import BasePointError


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


def outcome(function, *args):
    """What ``function(*args)`` returns, or the type, message and
    ``var`` of what it raises."""
    try:
        return "returns", function(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "var", None)
