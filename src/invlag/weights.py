"""Exact integer rows of condition cells over an ansatz, from weights.

A cell given as terms linear in the candidate data (the multiplier,
the two-form and the velocity gradient of ``D``;
``conditions.suite_terms``) is linear in every unknown of an ansatz
``g_ab = sum_m c_col b_m`` (and ``omega_ab`` alike) with base-ring
coefficients, so its numerator's coefficient of each unknown can be
summed straight from the system's own tables: no ring holding the
unknowns is built and no suite is run. The terms on fixed data are
evaluated as the suites evaluate them and go to the right-hand side.
``solver.assemble`` reads every searchable suite's rows from here;
their oracle in ``tests/oracles.py`` runs the suites' formulas in a
ring that holds the unknowns.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Tuple

from .conditions import WEIGHT, _data, _evaluated, _label, _parts
from .exprcore import (_exact_quotient, common_denominator, convert,
                       lincomb)
from .geometry import Sode
from .poly import Poly, limit_error


def _over_lcm(pieces, product):
    """The ``(col, sign, a, b, fa, fb)`` pieces of ``ansatz_rows`` with
    each ``a`` brought over the lcm of every ``a * b``'s denominator
    (``fa`` and ``fb`` factors, their exponents added), lifted as
    ``exprcore.common_denominator`` lifts it, and that lcm as
    ``{factor: exponent}``."""
    dens = []
    for *_rest, fa, fb in pieces:
        den = dict(fa)
        for factor, exponent in fb:
            den[factor] = den.get(factor, 0) + exponent
        dens.append(tuple(den.items()))
    top, _ties, lifts = common_denominator(dens)
    lifted, out = {}, []
    for (col, sign, a, b, _fa, _fb), lift in zip(pieces, lifts):
        if lift:
            if (id(a), lift) not in lifted:
                lifted[id(a), lift] = a * product(lift)
            a = lifted[id(a), lift]
        out.append((col, sign, a, b, (), ()))
    return out, dict(top)


def _divided(ring, sums: dict, top: dict) -> dict:
    """The ``{monomial: {column: int}}`` numerator ``sums`` divided by
    each factor of ``top`` as often as it divides every column, up to
    its exponent there. One column is tried first, so a factor that
    does not divide it costs no pass over the others."""
    for factor, exponent in top.items():
        for _ in range(exponent):
            probe = next((col for row in sums.values()
                          for col, v in row.items() if v), None)
            if probe is None or _exact_quotient(Poly(ring, {
                    m: row[probe] for m, row in sums.items()
                    if row.get(probe)}, 1), factor) is None:
                break
            columns = {}
            for m, row in sums.items():
                for col, v in row.items():
                    if v:
                        columns.setdefault(col, {})[m] = v
            quotients = {}
            for col, poly in columns.items():
                quotient = _exact_quotient(Poly(ring, poly, 1), factor)
                if quotient is None:
                    break
                quotients[col] = quotient.coeffs
            else:
                sums = {}
                for col, poly in quotients.items():
                    for m, v in poly.items():
                        sums.setdefault(m, {})[col] = v
                continue
            break
    return sums


def ansatz_rows(s: Sode, problem, table) -> Tuple[list, list]:
    """The exact linear system of the cells of a term ``table``
    (``conditions.suite_terms``) over the ansatz ``problem``: the
    multiplier ``g_ab = sum_m c_col b_m`` of its ``g_basis`` and the
    two-form ``omega_ab = sum_m c_col b_m`` of its ``omega_basis``
    (``(pair, basis)`` entries, ``pair`` ascending, columns numbered in
    that order, as ``problem.layout`` numbers them): one row ``{column:
    int}`` per monomial of a cell's numerator, and the label of each
    row's cell. The terms on the fixed ``problem.D`` and
    ``problem.omega`` are evaluated (``conditions._evaluated``) and
    negated into the column after the unknowns'; terms on any other
    entry vanish. Each row is the canonical residual's, made primitive.

    The coefficient of ``c_col`` in a cell is a signed sum of products
    ``b_m * w`` of a basis function and a weight, and of derivatives of
    ``b_m`` (``conditions._parts``), each taken once. A cell is summed
    term by term, column by column, in integers over one denominator,
    the lcm of its terms' (``exprcore.common_denominator``, as for
    ``lincomb`` and the determinant rows; for a one-term ``b_m`` a
    product is a key shift). A factor of that lcm that divides every
    column is divided out as often as it does, as in the canonical
    residual, whose denominator keeps only the others."""
    ctx = s.ctx
    ring, product = ctx._ring, ctx._base.product
    columns, count = {}, 0
    for prefix, entries in (((), problem.g_basis),
                            (("omega",), problem.omega_basis)):
        for pair, basis in entries:
            columns[prefix + pair] = [(count + m, convert(b, ctx))
                                      for m, b in enumerate(basis)]
            count += len(basis)
    data, minus = _data(s, {}, problem.D, problem.omega), {}
    derived, rows, labels = {}, [], []
    for family, indices, terms in table:
        # (col, sign, a, b, the denominator factors of a and of b)
        pieces, fractional = [], False
        for sign, key, kind, operand in terms:
            for col, b in columns.get(key, ()):
                if kind == WEIGHT:
                    a = operand
                else:
                    at = kind, operand, id(b)
                    if at not in derived:
                        derived[at] = lincomb(ctx, _parts(s, kind, operand, b))
                    a, b = derived[at], ctx.one
                    if not a.num.coeffs:
                        continue
                fractional = fractional or a.den_factors or b.den_factors
                pieces.append((col, sign, a.num, b.num, a.den_factors,
                               b.den_factors))
        known = _evaluated(s, data, minus, terms) if data else ctx.zero
        if known.num.coeffs:
            fractional = fractional or known.den_factors
            pieces.append((count, -1, known.num, ctx.one.num,
                           known.den_factors, ()))
        if not pieces:
            continue
        top = {}
        if fractional:
            pieces, top = _over_lcm(pieces, product)
        common = lcm(*(piece[2].den * piece[3].den for piece in pieces))
        sums = {}  # monomial: {column: coefficient}
        for col, sign, a, b, _fa, _fb in pieces:
            scale = common // (a.den * b.den) * sign
            for m2, c2 in b.coeffs.items():
                c2 *= scale
                for m1, c1 in a.coeffs.items():
                    m = m1 + m2
                    row = sums.get(m)
                    if row is None:
                        sums[m] = {col: c1 * c2}
                    else:
                        v = row.get(col)
                        row[col] = c1 * c2 if v is None else v + c1 * c2
        if reduce(or_, sums, 0) & ring.guard:
            raise limit_error()
        if top:
            sums = _divided(ring, sums, top)
        label = _label(family, *indices)
        for row in sums.values():
            if 0 in row.values():
                row = {col: v for col, v in row.items() if v}
                if not row:
                    continue
            common = gcd(*row.values())
            rows.append(row if common == 1 else
                        {col: v // common for col, v in row.items()})
            labels.append(label)
    return rows, labels
