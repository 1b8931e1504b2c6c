"""Seeded exact-rational spot checks.

Symbolic verdicts in this package are decisions about canonical forms;
these helpers re-confirm them the pedestrian way: a nonzero residual
must evaluate to a nonzero value at some random rational point (a
canonical zero is ``0/1`` and needs no point), and a derivative must
match a central finite difference. Everything stays in ``fractions.Fraction``, so a
check that passes once passes always: there is no floating-point noise,
only the seeded choice of sample points.

Every sampler takes its generator from the caller, and ``seeded_rng``
builds one from an explicit seed, so a report is reproducible from the
seed it records. The command line picks the seed (``INVLAG_SEED``, or
``cli.DEFAULT_SEED``); this module reads no environment variable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from typing import Iterable, Mapping, Sequence, Tuple

from .exprcore import Expr, ExprContext, PoleError, VarId

#: the ``points`` figure of the cross-check summary
DEFAULT_POINTS = 5

#: |central difference - symbolic derivative| <= REL_TOL * (1 + |value|)
REL_TOL = Fraction(1, 10**6)
#: finite-difference step, kept exact
STEP = Fraction(1, 10**4)


def seeded_rng(seed: int) -> random.Random:
    """A deterministic RNG for the given seed."""
    return random.Random(seed)


def sample_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _pole_free_draw(ctx: ExprContext, rng: random.Random,
                    exprs: Sequence[Expr], max_tries: int = 500):
    """A random rational point assigning every variable of the context
    at which none of ``exprs`` has a pole, with their values there; a
    point where one has a pole is drawn again. The first ``max_tries``
    draws take ``sample_value``, which has 51 values; later ones take
    numerators and denominators from a range that widens by one with
    each draw, so a denominator vanishing at all 51 is still avoided."""
    variables = ctx.all_varids()
    for tries in count():
        if tries < max_tries:
            point = {var: sample_value(rng) for var in variables}
        else:
            width = 10 + tries - max_tries
            point = {var: Fraction(rng.randint(-width, width),
                                   rng.randint(1, width)) for var in variables}
        try:
            return point, [expr.eval_num(point) for expr in exprs]
        except PoleError:
            continue


def sample_point(ctx: ExprContext, rng: random.Random,
                 avoid: Iterable[Expr] = (), max_tries: int = 500) -> dict:
    """A random rational point assigning every variable of the context,
    avoiding the poles of the given expressions; ``max_tries`` is the
    number of draws before the range widens."""
    return _pole_free_draw(ctx, rng, tuple(avoid), max_tries)[0]


def nonzero_somewhere(expr: Expr, rng: random.Random, tries: int = 25) -> bool:
    """True when some random pole-free point gives a nonzero value."""
    for _ in range(tries):
        if _pole_free_draw(expr.ctx, rng, (expr,))[1][0] != 0:
            return True
    return False


def _shifted(point: Mapping[VarId, Fraction], var: VarId, delta: Fraction) -> dict:
    moved = dict(point)
    moved[var] = moved[var] + delta
    return moved


def central_difference(expr: Expr, var: VarId, point: Mapping[VarId, Fraction],
                       step: Fraction = STEP) -> Fraction:
    plus = expr.eval_num(_shifted(point, var, step))
    minus = expr.eval_num(_shifted(point, var, -step))
    return (plus - minus) / (2 * step)


def diff_spot_check(expr: Expr, var: VarId, rng: random.Random,
                    step: Fraction = STEP, rel_tol: Fraction = REL_TOL,
                    max_tries: int = 50) -> Tuple[Fraction, Fraction]:
    """Compare the symbolic derivative against an exact central difference.

    Returns ``(difference, bound)`` with ``difference <= bound``;
    raises AssertionError when the tolerance is violated.
    """
    derivative = expr.diff(var)
    for _ in range(max_tries):
        point, (_value, exact) = _pole_free_draw(expr.ctx, rng,
                                                 (expr, derivative))
        try:
            approx = central_difference(expr, var, point, step)
        except PoleError:
            continue
        gap = abs(approx - exact)
        bound = rel_tol * (1 + abs(exact))
        if gap > bound:
            raise AssertionError(
                f"central difference {float(approx)} vs symbolic {float(exact)}"
                f" exceeds tolerance at {point}")
        return gap, bound
    raise RuntimeError("no usable sample point for the finite-difference check")


def crosscheck_cells(cells: Sequence[Tuple[str, Expr]],
                     rng: random.Random) -> dict:
    """Numerically re-confirm symbolic pass/fail verdicts for report cells.

    For a nonzero residual some sample must be nonzero. A residual
    deemed identically zero is the canonical ``0/1``, which evaluates to
    0 at every point and so cannot disagree: it is counted in
    ``cells_checked`` but draws no point. Returns a summary suitable for
    embedding in a report.
    """
    failures = [label for label, residual in cells
                if not residual.is_zero()
                and not nonzero_somewhere(residual, rng)]
    return {
        "points": DEFAULT_POINTS,
        "cells_checked": len(cells),
        "consistent": not failures,
        "disagreements": failures,
    }
