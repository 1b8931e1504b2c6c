"""The numeric cross-check sampler against the sample-then-evaluate
code it replaces: the same verdicts from the same random draws; and
the cross-check of report cells, which draws no point for a zero
residual."""

import random
from fractions import Fraction
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from invlag.exprcore import ExprContext, PoleError
from invlag.numeric import crosscheck_cells, nonzero_somewhere, sample_value

from exprgen import random_expr


def _reference_sample_point(ctx, rng, avoid, max_tries=500):
    variables = ctx.all_varids()
    for _ in range(max_tries):
        point = {var: sample_value(rng) for var in variables}
        try:
            for expr in avoid:
                expr.eval_num(point)
        except PoleError:
            continue
        return point
    raise RuntimeError("no pole-free sample point found")


def _reference_nonzero_somewhere(expr, rng, tries=25):
    for _ in range(tries):
        point = _reference_sample_point(expr.ctx, rng, (expr,))
        if expr.eval_num(point) != 0:
            return True
    return False


def _residuals(ctx, rng):
    """Zero residuals, random rational ones, ones with poles on about a
    fifth of the sample points (``1/((q1 - a)(q1 - b)(v1 - c)(v1 - d))``
    plus a random part) and ones vanishing on some (``q1*(q1 - c)``)."""
    q1, v1 = ctx.var(ctx.q(1)), ctx.var(ctx.v(1))
    grid = (0, 1, -1, 2, Fraction(1, 2))
    out = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(ctx.zero)
        elif kind == 1:
            out.append(random_expr(ctx, rng, depth=2))
        elif kind == 2:
            den = ctx.one
            for var in (q1, v1):
                for c in rng.sample(grid, 2):
                    den = den * (var - c)
            out.append(ctx.one / den + random_expr(ctx, rng, depth=1))
        else:
            out.append(q1 * (q1 - rng.choice(grid)))
    return out


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_samplers_match_sample_then_evaluate(seed):
    ctx = ExprContext(1)
    residuals = _residuals(ctx, random.Random(seed))
    checks = [(partial(nonzero_somewhere, expr),
               partial(_reference_nonzero_somewhere, expr))
              for expr in residuals]
    for check, reference in checks:
        new, old = random.Random(seed), random.Random(seed)
        assert check(new) == reference(old)
        assert new.getstate() == old.getstate()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_crosscheck_draws_points_for_nonzero_residuals_only(seed):
    """Zero residuals count as checked but leave the generator where
    the nonzero ones alone would leave it."""
    ctx = ExprContext(1)
    residuals = _residuals(ctx, random.Random(seed))
    cells = [(f"cell{k}", residual) for k, residual in enumerate(residuals)]
    rng, reference = random.Random(seed), random.Random(seed)
    summary = crosscheck_cells(cells, rng)
    expected = [label for label, residual in cells if not residual.is_zero()
                and not nonzero_somewhere(residual, reference)]
    assert summary == {"points": 5, "cells_checked": len(cells),
                       "consistent": not expected, "disagreements": expected}
    assert rng.getstate() == reference.getstate()
