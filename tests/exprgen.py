"""Seeded random expression builders shared across the test modules.

The generator produces small expression trees over a given context:
leaves are rational constants or variables, internal nodes are the
arithmetic operators, with division kept rare and guarded so the
denominator is never identically zero. Everything is driven by an
explicit ``random.Random`` so each test controls its own seed.
"""

from fractions import Fraction

from invlag.exprcore import Expr, ExprContext


def small_fraction(rng, lo=-6, hi=6, den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_leaf(ctx: ExprContext, rng) -> Expr:
    if rng.random() < 0.35:
        return ctx.const(small_fraction(rng))
    return ctx.var(rng.choice(ctx.all_varids()))


def random_expr(ctx: ExprContext, rng, depth: int = 3, allow_div: bool = True) -> Expr:
    """A random expression tree of the given depth."""
    if depth <= 0 or rng.random() < 0.25:
        return random_leaf(ctx, rng)
    op = rng.choice("++-**^" + ("/" if allow_div else ""))
    left = random_expr(ctx, rng, depth - 1, allow_div)
    if op == "^":
        return left ** rng.randint(0, 3)
    right = random_expr(ctx, rng, depth - 1, allow_div)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right.is_zero():
        right = right + ctx.one
    return left / right


def random_text(ctx: ExprContext, rng, depth: int = 3):
    """A random expression tree as ``(text, expr)``: ``text`` renders the
    tree structurally, every operand in parentheses, and ``expr`` is
    built from the same leaves by the same ``Expr`` operations.

    Leaves are ``p/q`` literals and variables; nodes are sums,
    differences, products, quotients (a zero divisor gets ``+ 1``),
    chains of one to three unary minuses, and powers with exponents in
    -2..3, written ``^k`` or ``^(k)`` (so ``^-2`` or ``^(-2)``; a
    negative exponent only on a nonzero base).
    """
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            c = small_fraction(rng)
            return f"{c.numerator}/{c.denominator}", ctx.const(c)
        var = rng.choice(ctx.all_varids())
        return ctx.display_name(var), ctx.var(var)
    op = rng.choice("+-*/^~")
    text, expr = random_text(ctx, rng, depth - 1)
    if op == "~":
        count = rng.randint(1, 3)
        for _ in range(count):
            expr = -expr
        return "-" * count + f"({text})", expr
    if op == "^":
        k = rng.randint(-2, 3)
        if k < 0 and expr.is_zero():
            k = -k
        written = rng.choice([f"{k}", f"({k})"])
        return f"({text})^{written}", expr ** k
    right_text, right = random_text(ctx, rng, depth - 1)
    if op == "/" and right.is_zero():
        right_text, right = f"({right_text}) + 1", right + ctx.one
    value = {"+": expr.__add__, "-": expr.__sub__, "*": expr.__mul__,
             "/": expr.__truediv__}[op](right)
    return f"({text}) {op} ({right_text})", value


def rearranged(e: Expr, ctx: ExprContext, rng) -> Expr:
    """An expression equal to ``e`` built along a different tree shape."""
    style = rng.randrange(3)
    if style == 0:
        u = random_expr(ctx, rng, 2, allow_div=False)
        return (e + u) - u
    if style == 1:
        c = small_fraction(rng, 1, 5, 3)
        return (e * ctx.const(c)) / ctx.const(c)
    u = random_expr(ctx, rng, 1, allow_div=False)
    return e * (u + ctx.one) - e * u


def random_poly(ctx: ExprContext, rng, degree: int = 2, terms: int = 3,
                velocities: bool = True) -> Expr:
    """A random polynomial in the positions and (unless ``velocities``
    is false) the velocities."""
    coords = [ctx.var(ctx.q(i)) for i in range(1, ctx.n + 1)]
    if velocities:
        coords += [ctx.var(ctx.v(i)) for i in range(1, ctx.n + 1)]
    total = ctx.zero
    for _ in range(terms):
        term = ctx.const(small_fraction(rng, -3, 3, 2))
        for _ in range(rng.randint(0, degree)):
            term = term * rng.choice(coords)
        total = total + term
    return total


def random_sode(ctx: ExprContext, rng, degree: int = 2):
    """A random explicit second-order system with polynomial right sides."""
    from invlag.geometry import Sode
    return Sode(ctx, [random_poly(ctx, rng, degree) for _ in range(ctx.n)])
