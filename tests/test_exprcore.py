"""Exercises the exact expression kernel: parsing, printing, calculus
operations, canonicalization, and the error taxonomy."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invlag import exprcore
from invlag.exprcore import (ContextMismatchError, Expr, ExprContext,
                             ExprError, ExprSyntaxError, JetOrderError,
                             LimitError, NotPolynomialError, PoleError,
                             UnknownIdentifierError, VarId,
                             ZeroDenominatorError, convert, lincomb, to_text)
from invlag.numeric import (central_difference, sample_point, seeded_rng,
                            nonzero_somewhere)
from invlag.poly import MAX_EXPONENT, Poly

from exprgen import random_expr, random_text, rearranged, small_fraction
from sympyref import sympy_ring, to_sympy


def test_parse_product_monomial():
    ctx = ExprContext(3)
    e = ctx.parse("q2*v1*v3")
    assert str(e) == "q2*v1*v3"
    assert e == ctx.var(ctx.q(2)) * ctx.var(ctx.v(1)) * ctx.var(ctx.v(3))


@pytest.mark.parametrize("args, message", [
    (("velocity", 1), "unknown VarId kind 'velocity'"),
    (("time", 1), "time carries no index or order"),
    (("position", 0), "position index must be >= 1"),
    (("position", 1, 1), "positions have order 0"),
    (("jet", 0, 1), "jet index must be >= 1"),
    (("jet", 1, 5), "jet order must lie in 1..4"),
    (("parameter", 0), "parameter index must be >= 1"),
    (("parameter", 1, 1), "parameters have order 0"),
])
def test_varid_validates_its_fields(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        VarId(*args)


def test_varid_is_a_frozen_value():
    v = VarId("jet", 2, 1)
    assert v == VarId.jet(2, 1) and v != VarId.jet(2, 2)
    assert v != VarId.position(2) and VarId.jet(2, 0) == VarId.position(2)
    assert hash(v) == hash(("jet", 2, 1))
    assert len({v, VarId("jet", 2, 1), VarId.time()}) == 2
    assert repr(v) == "VarId(kind='jet', index=2, order=1)"
    assert (v.kind, v.index, v.order) == ("jet", 2, 1)
    with pytest.raises(AttributeError):
        v.order = 2


def test_parse_zero_literal():
    ctx = ExprContext(3)
    assert ctx.parse("0").is_zero()
    assert ctx.parse("q1 - q1").is_zero()


def test_parse_rational_with_denominator():
    ctx = ExprContext(3)
    e = ctx.parse("v1^2 - (1/q2)*v2*v3")
    assert e == ctx.parse("(q2*v1^2 - v2*v3)/q2")
    assert not e.is_polynomial_in(ctx.q(2))
    assert e.is_polynomial_in(ctx.v(1))


def test_parse_print_parse_is_identity_on_handpicked():
    ctx = ExprContext(2, parameters=("a", "b"))
    for text in ["q1", "-3/4", "a*q1^2 + b*q1*q2", "(q1 + 1)/(q2^2)",
                 "1/2*v1^2 - 1/2*v2^2", "(q1^2 - q2^2)/(q1 + q2)"]:
        e = ctx.parse(text)
        assert ctx.parse(str(e)) == e


def test_gcd_reduction_happens():
    ctx = ExprContext(2)
    e = ctx.parse("(q1^2 - q2^2)/(q1 + q2)")
    assert e == ctx.parse("q1 - q2")


def test_denominator_is_monic():
    ctx = ExprContext(2)
    e = ctx.parse("q1/(2*q2 + 2)")
    assert str(e) == "(1/2*q1)/(q2 + 1)"


def test_constructor_returns_the_canonical_form():
    ctx = ExprContext(2)
    ring = ctx._ring
    q1, q2 = ring.gens[:2]
    half = Expr(ctx, q1, ring.ground_new(2))
    assert str(half) == "1/2*q1" and half == ctx.parse("q1/2")
    unreduced = Expr(ctx, q1 * q2, 2 * q2)
    assert unreduced == ctx.parse("q1/2") and unreduced.den == ring.one
    both = ring.sum_of_products((q1, q2), ())
    scaled = Expr(ctx, 3 * q1 * both, -6 * both ** 2)
    assert (scaled.num, scaled.den) == ((-q1).quo_ground(2), both)
    assert scaled.den_factors == ctx.parse("1/(q1 + q2)").den_factors


def test_constructor_rejects_a_zero_denominator():
    ctx = ExprContext(2)
    with pytest.raises(ZeroDenominatorError):
        Expr(ctx, ctx._ring.gens[0], ctx._ring.zero)


def test_diff_monomial():
    ctx = ExprContext(3)
    e = ctx.parse("q2*v1*v3")
    assert e.diff(ctx.v(1)) == ctx.parse("q2*v3")


def test_diff_quotient():
    ctx = ExprContext(3)
    e = ctx.parse("1/q2")
    assert e.diff(ctx.q(2)) == ctx.parse("-1/q2^2")


def test_diff_linearity():
    ctx = ExprContext(2, parameters=("a", "b"))
    e = ctx.parse("a*q1^2 + b*q1*q2")
    assert e.diff(ctx.q(1)) == ctx.parse("2*a*q1 + b*q2")


def test_subst_scaling():
    ctx = ExprContext(3, parameters=("s",))
    e = ctx.parse("v1*v3")
    scaled = e.subst({ctx.v(1): ctx.parse("s*v1"), ctx.v(3): ctx.parse("s*v3")})
    assert scaled == ctx.parse("s^2*v1*v3")


def test_subst_second_order_jet():
    ctx = ExprContext(3, max_jet_order=2)
    e = ctx.parse("d2q1 - q2*v1*v3")
    assert e.subst({ctx.jet(1, 2): ctx.parse("q2*v1*v3")}).is_zero()


def test_subst_empty_map_is_identity():
    ctx = ExprContext(2)
    e = ctx.parse("(q1 + q2)/(q1*q2)")
    assert e.subst({}) == e


def test_subst_away_from_the_denominator_factors_nothing(monkeypatch):
    """Bindings that touch no denominator factor leave the denominator
    as it is: no ``factor_list`` call, for constant, polynomial and
    rational values alike."""
    monkeypatch.setattr(exprcore, "_RING_CACHE", {})  # a fresh factor base
    ctx = ExprContext(2)
    e = ctx.parse("(q1^2*v1 + v2)/(q2^2 + 1)")
    bindings = [{ctx.q(1): 3}, {ctx.v(1): ctx.parse("q1 + v2")},
                {ctx.q(1): ctx.parse("v1/(q2 - 1)"), ctx.v(2): Fraction(1, 2)}]
    expected = [ctx.parse(text) for text in (
        "(9*v1 + v2)/(q2^2 + 1)", "(q1^3 + q1^2*v2 + v2)/(q2^2 + 1)",
        "(v1^3/(q2 - 1)^2 + 1/2)/(q2^2 + 1)")]
    touching = ctx.parse("q1 + 2")
    calls = []
    original = Poly.factor_list

    def counting(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(Poly, "factor_list", counting)
    assert [e.subst(binding) for binding in bindings] == expected
    assert calls == []
    e.subst({ctx.q(2): touching})  # q2^2 + 1 becomes q1^2 + 4*q1 + 5
    assert len(calls) == 1


def test_subst_rejects_zero_denominator():
    ctx = ExprContext(2)
    e = ctx.parse("1/q1")
    with pytest.raises(ZeroDenominatorError):
        e.subst({ctx.q(1): ctx.parse("q2 - q2")})


def test_is_zero_of_derivative_difference():
    ctx = ExprContext(2)
    f = ctx.parse("(q1^2 + q2)/(q2 + 3)")
    assert (f.diff(ctx.v(1)) - f.diff(ctx.v(1))).is_zero()


def test_eval_num_exact():
    ctx = ExprContext(3)
    e = ctx.parse("q2*v1*v3")
    value = e.eval_num({v: Fraction(0) for v in ctx.all_varids()}
                       | {ctx.q(2): Fraction(2), ctx.v(1): Fraction(3),
                          ctx.v(3): Fraction(5)})
    assert value == 30


def test_eval_num_names_an_unassigned_variable():
    """A variable of the numerator or of the denominator that the point
    leaves out is named."""
    ctx = ExprContext(2)
    point = {ctx.q(1): Fraction(1), ctx.q(2): Fraction(0),
             ctx.v(1): Fraction(2)}
    for text in ("q1 + v2", "q1/(v2 + 1)"):
        with pytest.raises(ExprError,
                           match="evaluation point does not assign v2"):
            ctx.parse(text).eval_num(point)


def test_eval_num_pole():
    ctx = ExprContext(1)
    e = ctx.parse("1/q1")
    with pytest.raises(PoleError):
        e.eval_num({ctx.q(1): Fraction(0), ctx.v(1): Fraction(1)})


def test_a_term_at_the_exponent_limit_evaluates_in_its_term_count():
    """Evaluation and substitution build the powers of a value only for
    the exponents the terms use: ``q1^32767 + v1`` at ``q1 = 97/89``
    takes a few powers, not 32768 of them, and agrees with the
    ``Fraction`` reference."""
    ctx = ExprContext(1)
    e = ctx.parse("q1^32767 + v1")
    value = Fraction(97, 89)
    start = time.perf_counter()
    evaluated = e.eval_num({ctx.q(1): value, ctx.v(1): Fraction(1, 3)})
    substituted = e.subst({ctx.q(1): value})
    seconds = time.perf_counter() - start
    assert evaluated == value ** 32767 + Fraction(1, 3)
    assert substituted == ctx.const(value ** 32767) + ctx.var(ctx.v(1))
    assert seconds < 1.0


def test_integrate_power():
    ctx = ExprContext(1, parameters=("s",))
    e = ctx.parse("s^2")
    assert e.integrate_poly(ctx.param("s")) == ctx.parse("1/3*s^3")


def test_integrate_homotopy_weight():
    ctx = ExprContext(1, parameters=("s", "c"))
    anti = ctx.parse("(1 - s)*s^2*c").integrate_poly(ctx.param("s"))
    point = {v: Fraction(0) for v in ctx.all_varids()}
    at1 = anti.eval_num(point | {ctx.param("s"): Fraction(1), ctx.param("c"): Fraction(1)})
    at0 = anti.eval_num(point | {ctx.param("s"): Fraction(0), ctx.param("c"): Fraction(1)})
    assert at1 - at0 == Fraction(1, 12)


def test_integrate_rejects_rational():
    ctx = ExprContext(2)
    with pytest.raises(NotPolynomialError):
        ctx.parse("1/q2").integrate_poly(ctx.q(2))


@pytest.mark.parametrize("var, message", [
    (VarId.position(3), "coordinate index 3 outside 1..2"),
    (VarId.jet(1, 2), "jet order 2 exceeds context maximum 1"),
    (VarId.time(), "context has no time variable"),
    (VarId.parameter(2), "parameter index 2 out of range"),
])
def test_variables_outside_the_context_are_rejected(var, message):
    ctx = ExprContext(2, parameters=("a",))
    with pytest.raises(ExprError, match=message):
        ctx.var(var)
    with pytest.raises(ExprError, match=message):
        ctx.parse("q1").diff(var)


def test_syntax_error_carries_position():
    ctx = ExprContext(2)
    with pytest.raises(ExprSyntaxError) as err:
        ctx.parse("q1 + * q2")
    assert err.value.position == 5


def test_unknown_identifier_rejected():
    ctx = ExprContext(2)
    with pytest.raises(UnknownIdentifierError):
        ctx.parse("q7")
    with pytest.raises(UnknownIdentifierError):
        ctx.parse("zeta * q1")
    with pytest.raises(UnknownIdentifierError):
        ctx.parse("t + q1")


def test_jet_order_above_context_rejected():
    ctx = ExprContext(2, max_jet_order=1)
    with pytest.raises(JetOrderError):
        ctx.parse("d2q1")
    deep = ExprContext(2, max_jet_order=4)
    assert str(deep.parse("d4q2")) == "d4q2"


def test_division_by_zero_rejected_at_parse():
    ctx = ExprContext(2)
    with pytest.raises(ZeroDenominatorError):
        ctx.parse("q1/(q2 - q2)")


def test_chained_power_needs_parentheses():
    ctx = ExprContext(1)
    with pytest.raises(ExprSyntaxError):
        ctx.parse("q1^2^3")
    assert ctx.parse("(q1^2)^3") == ctx.parse("q1^6")


def test_negative_exponent_builds_reciprocal():
    ctx = ExprContext(2)
    assert ctx.parse("q2^(-2)") == ctx.one / ctx.parse("q2^2")


def test_contexts_compare_and_hash_by_value():
    """Two contexts built apart with the same dimension, jet order,
    parameters and time flag are equal, hash alike and mix; a context
    that differs in any one of them is unequal and refuses to mix."""
    a = ExprContext(2, parameters=("k",), max_jet_order=2)
    b = ExprContext(2, parameters=["k"], max_jet_order=2)
    assert a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert a.parse("q1 + k") + b.parse("v2") == a.parse("q1 + k + v2")
    for other in (ExprContext(3, parameters=("k",), max_jet_order=2),
                  ExprContext(2, parameters=("m",), max_jet_order=2),
                  ExprContext(2, parameters=("k",), max_jet_order=3),
                  ExprContext(2, parameters=("k",), max_jet_order=2,
                              uses_time=True),
                  ExprContext(2, max_jet_order=2)):
        assert a != other and not a == other
        with pytest.raises(ContextMismatchError):
            a.parse("q1") + other.parse("q1")
    assert a != "ExprContext(n=2)"


def test_convert_between_contexts():
    src = ExprContext(2)
    dst = ExprContext(3, parameters=("a",))
    e = src.parse("q1*v2 + 2")
    moved = convert(e, dst)
    assert moved == dst.parse("q1*v2 + 2")
    with pytest.raises(ContextMismatchError):
        convert(dst.parse("a*q3"), src)


def test_convert_rescales_a_factor_whose_leading_term_moves(monkeypatch):
    """``2*a + b^2`` is monic as ``a + 1/2*b^2`` over ``(a, b)`` and as
    ``b^2 + 2*a`` over ``(b, a)``: the moved factor is rescaled, and is
    the factor the target interns for the same text, without
    ``factor_list``."""
    src = ExprContext(1, parameters=("a", "b"))
    dst = ExprContext(1, parameters=("b", "a"))
    e = src.parse("1/(2*a + b^2)")
    calls = []
    original = Poly.factor_list
    monkeypatch.setattr(Poly, "factor_list",
                        lambda poly: calls.append(poly) or original(poly))
    moved = convert(e, dst)
    assert calls == []
    expected = dst.parse("1/(2*a + b^2)")
    assert moved == expected
    assert str(moved) == str(expected) == "(1)/(b^2 + 2*a)"


def test_parser_roundtrip_random_trees():
    ctx = ExprContext(2, parameters=("a",))
    rng = random.Random(20260814)
    for _ in range(300):
        e = random_expr(ctx, rng, depth=3)
        assert ctx.parse(str(e)) == e


def test_module_functions_and_rarely_called_methods_on_random_trees():
    """``diff``, ``subst``, ``is_zero``, ``eval_num`` and
    ``integrate_poly`` of the module equal the methods they name;
    ``numerator_expr`` over ``denominator_expr`` gives the expression
    back, ``as_fraction`` reads a constant and refuses anything else,
    and ``3 - e`` is the reflected difference."""
    ctx = ExprContext(2, parameters=("a",))
    rng = random.Random(20261019)
    point = {var: small_fraction(rng) for var in ctx.all_varids()}
    for _ in range(60):
        e = random_expr(ctx, rng, depth=3)
        p = random_expr(ctx, rng, depth=3, allow_div=False)
        var = rng.choice(ctx.all_varids())
        bindings = {rng.choice(ctx.all_varids()): p}
        assert exprcore.diff(e, var) == e.diff(var)
        assert exprcore.subst(p, bindings) == p.subst(bindings)
        assert exprcore.is_zero(e - e) and exprcore.is_zero(e) == e.is_zero()
        assert exprcore.eval_num(p, point) == p.eval_num(point)
        assert exprcore.integrate_poly(p, var) == p.integrate_poly(var)
        assert e.numerator_expr() / e.denominator_expr() == e
        assert 3 - p == ctx.const(3) - p
        assert (3 - p).eval_num(point) == 3 - p.eval_num(point)
        if e.is_constant():
            assert ctx.const(e.as_fraction()) == e
        else:
            with pytest.raises(ExprError, match="not constant"):
                e.as_fraction()
    assert ctx.parse("-7/3").as_fraction() == Fraction(-7, 3)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_printed_random_trees_parse_back(seed):
    """``ctx.parse(to_text(e)) == e`` for random trees with divisions."""
    ctx = ExprContext(2, parameters=("a",))
    e = random_expr(ctx, random.Random(seed), depth=3)
    assert ctx.parse(to_text(e)) == e


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_parse_equals_the_expr_built_by_the_same_operations(seed):
    """A tree rendered with parentheses, chained unary minus, ``p/q``
    literals, quotients and negative exponents parses to the ``Expr``
    the same operations build."""
    ctx = ExprContext(2, parameters=("a",))
    text, expr = random_text(ctx, random.Random(seed))
    assert ctx.parse(text) == expr


# Names, digit runs past Python's limit for str to int, exponents at and
# past the limit, rational literals, exponents in parentheses and runs of
# unary minuses and parentheses deep enough to pass the nesting limit.
_TOKENS = ["q1", "v2", "a", "d1q1", "d2q1", "q3", "x", "q" + "9" * 5000,
           "d" + "9" * 5000 + "q1", "v" + "0" * 5000 + "1", "0", "3", "12",
           "9" * 5000, "q1^16384", "q1^(16384)", "v1^32767", "q1^32768",
           "(2/3)", "(-1/4)", "(0/5)", "^2", "^-1", "^(-1)", "^(2)", "+", "-",
           "*", "/", "(", ")", "-" * 60, "(" * 60]


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.sampled_from(_TOKENS), max_size=12),
       separator=st.sampled_from(["", " "]))
@example(tokens=["q" + "9" * 5000], separator="")
@example(tokens=["2", "*", "d" + "9" * 5000 + "q1"], separator="")
def test_random_token_strings_parse_back_or_raise_expr_errors(tokens,
                                                              separator):
    """Any string of these tokens either parses to an expression whose
    canonical text parses back to it, or raises an ``ExprError``; no
    other exception escapes the parser or the printer."""
    ctx = ExprContext(2, parameters=("a",))
    try:
        expr = ctx.parse(separator.join(tokens))
        text = to_text(expr)
    except ExprError:
        return
    assert ctx.parse(text) == expr


# Type, message and position of each error, recorded before the parser
# read polynomial text with ring arithmetic.
_MALFORMED = [
    ({}, "", ExprSyntaxError,
     "expected a number, a variable or '(' (at position 0)", 0),
    ({}, "q1 +", ExprSyntaxError,
     "expected a number, a variable or '(' (at position 4)", 4),
    ({}, "q1 +\t", ExprSyntaxError,
     "expected a number, a variable or '(' (at position 5)", 5),
    ({}, ")", ExprSyntaxError,
     "expected a number, a variable or '(' (at position 0)", 0),
    ({}, "q1 $ q2", ExprSyntaxError,
     "unexpected character '$' (at position 3)", 3),
    ({}, "2*q1 é", ExprSyntaxError,
     "unexpected character 'é' (at position 5)", 5),
    ({}, "q1/0 + é", ExprSyntaxError,
     "unexpected character 'é' (at position 7)", 7),
    ({}, "q1 q2", ExprSyntaxError,
     "unexpected trailing input 'q2' (at position 3)", 3),
    ({}, "(q1 + q2", ExprSyntaxError, "expected ')' (at position 8)", 8),
    ({}, "q1^(2", ExprSyntaxError, "expected ')' (at position 5)", 5),
    ({}, "q1^q2", ExprSyntaxError,
     "exponent must be an integer literal (at position 3)", 3),
    ({}, "q1^-q2", ExprSyntaxError,
     "exponent must be an integer literal (at position 4)", 4),
    ({}, "q1^", ExprSyntaxError,
     "exponent must be an integer literal (at position 3)", 3),
    ({}, "-(q1)^-(2)", ExprSyntaxError,
     "exponent must be an integer literal (at position 7)", 7),
    ({}, "q1^2^3", ExprSyntaxError,
     "chained '^' needs parentheses (at position 4)", 4),
    ({"parameters": ("a",)}, "a^-1^2", ExprSyntaxError,
     "chained '^' needs parentheses (at position 4)", 4),
    ({}, "0^-1", ExprSyntaxError,
     "zero raised to a negative power (at position 1)", 1),
    ({}, "(q1 - q1)^(-2)", ExprSyntaxError,
     "zero raised to a negative power (at position 9)", 9),
    ({}, "q1/0", ZeroDenominatorError, "division by zero (at position 2)",
     None),
    ({}, "q1/(q2 - q2)", ZeroDenominatorError,
     "division by zero (at position 2)", None),
    ({}, "1/q1/(2 - 2)", ZeroDenominatorError,
     "division by zero (at position 4)", None),
    ({}, "x + q1", UnknownIdentifierError,
     "unknown identifier 'x' (at position 0)", 0),
    ({}, "x/0", UnknownIdentifierError,
     "unknown identifier 'x' (at position 0)", 0),
    ({}, "q3", UnknownIdentifierError,
     "coordinate index 3 outside 1..2 (at position 0)", 0),
    ({}, "q0", UnknownIdentifierError,
     "unknown identifier 'q0' (at position 0)", 0),
    ({}, "v12", UnknownIdentifierError,
     "coordinate index 12 outside 1..2 (at position 0)", 0),
    ({}, "t*q1", UnknownIdentifierError,
     "context has no time variable (at position 0)", 0),
    ({}, "d3q9", UnknownIdentifierError,
     "unknown identifier 'd3q9' (at position 0)", 0),
    ({}, "d2q1", JetOrderError,
     "jet order 2 exceeds context maximum 1 (at position 0)", 0),
    ({"max_jet_order": 4}, "d5q1", JetOrderError,
     "jet order 5 exceeds context maximum 4 (at position 0)", 0),
    # Texts that fail inside a product of integer triples.
    ({}, "3/0*q1", ZeroDenominatorError, "division by zero (at position 1)",
     None),
    ({}, "(2/0)*q1", ZeroDenominatorError,
     "division by zero (at position 2)", None),
    ({}, "2*q1^q2", ExprSyntaxError,
     "exponent must be an integer literal (at position 5)", 5),
    ({}, "2*q1^2^3", ExprSyntaxError,
     "chained '^' needs parentheses (at position 6)", 6),
    ({}, "(2/3)^", ExprSyntaxError,
     "exponent must be an integer literal (at position 6)", 6),
    ({}, "q1\u00b2", ExprSyntaxError,
     "unexpected character '\u00b2' (at position 2)", 2),
    ({}, "_q1", ExprSyntaxError, "unexpected character '_' (at position 0)",
     0),
    ({}, "(-3/4", ExprSyntaxError, "expected ')' (at position 5)", 5),
    ({}, "q1^2 - 3/4*q1*q2 +\u00a0", ExprSyntaxError,
     "expected a number, a variable or '(' (at position 19)", 19),
]


@pytest.mark.parametrize("options, text, error, message, position", _MALFORMED,
                         ids=[repr(case[1]) for case in _MALFORMED])
def test_malformed_text_raises_its_error(options, text, error, message,
                                         position):
    with pytest.raises(ExprError) as err:
        ExprContext(2, **options).parse(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


_HALF = (MAX_EXPONENT + 1) // 2


@pytest.mark.parametrize("text, position", [
    (f"q1^{MAX_EXPONENT + 1}", 3),
    (f"2*q1^{MAX_EXPONENT + 1}*v1", 5),
    (f"(q1 + 1)^{MAX_EXPONENT + 1}", 9),
    (f"q1^-{MAX_EXPONENT + 1}", 4),
    ("v1^" + "9" * 5000, 3),
    (f"q1^{_HALF}*v2*q1^{_HALF}", 3 + len(str(_HALF)) + 7),
    (f"q1^(20000)*q1^{_HALF}", 14),
    (f"0^(2)*q1^{_HALF}*q1^{_HALF}", 18),
])
def test_an_exponent_above_the_limit_is_refused_unbuilt(text, position):
    """An exponent literal above the limit, or a product of generators
    and constants whose exponents of one variable add up past it, however
    its factors are spelled, raises ``LimitError`` naming the limit and
    the token, before any value is built from it; the 5000-digit literal
    is not even converted to an integer."""
    with pytest.raises(LimitError) as err:
        ExprContext(2).parse(text)
    assert str(err.value) == (f"exponent above the limit {MAX_EXPONENT} "
                              f"(at position {position})")


def test_the_exponent_limit_holds_and_products_past_it_are_refused():
    """``q1^MAX_EXPONENT`` parses and prints; a product or a power whose
    exponent would pass the limit raises ``LimitError`` instead of
    carrying into the next variable's field. A product with a sum (read
    with the ``Expr`` operators) names no position."""
    ctx = ExprContext(2)
    assert to_text(ctx.parse(f"q1^{MAX_EXPONENT}")) == f"q1^{MAX_EXPONENT}"
    assert to_text(ctx.parse(f"q1^{_HALF - 1}*q1^{_HALF}")) == \
        f"q1^{MAX_EXPONENT}"
    half = ctx.parse(f"q1^{_HALF}*v1")
    for make in (lambda: half * half, lambda: half ** 2,
                 lambda: ctx.parse(f"(q1^{_HALF} + v2)*q1^{_HALF}"),
                 lambda: (half + 1) * half):
        with pytest.raises(LimitError, match=f"limit {MAX_EXPONENT}$"):
            make()


def test_products_past_the_exponent_limit_raise_on_every_path():
    """``LimitError`` names the limit for a product made as a pair of a
    ``lincomb`` (also when the terms past the limit cancel in the sum),
    as ``Expr * Expr`` with no denominators (a one-term operand too)
    and in ``sum_of_products`` with a one-term operand."""
    ctx = ExprContext(2)
    ring = ctx._ring
    mono, half = ctx.parse(f"q1^{_HALF}"), ctx.parse(f"q1^{_HALF}*v1 + q2")
    for make in (lambda: lincomb(ctx, [(half, half)]),
                 lambda: lincomb(ctx, [ctx.one, (mono, half)]),
                 lambda: lincomb(ctx, [(mono, mono), (-mono, mono)]),
                 lambda: mono * half, lambda: half * mono,
                 lambda: ring.sum_of_products((), [(mono.num, half.num)]),
                 lambda: ring.sum_of_products([half.num],
                                              [(half.num, mono.num)])):
        with pytest.raises(LimitError, match=f"limit {MAX_EXPONENT}"):
            make()


_DEEP = exprcore.MAX_NESTING


@pytest.mark.parametrize("text, value", [
    ("(" * _DEEP + "q1" + ")" * _DEEP, "q1"),
    ("-" * _DEEP + "q1", "q1"),
    ("-" * (_DEEP - 1) + "(q1)", "-q1"),
    ("(-" * (_DEEP // 2) + "v1" + ")" * (_DEEP // 2), "v1"),
    ("(" * (_DEEP - 1) + "(2/3)" + ")" * (_DEEP - 1), "2/3"),
    ("q1*" + "-" * _DEEP + "v2 - 1", "q1*v2 - 1"),
    ("q1^" + "(" * _DEEP + "2" + ")" * _DEEP, "q1^2"),
], ids=["parentheses", "minuses", "minuses-parenthesis", "alternating",
        "literal", "factor", "exponent"])
def test_nesting_at_the_limit_parses(text, value):
    """Parentheses and unary minuses nested ``MAX_NESTING`` deep parse,
    around integer triples and around ``Expr`` values alike."""
    assert to_text(ExprContext(2).parse(text)) == value


@pytest.mark.parametrize("text, position", [
    ("(" * (_DEEP + 1) + "q1" + ")" * (_DEEP + 1), _DEEP),
    ("(" * 3000 + "q1" + ")" * 3000, _DEEP),
    ("-" * (_DEEP + 1) + "q1", _DEEP),
    ("-" * _DEEP + "(q1)", _DEEP),
    ("-" * 3000 + "(q1)", _DEEP),
    ("(-" * (_DEEP // 2 + 1) + "v1" + ")" * (_DEEP // 2 + 1), _DEEP),
    ("(" * (_DEEP - 1) + "(-2/3)" + ")" * (_DEEP - 1), _DEEP),
    ("q1*" + "-" * (_DEEP + 1) + "v2 - 1", _DEEP + 3),
    ("q1^" + "(" * (_DEEP + 1) + "2" + ")" * (_DEEP + 1), _DEEP + 3),
], ids=["parentheses", "parentheses-3000", "minuses", "minuses-parenthesis",
        "minuses-3000-parenthesis", "alternating", "literal", "factor",
        "exponent"])
def test_nesting_past_the_limit_is_refused(text, position):
    """One level of parentheses or unary minus past ``MAX_NESTING``
    raises ``LimitError`` naming the limit and the token that passes it,
    never a ``RecursionError``."""
    with pytest.raises(LimitError) as err:
        ExprContext(2).parse(text)
    assert str(err.value) == (f"nesting above the limit {_DEEP} "
                              f"(at position {position})")


def test_parsing_a_polynomial_builds_no_quotient(monkeypatch):
    """A polynomial text (an ``f`` entry of a generated problem file) is
    read as integer triples alone: no ``Expr`` product and no
    ``factor_list``."""
    monkeypatch.setattr(exprcore, "_RING_CACHE", {})  # a fresh factor base
    ctx = ExprContext(2)
    text = ("2/11*q1^2 - 10/11*q1*q2 + 1/11*q1 - 12/11*q2^2 - 12/11*q2*v1^2"
            " + 1/11*q2*v1 - 4/11*q2*v2 - 4/11*q2 - 6/11*v1*v2 + 12/11*v2^2")
    calls = []

    def counting(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapper

    monkeypatch.setattr(exprcore, "_product", counting(exprcore._product))
    monkeypatch.setattr(Poly, "factor_list", counting(Poly.factor_list))
    e = ctx.parse(text)
    assert calls == []
    assert str(e) == text
    ctx.parse("1/(q1^2 + 3)")
    assert calls == ["factor_list", "_product"]


def test_the_general_path_factors_nothing(monkeypatch):
    """A polynomial text that leaves the integer triples (parenthesised
    sums, a power of a sum, a division by a constant, a generated ``L``)
    is read with the ``Expr`` operators without a single
    ``factor_list``, to the expression of its expanded canonical text."""
    monkeypatch.setattr(exprcore, "_RING_CACHE", {})  # a fresh factor base
    ctx = ExprContext(3)
    cases = {
        "(q1 + q2)*(q1 - 2*v3) - (q2)": "q1^2 + q1*q2 - 2*q1*v3 - 2*q2*v3 - q2",
        "(q1 - 2*v1)^3 + 8*v1^3": "q1^3 - 6*q1^2*v1 + 12*q1*v1^2",
        "(3*q1^2 - q2)/(6/5) - q3/2": "5/2*q1^2 - 5/6*q2 - 1/2*q3",
        "-(q1 + 1)/-4*(2)^-1": "1/8*q1 + 1/8",
        "1/2*(6 + q2^2)*v2*v2 - ((3/1)*q3*q2)":
            "1/2*q2^2*v2^2 - 3*q2*q3 + 3*v2^2",
    }
    calls = []
    factor_list = Poly.factor_list

    def counting(poly):
        calls.append(poly)
        return factor_list(poly)

    monkeypatch.setattr(Poly, "factor_list", counting)
    parsed = {text: ctx.parse(text) for text in cases}
    assert calls == []
    assert {text: str(e) for text, e in parsed.items()} == cases
    assert parsed == {text: ctx.parse(expanded)
                      for text, expanded in cases.items()}


def test_parsing_a_canonical_entry_multiplies_no_polynomials(monkeypatch):
    """Each term of a canonical ``f`` entry, or of one with its
    coefficients written ``(p/q)``, is read as an integer triple: the
    entry becomes one polynomial without a single ``Poly`` product or
    power."""
    ctx = ExprContext(3, parameters=("a", "b"))
    texts = ("2/11*q1^2 - 10/11*q1*q2 + 1/11*q1 - 12/11*q2^2 - 12/11*q2*v1^2"
             " + 1/11*q2*v1 - 4/11*q2*v2 - 4/11*q2 - 6/11*v1*v2 + 12/11*v2^2",
             "-a*q1 - b*q2 - 3/4*a^2*v1",
             "(1/1)*v2*v1*q2 + (-3/1)*v2*v2*v1 + (2/3)*v3*v2 - (5)")
    expected = [ctx.parse(text) for text in texts]
    calls = []

    def counting(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(Poly, name, counting(getattr(Poly, name)))
    assert [ctx.parse(text) for text in texts] == expected
    assert calls == []


def test_a_term_leaves_the_integer_path_with_the_value_read_so_far():
    """A product that starts with integer triples and then meets a
    factor or a division a triple cannot take goes on as an ``Expr``
    from the factors read so far, each counted once."""
    ctx = ExprContext(2)
    q1, q2 = ctx.var(ctx.q(1)), ctx.var(ctx.q(2))
    cases = {
        "2*(3)^2*q1": 18 * q1,
        "-2*(-3/4)^3": ctx.const(Fraction(27, 32)),
        "q1*(1/2)^2/q2": q1 / (4 * q2),
        "3/4*q1^2*q1^(2)": Fraction(3, 4) * q1 ** 4,
        "2*-q1^(-1)": ctx.const(-2) / q1,
        "5/2^2*q1": Fraction(5, 4) * q1,
        "-(2)*q2 - --3*q1": -2 * q2 - 3 * q1,
        "(-1/3)*q2/(2/5)*q1": Fraction(-5, 6) * q2 * q1,
        "7*q1/(q1*q2)": 7 / q2,
    }
    assert {text: ctx.parse(text) for text in cases} == cases


def test_printing_reads_the_integer_coefficients():
    """``to_text`` prints from a polynomial's integer coefficients and
    its one denominator."""
    ctx = ExprContext(2, parameters=("a",))
    cases = {"-3/4*a*q1^2 + 1/6*q2 - 1": "-3/4*q1^2*a + 1/6*q2 - 1",
             "(2/3*q1 - 1)/(q2^2 + 1/2*a)": "(2/3*q1 - 1)/(q2^2 + 1/2*a)",
             "q1*v2^3/(6*a - 4*q2) - 5/2":
                 "(-1/4*q1*v2^3 - 5/2*q2 + 15/4*a)/(q2 - 3/2*a)",
             "0": "0", "-7/3": "-7/3", "12*q1 - q2": "12*q1 - q2"}
    exprs = {text: ctx.parse(text) for text in cases}
    assert {text: exprcore.to_text(e) for text, e in exprs.items()} == cases


def test_expressions_and_contexts_stay_immutable():
    ctx = ExprContext(2)
    e = ctx.parse("1/(q1 + 1)")
    for name in ("ctx", "num", "den_factors", "other"):
        with pytest.raises(AttributeError, match="Expr is immutable"):
            setattr(e, name, None)
    with pytest.raises(AttributeError, match="ExprContext is immutable"):
        ctx.n = 3
    assert e == ctx.parse("1/(q1 + 1)")


def test_coordinate_varids_are_the_rings_own():
    """``q`` and ``v`` return the VarIds the ring already holds (the same
    object on every call) and still refuse an index outside 1..n."""
    for ctx in (ExprContext(3),
                ExprContext(2, parameters=("a",), max_jet_order=3,
                            uses_time=True)):
        assert ctx.v(1) is ctx.v(1) and ctx.q(2) is ctx.q(2)
        for i in range(1, ctx.n + 1):
            assert ctx.q(i) == VarId.position(i)
            assert ctx.v(i) == VarId.jet(i, 1)
            for var in (ctx.q(i), ctx.v(i)):
                assert ctx.varid_of_gen(ctx.gen_index(var)) is var
        for index in (0, -1, ctx.n + 1):
            for method in (ctx.q, ctx.v):
                with pytest.raises(ExprError) as err:
                    method(index)
                assert type(err.value) is ExprError
                assert str(err.value) == \
                    f"coordinate index {index} outside 1..{ctx.n}"


_EDIT_CTX = ExprContext(2, parameters=("a",))
_edit_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * _EDIT_CTX._ring.ngens),
    st.fractions(-30, 30, max_denominator=12), min_size=1, max_size=5,
).map(_EDIT_CTX._ring.from_dict)
# ASCII and Unicode whitespace, and none.
_WHITESPACE = ("", "", " ", "  ", "\t", "\n", "\x0b", "\u00a0", "\u2003",
               "\u3000")
_TEXT_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|\S")


def _wrapped_coefficients(text: str, rng) -> list:
    """The tokens of canonical ``text`` with some coefficients ``p/q``
    or ``p`` written ``(p/q)``; a minus sign before one may move inside,
    as ``(-p/q)``, leaving a ``+`` behind where it was binary."""
    tokens = _TEXT_TOKEN.findall(text)
    out = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        # In canonical text an integer is a coefficient unless it follows
        # "^" (an exponent) or "/" (the denominator of one).
        if not token.isdigit() or out[-1:] not in ([], ["("], ["+"], ["-"]) \
                or rng.random() < 0.3:
            out.append(token)
            continue
        den = "1"
        if tokens[i:i + 1] == ["/"] and tokens[i + 1].isdigit():
            den = tokens[i + 1]
            i += 2
        sign = ""
        if out[-1:] == ["-"] and rng.random() < 0.5:
            sign = "-"
            out.pop()
            if out and out[-1] != "(":
                out.append("+")
        out += ["(", sign + token, "/", den, ")"]
    return out


@settings(max_examples=150, deadline=None)
@given(num=_edit_polys, den=st.one_of(st.none(), _edit_polys.filter(bool)),
       rng=st.randoms(use_true_random=False))
def test_edited_canonical_text_parses_to_the_same_expr(num, den, rng):
    """Canonical text still parses to its expression after two edits:
    coefficients written ``(p/q)``, and whitespace, ASCII or Unicode,
    between the tokens."""
    e = Expr(_EDIT_CTX, num, den or _EDIT_CTX._ring.one)
    tokens = _wrapped_coefficients(str(e), rng)
    edited = "".join(rng.choice(_WHITESPACE) + token for token in tokens)
    edited += rng.choice(_WHITESPACE)
    assert _EDIT_CTX.parse(edited) == e


def test_diff_commutes_on_random_trees():
    ctx = ExprContext(2, parameters=("a",))
    rng = random.Random(97)
    varids = ctx.all_varids()
    for _ in range(120):
        e = random_expr(ctx, rng, depth=3)
        x, y = rng.choice(varids), rng.choice(varids)
        assert e.diff(x).diff(y) == e.diff(y).diff(x)


def test_diff_by_generator_position_matches_diff_by_variable():
    """``Expr.diff`` takes a generator position as well as a variable;
    a position outside the ring raises."""
    ctx = ExprContext(2, parameters=("a",))
    rng = random.Random(41)
    for _ in range(60):
        e = random_expr(ctx, rng, depth=3)
        var = rng.choice(ctx.all_varids())
        assert e.diff(ctx.gen_index(var)) == e.diff(var)
    for position in (-1, len(ctx.all_varids())):
        with pytest.raises(ExprError):
            ctx.one.diff(position)


def test_canonical_soundness_thousand_pairs():
    """Structural equality of canonical forms must agree with exact
    evaluation at sample points, for a thousand seeded random pairs."""
    ctx = ExprContext(2, parameters=("a",))
    rng = random.Random(1729)
    for trial in range(1000):
        e1 = random_expr(ctx, rng, depth=3)
        if trial % 3 == 0:
            e2 = rearranged(e1, ctx, rng)
            assert (e1 - e2).is_zero(), f"rearrangement changed value (trial {trial})"
        else:
            e2 = random_expr(ctx, rng, depth=3)
        gap = e1 - e2
        if gap.is_zero():
            for _ in range(5):
                pt = sample_point(ctx, rng)
                assert gap.eval_num(pt) == 0
        else:
            samples = []
            for _ in range(5):
                pt = sample_point(ctx, rng, avoid=(gap,))
                samples.append(gap.eval_num(pt))
            if not any(samples):
                assert nonzero_somewhere(gap, rng), \
                    f"claimed nonzero but no witness found (trial {trial})"


def test_diff_matches_central_differences():
    ctx = ExprContext(2, parameters=("a",))
    rng = seeded_rng(4242)
    checked = 0
    while checked < 40:
        e = random_expr(ctx, rng, depth=3)
        x = rng.choice(ctx.all_varids())
        try:
            pt = sample_point(ctx, rng, avoid=(e,))
            numeric = central_difference(e, x, pt)
            exact = e.diff(x).eval_num(pt)
        except PoleError:
            continue
        tol = Fraction(1, 10**6) * (1 + abs(exact))
        assert abs(numeric - exact) <= tol
        checked += 1


# --------------------------------------------------------------------------
# canonical-form and substitution fast paths, against reference routes


def _reference_reduction(num, den):
    """sympy's own reduction, of sympy ring elements, followed by a
    monic denominator."""
    num, den = num.cancel(den)
    lc = den.LC
    return num.quo_ground(lc), den.quo_ground(lc)


def _as_sympy(expr):
    return to_sympy(expr.num), to_sympy(expr.den)


_nonzero_fractions = st.fractions(min_value=-5, max_value=5,
                                  max_denominator=4).filter(bool)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=_nonzero_fractions,
       shape=st.sampled_from(("constant_den", "constant_num", "general")))
def test_normalize_matches_reference_reduction(seed, scale, shape):
    ctx = ExprContext(2, parameters=("a",))
    ring = ctx._ring
    rng = random.Random(seed)
    c = ring.ground_new(scale)
    top = random_expr(ctx, rng, depth=3).num
    bottom = random_expr(ctx, rng, depth=2, allow_div=False).num
    common = random_expr(ctx, rng, depth=2, allow_div=False).num
    assume(bottom and common)
    if shape == "constant_den":
        num, den = top, c
    elif shape == "constant_num":
        num, den = c, bottom * common
    else:
        num, den = top * common, bottom * common * c
    e = Expr(ctx, num, den)
    assert _as_sympy(e) == _reference_reduction(to_sympy(num), to_sympy(den))


# Denominator factors that operands share. q1^2 - q2^2 is reducible and
# its factors q1 - q2 and q1 + q2 occur on their own as well, so a factor
# base that kept it whole would miss a common factor.
_SHARED_FACTORS = ("q1^2 - q2^2", "q1 - q2", "q1 + q2", "a*q1 + 1",
                   "q2^2 + a^2 + 1", "q2*v1 - 3")
_SHARED_CTX = ExprContext(2, parameters=("a",))
_SHARED_VARS = (_SHARED_CTX.q(1), _SHARED_CTX.q(2), _SHARED_CTX.v(1),
                _SHARED_CTX.param("a"))
# Values substituted for a variable: constants, polynomials and fractions
# over the shared factors (kept small: factoring a substituted factor
# costs more the larger the value).
_SUBST_VALUES = ("2", "-1/3", "q2 + 1", "a*q2 - q1", "1/(q1 + q2)",
                 "(q2*v1 - 3)/(a*q1 + 1)", "q1^2/(q1 - q2)")
_factor_powers = st.lists(
    st.tuples(st.sampled_from(_SHARED_FACTORS), st.integers(1, 3)),
    min_size=1, max_size=3)


@st.composite
def _shared_fraction(draw):
    """An unreduced ``(num, den)`` pair whose denominator is a product
    of powers of one to three shared factors and whose numerator is a
    random polynomial times powers of some shared factors."""
    ring = _SHARED_CTX._ring
    core = random_expr(_SHARED_CTX, random.Random(draw(st.integers(0, 2**32 - 1))),
                       depth=2, allow_div=False).num
    assume(core)
    num, den = core, ring.one
    for text, exponent in draw(_factor_powers):
        den = den * _SHARED_CTX.parse(text).num ** exponent
    for text, exponent in draw(st.lists(
            st.tuples(st.sampled_from(_SHARED_FACTORS), st.integers(1, 2)),
            max_size=2)):
        num = num * _SHARED_CTX.parse(text).num ** exponent
    return num, den


def _reference_subst(poly, var, by_num, by_den):
    """``poly`` with ``var`` replaced by ``by_num/by_den``, as the whole
    polynomial brought over ``by_den**degree``: (numerator, degree), in
    sympy's ring."""
    ring = poly.ring
    position = _SHARED_CTX.gen_index(var)
    degree = max(monom[position] for monom in poly.monoms())
    total = ring.zero
    for monom, coeff in poly.terms():
        rest = list(monom)
        rest[position] = 0
        total += (ring({tuple(rest): coeff}) * by_num ** monom[position]
                  * by_den ** (degree - monom[position]))
    return total, degree


def _pair(num, den):
    return _SHARED_CTX.parse(num).num, _SHARED_CTX.parse(den).num


@settings(max_examples=100, deadline=None)
# (a + b) - b: q1 - q2 has exponent 2 in both operands of the subtraction
# and divides the numerator of their difference.
@example(x=_pair("1", "(q1 - q2)*(q2^2 + a^2 + 1)"),
         y=_pair("1", "(q1 - q2)^2*(q1 + q2)"), op="+-", var=_SHARED_VARS[0],
         value="2")
# q1 - q2 in one numerator divides the reducible q1^2 - q2^2 in the other
# operand's denominator.
@example(x=_pair("1", "q1^2 - q2^2"), y=_pair("q1 - q2", "q2*v1 - 3"), op="*",
         var=_SHARED_VARS[0], value="2")
@given(x=_shared_fraction(), y=_shared_fraction(),
       op=st.sampled_from(("+", "-", "*", "/", "+-", "diff", "subst")),
       var=st.sampled_from(_SHARED_VARS), value=st.sampled_from(_SUBST_VALUES))
def test_shared_factor_denominators_match_reference_reduction(x, y, op, var,
                                                              value):
    """Every operation on denominators built from shared (and one
    reducible) factors gives sympy's reduction with a monic denominator;
    the reference works in sympy's ring from start to end."""
    ctx = _SHARED_CTX
    a = Expr(ctx, *x)
    b = Expr(ctx, *y)
    (xn, xd), (yn, yd) = ([to_sympy(p) for p in pair] for pair in (x, y))
    assert _as_sympy(a) == _reference_reduction(xn, xd)
    gen = sympy_ring(ctx._ring).gens[ctx.gen_index(var)]
    if op == "+":
        result, expected = a + b, (xn * yd + yn * xd, xd * yd)
    elif op == "-":
        result, expected = a - b, (xn * yd - yn * xd, xd * yd)
    elif op == "*":
        result, expected = a * b, (xn * yn, xd * yd)
    elif op == "/":
        result, expected = a / b, (xn * yd, xd * yn)
    elif op == "+-":
        result, expected = (a + b) - b, (xn, xd)
    elif op == "diff":
        result = a.diff(var)
        expected = (xn.diff(gen) * xd - xn * xd.diff(gen), xd * xd)
    else:
        c = ctx.parse(value)
        cn, cd = _as_sympy(c)
        top, top_degree = _reference_subst(xn, var, cn, cd)
        bottom, bottom_degree = _reference_subst(xd, var, cn, cd)
        if not bottom:
            with pytest.raises(ZeroDenominatorError):
                a.subst({var: c})
            return
        expected = (top * cd ** bottom_degree, bottom * cd ** top_degree)
        result = a.subst({var: c})
    if not expected[0]:
        assert result.is_zero() and result.den == ctx._ring.one
    else:
        assert _as_sympy(result) == _reference_reduction(*expected)
    assert result.den == ctx._base.product(result.den_factors)


@st.composite
def _lincomb_operand(draw):
    """A polynomial, a random tree with divisions, or a fraction over
    powers of the shared factors."""
    kind = draw(st.sampled_from(("polynomial", "tree", "shared")))
    if kind == "shared":
        return Expr(_SHARED_CTX, *draw(_shared_fraction()))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_expr(_SHARED_CTX, rng, depth=2,
                       allow_div=kind == "tree")


_lincomb_term = st.one_of(_lincomb_operand(),
                          st.tuples(_lincomb_operand(), _lincomb_operand()))


@settings(max_examples=150, deadline=None)
@example(terms=[(_SHARED_CTX.parse("q1"), _SHARED_CTX.parse("1/(q1 - q2)^2")),
                _SHARED_CTX.parse("-q2/(q1 - q2)^2")],
         ending="none", order=random.Random(0))
@given(terms=st.lists(_lincomb_term, max_size=8),
       ending=st.sampled_from(("none", "cancel", "polynomial")),
       order=st.randoms(use_true_random=False))
def test_lincomb_equals_the_left_fold(terms, ending, order):
    """``lincomb`` of up to eight terms and pairs, with and without
    denominators over shared factors at equal and unequal exponents,
    equals the left fold with ``+`` and ``*``, as an expression and as
    text. The terms may be followed by their negations, shuffled, so
    the sum is zero, or by a polynomial minus their sum, so every
    factor of their denominators divides out. ``+`` is the kernel's
    two-term case, so the result is also checked on its own: reducing
    it by every factor of its denominator changes nothing, and at a
    point where no term has a pole it takes the sum of the terms'
    values."""
    ctx = _SHARED_CTX
    total = ctx.zero
    for term in terms:
        total = total + (term[0] * term[1] if type(term) is tuple else term)
    if ending == "cancel":
        negated = [(-term[0], term[1]) if type(term) is tuple else -term
                   for term in terms]
        order.shuffle(negated)
        terms, total = terms + negated, ctx.zero
    elif ending == "polynomial":
        terms, total = terms + [ctx.parse("q1 + a") - total], ctx.parse("q1 + a")
    result = lincomb(ctx, terms)
    assert result == total and to_text(result) == to_text(total)
    assert Expr(ctx, result.num, result.den) == result
    point = {var: Fraction(k + 3, 7)
             for k, var in enumerate(ctx.all_varids())}
    try:
        expected = sum(term[0].eval_num(point) * term[1].eval_num(point)
                       if type(term) is tuple else term.eval_num(point)
                       for term in terms)
    except PoleError:
        return
    assert result.eval_num(point) == expected


@st.composite
def _polynomial_operand(draw):
    """A constant, a variable or a random tree without division."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_expr(_SHARED_CTX, rng, depth=draw(st.integers(0, 2)),
                       allow_div=False)


@settings(max_examples=150, deadline=None)
@example(terms=[_SHARED_CTX.parse("1/2*q1")], cancel=False,
         order=random.Random(0))
@example(terms=[(_SHARED_CTX.parse("a"), _SHARED_CTX.parse("v1 - 1/3"))],
         cancel=True, order=random.Random(0))
@given(terms=st.lists(st.one_of(_polynomial_operand(),
                                st.tuples(_polynomial_operand(),
                                          _polynomial_operand())),
                      min_size=1, max_size=8),
       cancel=st.booleans(), order=st.randoms(use_true_random=False))
def test_lincomb_without_denominators_equals_the_left_fold(terms, cancel,
                                                           order):
    """A sum with no denominator, the path straight to
    ``sum_of_products``, equals the left fold with ``+`` and ``*`` and
    the sum of the numerators in sympy's ring. With ``cancel``
    the terms are followed by their negations, shuffled, so the sum is
    zero, and a zero sum stands over 1."""
    ctx = _SHARED_CTX
    if cancel:
        terms = terms + [(-term[0], term[1]) if type(term) is tuple
                         else -term for term in terms]
        order.shuffle(terms)
    total, num = ctx.zero, sympy_ring(ctx._ring).zero
    for term in terms:
        if type(term) is tuple:
            total = total + term[0] * term[1]
            num += to_sympy(term[0].num) * to_sympy(term[1].num)
        else:
            total, num = total + term, num + to_sympy(term.num)
    result = lincomb(ctx, terms)
    assert result == total and to_text(result) == to_text(total)
    assert to_sympy(result.num) == num and result.den_factors == ()
    if cancel:
        assert result.is_zero()
    if result.is_zero():
        assert result.num.den == 1 and result.den == ctx._ring.one


def test_lincomb_reduces_a_shared_denominator():
    ctx = ExprContext(1)
    terms = [ctx.parse("1/(q1 + 1)"), ctx.parse("q1/(q1 + 1)")]
    assert lincomb(ctx, terms) == ctx.one


def test_lincomb_tries_no_factor_that_one_term_alone_reaches(monkeypatch):
    """``(q1 + 1)^2`` and ``q2 - 1`` are each reached by one term alone at
    their top exponent, so neither can divide the numerator of the sum
    and no trial division is tried."""
    ctx = ExprContext(2)
    terms = [ctx.parse("q2/(q1 + 1)^2"), ctx.parse("1/((q1 + 1)*(q2 - 1))"),
             (ctx.parse("v1"), ctx.parse("q1 + v2")), ctx.parse("q2^2")]
    expected = ctx.parse("q2/(q1 + 1)^2 + 1/((q1 + 1)*(q2 - 1)) "
                         "+ v1*(q1 + v2) + q2^2")
    calls = []
    original = exprcore._exact_quotient

    def counting(num, factor):
        calls.append(factor)
        return original(num, factor)

    monkeypatch.setattr(exprcore, "_exact_quotient", counting)
    assert lincomb(ctx, terms) == expected
    assert calls == []


def test_lincomb_rejects_a_foreign_context():
    ctx, other = ExprContext(2), ExprContext(2, parameters=("a",))
    with pytest.raises(ContextMismatchError):
        lincomb(ctx, [ctx.one, other.one])
    with pytest.raises(ContextMismatchError):
        lincomb(ctx, [(ctx.one, other.one)])


def test_factor_base_history_does_not_change_results(monkeypatch):
    """The same expressions canonicalise identically whether the factor
    base starts empty or already holds factors, met in another order."""
    texts = ("(q1 + q2)/(q1^2 - q2^2)", "(a*q1^2 + 1)/((q1 - q2)^2*(a*q1 + 1))",
             "(q2*v1 - 3)^2/((q1 + q2)*(q2^2 + a^2 + 1))", "v1/(q1 - q2)^3")

    def build(ctx):
        x, y, z, w = (ctx.parse(text) for text in texts)
        results = [x, y, z, w, x + y, y - z, x * z, y / z, w / x,
                   (y + w) - w, y.diff(ctx.q(1)), z.diff(ctx.v(1)),
                   y.subst({ctx.q(2): x}), z.subst({ctx.v(1): 3})]
        return [(e.num, e.den) for e in results]

    monkeypatch.setattr(exprcore, "_RING_CACHE", {})
    fresh = build(ExprContext(2, parameters=("a",)))
    monkeypatch.setattr(exprcore, "_RING_CACHE", {})
    ctx = ExprContext(2, parameters=("a",))
    rng = random.Random(5)
    for text in reversed(_SHARED_FACTORS):
        ctx.parse(f"1/({text})")
    for _ in range(30):
        ctx.one / random_expr(ctx, rng, depth=2, allow_div=False)
    assert len(ctx._base.factors) > 6
    assert build(ctx) == fresh


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_subst_of_constants_agrees_with_evaluation(seed):
    ctx = ExprContext(2, parameters=("a",))
    rng = random.Random(seed)
    e = random_expr(ctx, rng, depth=3)
    variables = ctx.all_varids()
    bound = rng.sample(variables, rng.randint(1, len(variables)))
    binding = {var: small_fraction(rng, -5, 5, 3) for var in bound}
    point = {var: small_fraction(rng, -7, 7, 5) for var in variables}
    try:
        substituted = e.subst(binding)
        left = substituted.eval_num(point)
        right = e.eval_num(point | binding)
    except (PoleError, ZeroDenominatorError):
        assume(False)
    assert left == right
