"""``invlag.poly`` against sympy's polynomial rings over QQ.

Random rational polynomials in two to eight generators (the zero
polynomial, constants and negative leading coefficients included) go
through every operation the expression kernel uses, here and, after
conversion, in sympy's ring over the same generators; the results must
be the same polynomial. Exact division is the kernel's trial division
by a monic factor (``exprcore._exact_quotient``), checked against
sympy's ``div`` on a product (a hit), on a product plus a remainder
(a miss, unless the remainder happens to be divisible) and on a near
miss whose leading coefficient the factor's does not divide.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlag.exprcore import _exact_quotient, _Factor
from invlag.poly import PolyRing

from sympyref import from_sympy, to_sympy

RINGS = {count: PolyRing([f"x{k}" for k in range(1, count + 1)])
         for count in range(2, 9)}

_coefficients = st.fractions(min_value=-30, max_value=30,
                             max_denominator=12)
_nonzero = _coefficients.filter(bool)
_ground = st.one_of(st.integers(-7, 7), _coefficients)


def _terms(count, max_size=6):
    monoms = st.tuples(*[st.integers(0, 3)] * count)
    return st.dictionaries(monoms, _coefficients, max_size=max_size)


@st.composite
def _polys(draw, count, how_many=1):
    """``how_many`` polynomials of ``RINGS[count]``: zero, a constant or
    a general polynomial, each coefficient possibly negative."""
    ring = RINGS[count]
    out = []
    for _ in range(how_many):
        kind = draw(st.sampled_from(("zero", "constant", "general",
                                     "general")))
        if kind == "zero":
            out.append(ring.zero)
        elif kind == "constant":
            out.append(ring.ground_new(draw(_coefficients)))
        else:
            out.append(ring.from_dict(draw(_terms(count))))
    return out


@st.composite
def _ring_polys(draw, how_many=2):
    count = draw(st.integers(2, 8))
    return count, draw(_polys(count, how_many))


def _same(poly, element):
    """``poly`` is the sympy ring element ``element``, term by term."""
    return to_sympy(poly) == element and poly == from_sympy(poly.ring, element)


@settings(max_examples=200, deadline=None)
@given(_ring_polys(), _ground, st.integers(0, 4))
def test_arithmetic_matches_sympy(case, c, exponent):
    _count, (a, b) = case
    sa, sb = to_sympy(a), to_sympy(b)
    domain = sa.ring.domain
    sc = domain(c.numerator, c.denominator) if isinstance(c, Fraction) \
        else domain(c)
    assert _same(a + b, sa + sb)
    assert _same(a - b, sa - sb)
    assert _same(a * b, sa * sb)
    assert _same(-a, -sa)
    if a or exponent:  # sympy refuses 0**0; the kernel never asks for it
        assert _same(a ** exponent, sa ** exponent)
    assert _same(a + c, sa + sc) and _same(c + a, sc + sa)
    assert _same(a - c, sa - sc) and _same(c - a, sc - sa)
    assert _same(a * c, sa * sc) and _same(c * a, sc * sa)
    if c:
        assert _same(a.quo_ground(c), sa.quo_ground(sc))
        assert _same(a / c, sa.quo_ground(sc))


@settings(max_examples=200, deadline=None)
@given(_ring_polys(how_many=1))
def test_structure_matches_sympy(case):
    count, (a,) = case
    sa = to_sympy(a)
    for position in range(count):
        assert _same(a.diff(position), sa.diff(sa.ring.gens[position]))
        assert a.degree(position) == sa.degree(position)
    lc = sa.LC
    assert a.LC == Fraction(int(lc.numerator), int(lc.denominator))
    assert a.is_ground == sa.is_ground
    assert len(a) == len(sa)
    assert bool(a) == bool(sa)
    assert [(monom, Fraction(int(c.numerator), int(c.denominator)))
            for monom, c in sa.terms()] == a.terms()
    assert a.monoms() == sa.monoms()


@settings(max_examples=200, deadline=None)
@given(_ring_polys(), st.randoms(use_true_random=False))
def test_equality_and_hash_follow_sympy(case, rng):
    """Equal polynomials, however built (terms met in another order, or
    through a sum that cancels), compare equal and hash alike; unequal
    ones compare unequal exactly when sympy says so."""
    _count, (a, b) = case
    items = [(monom, c) for monom, c in a.terms()]
    rng.shuffle(items)
    rebuilt = a.ring.from_dict(dict(items))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    roundabout = (a + b) - b
    assert roundabout == a and hash(roundabout) == hash(a)
    assert (a == b) == (to_sympy(a) == to_sympy(b))
    assert (a != b) == (to_sympy(a) != to_sympy(b))
    if a.is_ground:
        assert a == a.LC


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda count: st.tuples(_terms(count, max_size=4),
                            _polys(count, how_many=2),
                            st.tuples(*[st.integers(0, 2)] * count))))
def test_exact_division_matches_sympy(case):
    """``_exact_quotient`` by a monic non-constant factor returns the
    quotient of a product (a hit), and for a product plus a remainder
    and for ``m * (P + lead)`` (``P`` the factor's primitive integer
    form, ``lead`` its leading monomial, ``m`` a monomial) it agrees
    with sympy's ``div``: None when the remainder is nonzero."""
    factor_terms, (quotient, remainder), shift = case
    ring = quotient.ring
    divisor = ring.from_dict(factor_terms)
    assume(not divisor.is_ground)
    divisor = divisor.quo_ground(divisor.LC)
    factor = _Factor(divisor, 0)
    product = divisor * quotient
    assert _same(_exact_quotient(product, factor), to_sympy(quotient))
    near = ((divisor * factor.lead_coeff + ring.from_dict({factor.lead: 1}))
            * ring.from_dict({shift: 1}))
    for num in (product + remainder, near):
        expected_q, expected_r = to_sympy(num).div(to_sympy(divisor))
        result = _exact_quotient(num, factor)
        if expected_r:
            assert result is None
        else:
            assert _same(result, expected_q)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda count: st.tuples(*[st.integers(0, 3)] * count)), _nonzero)
def test_monomials_factor_into_their_variables(monom, c):
    """A monomial's ``factor_list`` is its coefficient and its variables
    with their exponents, as sympy gives them."""
    poly = RINGS[len(monom)].from_dict({monom: c})
    content, factors = poly.factor_list()
    s_content, s_factors = to_sympy(poly).factor_list()
    assert content == Fraction(int(s_content.numerator),
                               int(s_content.denominator))
    assert sorted((str(to_sympy(f)), e) for f, e in factors) == \
        sorted((str(f), e) for f, e in s_factors)
