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

``factor_list`` certifies irreducible cofactors in-house
(``poly._irreducible``): the certificate must never accept an explicit
product or square, must agree with sympy whenever it accepts, and a
non-monomial's factorisation must be sympy's content and factors,
whether certified or handed to sympy; the order of the factors is not
compared, since no caller reads it.

The packed monomial keys are checked on their own, on rings of one to
sixty generators with exponents up to the limit: packing is undone by
unpacking, keeps lex order and turns addition of exponent tuples into
addition of keys, and trial division refuses a shift with a negative
exponent.
"""

import heapq
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import invlag
from invlag import poly as poly_module
from invlag.exprcore import ExprContext, _exact_quotient, _Factor
from invlag.poly import MAX_EXPONENT, PolyRing, _irreducible

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


_WIDE_RINGS = {count: PolyRing([f"y{k}" for k in range(1, count + 1)])
               for count in range(1, 61)}
_exponent = st.integers(0, MAX_EXPONENT)


@st.composite
def _monomial_pairs(draw):
    """A ring of one to sixty generators and two exponent tuples of it
    that agree up to a drawn position, so lex order is decided anywhere,
    not only by the first exponent."""
    ring = _WIDE_RINGS[draw(st.integers(1, 60))]
    a = draw(st.tuples(*[_exponent] * ring.ngens))
    cut = draw(st.integers(0, ring.ngens))
    b = a[:cut] + draw(st.tuples(*[_exponent] * (ring.ngens - cut)))
    return ring, a, b


@settings(max_examples=300, deadline=None)
@given(_monomial_pairs(), st.data())
def test_packing_keeps_exponents_order_and_addition(case, data):
    ring, a, b = case
    pa, pb = ring.pack(a), ring.pack(b)
    assert list(ring.unpack([pa, pb])) == [a, b]
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
    c = data.draw(st.tuples(*[st.integers(0, MAX_EXPONENT - e) for e in a]))
    assert pa + ring.pack(c) == ring.pack(tuple(map(add, a, c)))
    assert ring.from_dict({a: 1}).support() == [k for k, e in enumerate(a)
                                               if e]


@settings(max_examples=300, deadline=None)
@given(_monomial_pairs(), st.booleans())
def test_trial_division_refuses_a_shift_with_a_negative_exponent(case, below):
    """Dividing the monomial ``a`` by the monomial ``b`` gives ``a - b``
    when no exponent of ``b`` is larger, else None; ``below`` lowers
    ``b`` to at most ``a`` in every exponent so both outcomes occur."""
    ring, a, b = case
    if below:
        b = tuple(map(min, a, b))
    factor = _Factor(ring.from_dict({b: 1}), 0)
    quotient = _exact_quotient(ring.from_dict({a: 1}), factor)
    if any(map(lambda x, y: x < y, a, b)):
        assert quotient is None
    else:
        assert quotient.terms() == [(tuple(map(sub, a, b)), 1)]


def test_trial_division_past_the_exponent_limit_is_a_miss():
    """Dividing ``x1 * x2^MAX_EXPONENT`` by ``x1 - x2`` leaves the
    remainder ``x2^(MAX_EXPONENT + 1)``, past the limit: a term no
    multiple of a divisor of the numerator reaches, so the division
    misses, as sympy's does, and builds no such term."""
    ring = RINGS[2]
    factor = _Factor(ring.from_dict({(1, 0): 1, (0, 1): -1}), 0)
    assert _exact_quotient(ring.from_dict({(1, MAX_EXPONENT): 1}),
                           factor) is None


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
    quotient of a product (a hit: the leading-term test made before any
    copy never rejects a true divisor), and for a product plus a remainder
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
    near = ((divisor * factor.lead_coeff
             + ring.from_dict({divisor.monoms()[0]: 1}))
            * ring.from_dict({shift: 1}))
    for num in (product + remainder, near):
        expected_q, expected_r = to_sympy(num).div(to_sympy(divisor))
        result = _exact_quotient(num, factor)
        if expected_r:
            assert result is None
        else:
            assert _same(result, expected_q)


def test_a_first_step_miss_builds_no_heap(monkeypatch):
    """The leading monomial and coefficient are tested before the
    numerator is copied or heapified: ``x1 + 1/3`` (primitive form
    ``3*x1 + 1``) cannot divide ``x2^2 + 1`` (``x1`` does not divide
    ``x2^2``) nor ``x1 + 5`` (3 does not divide 1), and neither miss
    builds a heap; the hit ``3*x1*x2 + x2`` builds one."""
    ring, heaps = RINGS[2], []
    heapify = heapq.heapify

    def counting(heap):
        heaps.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(heapq, "heapify", counting)
    factor = _Factor(ring.from_dict({(1, 0): 1, (0, 0): Fraction(1, 3)}), 0)
    assert factor.lead_coeff == 3
    for num in ({(0, 2): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 5}):
        assert _exact_quotient(ring.from_dict(num), factor) is None
    assert heaps == []
    assert _exact_quotient(ring.from_dict({(1, 1): 3, (0, 1): 1}),
                           factor) == ring.from_dict({(0, 1): 3})
    assert heaps == [2]


@settings(max_examples=200, deadline=None)
@given(_ring_polys(how_many=1), st.booleans())
def test_diff_agrees_with_the_terms(case, integral):
    """``Poly.diff`` equals differentiating ``terms()`` term by term,
    over the denominator 1 (the path without a gcd) and over others."""
    count, (a,) = case
    if integral:
        a = a * a.den
        assert a.den == 1
    for position in range(count):
        expected = {}
        for monom, c in a.terms():
            e = monom[position]
            if e:
                expected[monom[:position] + (e - 1,)
                         + monom[position + 1:]] = c * e
        assert a.diff(position) == a.ring.from_dict(expected)


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


def _cofactor(poly):
    """``poly`` divided by its monomial content, as integer terms keyed
    by exponent tuples."""
    shift = tuple(map(min, *poly.monoms()))
    return {tuple(map(sub, m, shift)): int(c * poly.den)
            for m, c in poly.terms()}


def _sympy_factor_list(poly):
    content, factors = to_sympy(poly).factor_list()
    return (Fraction(int(content.numerator), int(content.denominator)),
            [(from_sympy(poly.ring, f), e) for f, e in factors])


def _unordered(factorisation):
    """A ``factor_list`` result with its factors as a multiset."""
    content, factors = factorisation
    return content, Counter(factors)


@st.composite
def _non_monomials(draw, count, how_many):
    """``how_many`` polynomials of ``RINGS[count]`` with two terms or
    more, in up to four generators of degree at most two each."""
    ring = RINGS[count]
    monoms = st.tuples(*[st.integers(0, 2)] * min(count, 4),
                       *[st.just(0)] * max(count - 4, 0))
    return [ring.from_dict(draw(st.dictionaries(monoms, _nonzero, min_size=2,
                                                max_size=4)))
            for _ in range(how_many)]


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 6).flatmap(lambda count: _non_monomials(count, 2)),
       st.booleans())
def test_products_and_squares_are_never_certified(pair, square):
    """An explicit product of two non-constant polynomials, or a square,
    is never certified irreducible (so ``factor_list`` hands it to
    sympy)."""
    g, h = pair
    assert not _irreducible(_cofactor(g * g if square else g * h))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda count: _non_monomials(count, 1)))
def test_certified_polynomials_are_irreducible_for_sympy(case):
    """Whenever the certificate accepts a cofactor, sympy factors it into
    one factor with exponent 1; either way ``factor_list`` gives sympy's
    content and factors."""
    (poly,) = case
    if _irreducible(_cofactor(poly)):
        cofactor = poly.ring.from_dict(_cofactor(poly))
        _content, factors = to_sympy(cofactor).factor_list()
        assert [e for _f, e in factors] == [1]
    assert _unordered(poly.factor_list()) == \
        _unordered(_sympy_factor_list(poly))


# The kinetic determinants the rational_geometry benchmark workload
# factors, in the generators of an n = 3 context.
WORKLOAD_DETERMINANTS = ("q2^2 + 67/12", "q2^2 + 169/30", "q2^2 + 140/29",
                         "(q1^2 + 29/5)*(q3^2 + 4) - 1")

_CERTIFY_PROBE = """
import json, sys
from invlag.exprcore import ExprContext
ctx = ExprContext(3)
out = []
for text in sys.argv[1:]:
    content, factors = ctx.parse(text).num.factor_list()
    out.append([str(content), [[f.terms(), e] for f, e in factors]])
print(json.dumps([out, "sympy" in sys.modules], default=str))
"""


def test_workload_determinants_are_certified_without_sympy():
    """The four workload determinants factor in a fresh interpreter
    without loading sympy, into sympy's answer."""
    env = dict(os.environ)
    package_parent = os.path.dirname(os.path.dirname(invlag.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_parent, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _CERTIFY_PROBE, *WORKLOAD_DETERMINANTS],
        capture_output=True, text=True, check=True, timeout=120, env=env)
    factored, sympy_loaded = json.loads(done.stdout)
    assert not sympy_loaded
    ctx = ExprContext(3)
    for text, (content, factors) in zip(WORKLOAD_DETERMINANTS, factored):
        poly = ctx.parse(text).num
        assert _irreducible(_cofactor(poly))
        expected_content, expected = _sympy_factor_list(poly)
        assert content == str(expected_content)
        assert factors == json.loads(json.dumps(
            [[f.terms(), e] for f, e in expected], default=str))


def _context_poly(text):
    return ExprContext(2).parse(text).num


def test_monomial_content_keeps_sympys_content_and_order(monkeypatch):
    """``q1*(q2^2+3)`` (and a scaled variant) is certified in-house and
    comes back with sympy's content and factors, ``q2^2 + 3`` and
    ``q1``, in any order."""
    converted = []
    monkeypatch.setattr(poly_module, "_to_sympy", converted.append)
    for text in ("q1*(q2^2 + 3)", "-2/3*q1^2*v2*(q2^2 + 3*q1)"):
        poly = _context_poly(text)
        assert _unordered(poly.factor_list()) == \
            _unordered(_sympy_factor_list(poly))
    assert converted == []
    content, factors = _context_poly("q1*(q2^2 + 3)").factor_list()
    assert content == 1
    assert sorted((str(to_sympy(f)), e) for f, e in factors) == [
        ("q1", 1), ("q2**2 + 3", 1)]


@pytest.mark.parametrize("text", [
    "q1^4 + 1", "(q1^2 + 2)*(q2^2 + 3)", "(q1^2 + 1)^2",
    "(q1^2 + 5*q1*q2 + 1)^2"])
def test_uncertified_polynomials_fall_back_to_sympy(text, monkeypatch):
    """An irreducible polynomial no line and prime certifies (``x^4 + 1``
    splits modulo every prime), a product and squares go to sympy, and
    the answer is sympy's. The last square has a line whose image is a
    fourth power modulo one of the primes: only the squarefree test
    keeps that prime from excluding the factor degree 2."""
    poly = _context_poly(text)
    assert not _irreducible(_cofactor(poly))
    converted = []

    def counting(p):
        converted.append(p)
        return to_sympy(p)
    monkeypatch.setattr(poly_module, "_to_sympy", counting)
    assert poly.factor_list() == _sympy_factor_list(poly)
    assert converted == [poly]
