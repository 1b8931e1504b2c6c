"""Conversions between ``invlag.poly`` polynomials and sympy's, for the
tests that take sympy's polynomial rings over QQ as the reference.

Both directions go through the public ``terms()`` and ``from_dict``, so
a reference computed on the converted polynomials does not share code
with what it checks.
"""

from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.rings import ring


def sympy_ring(poly_ring):
    """sympy's ring over QQ in the generators of ``poly_ring``."""
    return ring(poly_ring.symbols, QQ)[0]


def to_sympy(poly):
    return sympy_ring(poly.ring).from_dict(
        {monom: QQ(c.numerator, c.denominator) for monom, c in poly.terms()})


def from_sympy(poly_ring, element):
    return poly_ring.from_dict(
        {monom: Fraction(int(c.numerator), int(c.denominator))
         for monom, c in element.terms()})
