"""Sparse multivariate polynomials over QQ, stored with integer coefficients.

A polynomial is a map from exponent tuples to nonzero ``int``
coefficients over one positive ``int`` denominator that is coprime to
their content (the gcd of the coefficients). That representation is
unique, so equality and hashing compare it directly, and arithmetic
runs on Python integers with one gcd per result to restore it.

The surface is the part of a polynomial-ring interface the expression
kernel needs: a :class:`PolyRing` with its generators, ``zero``,
``one``, ``ground_new``, ``from_dict`` and ``from_ints``; and for a
:class:`Poly` ``+ - * **`` (also with ``int`` and ``Fraction``
operands), division by a constant, ``diff``, ``degree``, ``LC``,
``is_ground``, ``quo_ground``, ``terms()`` (``Fraction`` coefficients)
and ``monoms()`` in descending lex order, ``len``, ``==``, ``hash`` and
``factor_list``. A monomial is factored here (its factors are its
variables); any other polynomial is handed to sympy's factoriser, which
is imported on that first need only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add


class PolyRing:
    """The polynomials over QQ in the generators ``symbols``, in that
    order; exponent tuples compare lexicographically."""

    __slots__ = ("symbols", "ngens", "gens", "zero", "one")

    def __init__(self, symbols):
        self.symbols = tuple(symbols)
        self.ngens = count = len(self.symbols)
        self.zero = Poly(self, {}, 1)
        self.one = Poly(self, {(0,) * count: 1}, 1)
        self.gens = tuple(
            Poly(self, {tuple(int(i == k) for i in range(count)): 1}, 1)
            for k in range(count))

    def __repr__(self):
        return f"PolyRing({', '.join(self.symbols)})"

    def ground_new(self, value) -> "Poly":
        """The constant polynomial ``value`` (an ``int`` or ``Fraction``)."""
        if not value:
            return self.zero
        return Poly(self, {(0,) * self.ngens: value.numerator},
                    value.denominator)

    def from_dict(self, mapping) -> "Poly":
        """The polynomial with ``{exponent tuple: coefficient}`` terms,
        coefficients ``int`` or ``Fraction``; zero ones are dropped."""
        den = lcm(*(c.denominator for c in mapping.values()))
        return _reduced(self, {m: c.numerator * (den // c.denominator)
                               for m, c in mapping.items() if c}, den)

    def from_ints(self, coeffs: dict, den: int = 1) -> "Poly":
        """``coeffs / den`` for ``{exponent tuple: int}`` terms and a
        positive ``den``, in lowest terms; zero terms are dropped."""
        return _reduced(self, {m: c for m, c in coeffs.items() if c}, den)


def _reduced(ring: PolyRing, coeffs: dict, den: int) -> "Poly":
    """``coeffs / den`` for a positive ``den``, in lowest terms."""
    if den != 1:
        g = gcd(den, *coeffs.values())
        if g != 1:
            den //= g
            coeffs = {m: c // g for m, c in coeffs.items()}
    return Poly(ring, coeffs, den if coeffs else 1)


def _accumulate(coeffs: dict, other: dict, scale: int = 1) -> dict:
    """``coeffs + scale * other`` in place, dropping cancelled terms."""
    get = coeffs.get
    for m, c in other.items():
        if scale != 1:
            c *= scale
        v = get(m)
        if v is None:
            coeffs[m] = c
        elif v == -c:
            del coeffs[m]
        else:
            coeffs[m] = v + c
    return coeffs


def _mul_terms(a: dict, b: dict) -> dict:
    """The integer product of two coefficient maps."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((m2, c2),) = b.items()
        return {tuple(map(add, m1, m2)): c1 * c2 for m1, c1 in a.items()}
    product = {}
    get = product.get
    for m2, c2 in b.items():
        for m1, c1 in a.items():
            m = tuple(map(add, m1, m2))
            v = get(m)
            product[m] = c1 * c2 if v is None else v + c1 * c2
    if len(product) < len(a) * len(b):  # terms met: some may cancel
        return {m: c for m, c in product.items() if c}
    return product


class Poly:
    """An immutable polynomial of a :class:`PolyRing`: ``coeffs`` maps
    exponent tuples to nonzero ints, ``den`` is a positive int coprime
    to their content, and the value is ``coeffs / den``."""

    __slots__ = ("ring", "coeffs", "den", "_hash")

    def __init__(self, ring: PolyRing, coeffs: dict, den: int):
        self.ring = ring
        self.coeffs = coeffs
        self.den = den
        self._hash = None

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.ground_new(other)
        return None

    # -- structure ---------------------------------------------------------

    def __len__(self):
        return len(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.coeffs.items())))
        return self._hash

    def __repr__(self):
        return f"Poly({self.terms()!r})"

    @property
    def is_ground(self) -> bool:
        coeffs = self.coeffs
        return not coeffs or (len(coeffs) == 1 and not any(next(iter(coeffs))))

    @property
    def LC(self) -> Fraction:
        """The leading coefficient in lex order (0 for zero)."""
        if not self.coeffs:
            return Fraction(0)
        return Fraction(self.coeffs[max(self.coeffs)], self.den)

    def degree(self, position: int):
        """The degree in one generator; ``-inf`` for zero, as in sympy."""
        return max((m[position] for m in self.coeffs), default=float("-inf"))

    def terms(self):
        """``(exponents, Fraction)`` pairs in descending lex order."""
        den = self.den
        return [(m, Fraction(c, den))
                for m, c in sorted(self.coeffs.items(), reverse=True)]

    def monoms(self):
        return sorted(self.coeffs, reverse=True)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.coeffs.items()},
                    self.den)

    def _sum(self, other, sign: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.coeffs:
            return self
        a, b = self.den, other.den
        if a == b:
            if sign == 1 and len(self.coeffs) < len(other.coeffs):
                coeffs = _accumulate(dict(other.coeffs), self.coeffs)
            else:
                coeffs = _accumulate(dict(self.coeffs), other.coeffs, sign)
            return _reduced(self.ring, coeffs, a)
        den = lcm(a, b)
        scale = den // a
        coeffs = ({m: c * scale for m, c in self.coeffs.items()} if scale != 1
                  else dict(self.coeffs))
        return _reduced(self.ring,
                        _accumulate(coeffs, other.coeffs, sign * (den // b)),
                        den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self.ring.zero
            g = gcd(other, self.den)
            scale = other // g
            return Poly(self.ring,
                        {m: c * scale for m, c in self.coeffs.items()},
                        self.den // g)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return self.ring.zero
        return _reduced(self.ring, _mul_terms(self.coeffs, other.coeffs),
                        self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return self.ring.one
        if exponent == 1 or not self.coeffs:
            return self
        # Gauss's lemma: content(p**k) = content(p)**k, still coprime to
        # den**k, so the integer power needs no reduction.
        if len(self.coeffs) == 1:
            ((m, c),) = self.coeffs.items()
            return Poly(self.ring,
                        {tuple(e * exponent for e in m): c ** exponent},
                        self.den ** exponent)
        den, result, square = self.den ** exponent, None, self.coeffs
        while True:
            if exponent & 1:
                result = (square if result is None
                          else _mul_terms(result, square))
            exponent >>= 1
            if not exponent:
                break
            square = _mul_terms(square, square)
        return Poly(self.ring, result, den)

    def quo_ground(self, value) -> "Poly":
        """``self / value`` for a nonzero ``int`` or ``Fraction``."""
        p, q = value.numerator, value.denominator
        if p < 0:
            p, q = -p, -q
        if p == 1 and q == 1:
            return self
        return _reduced(self.ring, {m: c * q for m, c in self.coeffs.items()},
                        self.den * p)

    def __truediv__(self, other):
        """Division by a nonzero ``int`` or ``Fraction`` only."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        return self.quo_ground(other)

    # -- calculus ----------------------------------------------------------

    def diff(self, position: int) -> "Poly":
        """The partial derivative in the generator at ``position``."""
        coeffs = {}
        for m, c in self.coeffs.items():
            e = m[position]
            if e:
                coeffs[m[:position] + (e - 1,) + m[position + 1:]] = c * e
        return _reduced(self.ring, coeffs, self.den)

    # -- factorisation -----------------------------------------------------

    def factor_list(self):
        """``(content, [(factor, exponent), ...])`` with irreducible
        factors whose product times ``content`` is ``self``. A monomial
        is factored into its variables; anything else goes to sympy."""
        coeffs = self.coeffs
        if len(coeffs) <= 1:
            if not coeffs:
                return Fraction(0), []
            ((m, c),) = coeffs.items()
            gens = self.ring.gens
            return (Fraction(c, self.den),
                    [(gens[i], e) for i, e in enumerate(m) if e])
        content, factors = _to_sympy(self).factor_list()
        return (Fraction(int(content.numerator), int(content.denominator)),
                [(_from_sympy(self.ring, f), e) for f, e in factors])


def _to_sympy(poly: Poly):
    """``poly`` in sympy's ring over QQ in the same generators; this
    imports sympy."""
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    return ring(poly.ring.symbols, QQ)[0].from_dict(
        {m: QQ(c, poly.den) for m, c in poly.coeffs.items()})


def _from_sympy(ring: PolyRing, element) -> Poly:
    """A sympy ring element over QQ in ``ring``'s generators."""
    return ring.from_dict({m: Fraction(int(c.numerator), int(c.denominator))
                           for m, c in element.items()})
