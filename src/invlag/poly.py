"""Sparse multivariate polynomials over QQ, stored with integer coefficients.

A polynomial is a map from packed monomials to nonzero ``int``
coefficients over one positive ``int`` denominator that is coprime to
their content (the gcd of the coefficients). That representation is
unique, so equality and hashing compare it directly, and arithmetic
runs on Python integers with one gcd per result to restore it. Every
sum and every product of two polynomials, ``+``, ``-``, ``*`` and the
squarings of ``**`` included, is a sum of products
(``sum_of_products``): one accumulation loop over all its terms and
pairs into one integer map, so its bookkeeping is paid once per sum,
not once per product.

A monomial's exponent vector is packed into one ``int`` key (Monagan
and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", 2007): a field of ``WIDTH`` bits per
generator, the first generator most significant, whose top bit is a
guard bit no key sets, so an exponent is at most ``MAX_EXPONENT``. Lex
order is integer order, the monomial of a product is the sum of the
keys, and a field is read with a shift (``PolyRing.shifts``) and
``FIELD_MASK``. A product or a power past the limit raises
:class:`invlag.exprcore.LimitError`. Exponent tuples appear only at
the boundary: ``from_dict`` and ``pack`` take them, ``terms()``,
``monoms()`` and ``unpack`` return them, and the factoriser and the
sympy hand-off unpack to them.

The surface is the part of a polynomial-ring interface the expression
kernel needs: a :class:`PolyRing` with its generators, ``zero``,
``one``, ``ground_new``, ``from_dict``, ``from_ints`` (packed keys),
``sum_of_products``, ``pack`` and ``unpack``; and for a :class:`Poly`
``+ - * **`` (also with ``int`` and ``Fraction`` operands), division by
a constant, ``diff``, ``degree``, ``support``, ``LC``, ``is_ground``,
``quo_ground``, ``terms()`` (``Fraction`` coefficients) and
``monoms()`` in descending lex order, ``len``, ``==``, ``hash`` and
``factor_list``. A monomial is factored
here (its factors are its variables), and so is a monomial times a
cofactor that an exact irreducibility certificate accepts (restriction
to lines and distinct-degree factorisation modulo primes, see
``_irreducible``); any other polynomial is handed to sympy's
factoriser, which is imported on that first need only. Either way the
content and the factors are sympy's; their order is not, and no caller
reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from struct import Struct

WIDTH = 16  # bits per field, the guard bit included: one struct "H"
FIELD_MASK = (1 << WIDTH) - 1
MAX_EXPONENT = (1 << WIDTH - 1) - 1  # the largest exponent below the guard bit


def limit_error():
    """The error for an exponent above ``MAX_EXPONENT``."""
    from .exprcore import LimitError  # exprcore imports this module first
    return LimitError(f"an exponent would exceed the limit {MAX_EXPONENT}")


class PolyRing:
    """The polynomials over QQ in the generators ``symbols``, in that
    order, in lex order; ``shifts[k]`` is the bit offset of generator
    ``k``'s field and ``guard`` the mask of every guard bit."""

    __slots__ = ("symbols", "ngens", "shifts", "guard", "_fields", "gens",
                 "zero", "one")

    def __init__(self, symbols):
        self.symbols = tuple(symbols)
        self.ngens = len(self.symbols)
        self.shifts = tuple(range(WIDTH * (self.ngens - 1), -1, -WIDTH))
        self.guard = sum((1 << WIDTH - 1) << shift for shift in self.shifts)
        self._fields = Struct(f">{self.ngens}H")  # a key's big-endian bytes
        self.zero = Poly(self, {}, 1)
        self.one = Poly(self, {0: 1}, 1)
        self.gens = tuple(Poly(self, {1 << shift: 1}, 1)
                          for shift in self.shifts)

    def __repr__(self):
        return f"PolyRing({', '.join(self.symbols)})"

    def pack(self, monom) -> int:
        """The key of an exponent tuple."""
        if max(monom, default=0) > MAX_EXPONENT:
            raise limit_error()
        return int.from_bytes(self._fields.pack(*monom), "big")

    def unpack(self, keys):
        """An iterator over the exponent tuples of ``keys``, in order."""
        size = self._fields.size
        return self._fields.iter_unpack(
            b"".join([key.to_bytes(size, "big") for key in keys]))

    def ground_new(self, value) -> "Poly":
        """The constant polynomial ``value`` (an ``int`` or ``Fraction``)."""
        if not value:
            return self.zero
        return Poly(self, {0: value.numerator}, value.denominator)

    def from_dict(self, mapping) -> "Poly":
        """The polynomial with ``{exponent tuple: coefficient}`` terms,
        coefficients ``int`` or ``Fraction``; zero ones are dropped."""
        den = lcm(*(c.denominator for c in mapping.values()))
        return _reduced(self, {self.pack(m): c.numerator
                               * (den // c.denominator)
                               for m, c in mapping.items() if c}, den)

    def from_ints(self, coeffs: dict, den: int = 1) -> "Poly":
        """``coeffs / den`` for ``{key: int}`` terms and a positive
        ``den``, in lowest terms; zero terms are dropped."""
        return _reduced(self, {m: c for m, c in coeffs.items() if c}, den)

    def sum_of_products(self, singles, pairs) -> "Poly":
        """``sum(singles) + sum(a * b for a, b in pairs)`` in one pass:
        each term of a single and each product of a term of ``a`` by one
        of ``b`` is scaled to the lcm of the denominators other than 1
        and added into one integer map, the pairs in one loop with no
        call per pair. The exponent limit is checked, cancelled terms
        are dropped (if terms met) and one gcd is taken once, at the
        end."""
        den = 1  # by a loop: lcm(*lists) cost a product a fifth of its time
        for poly in singles:
            if poly.den != 1:
                den = lcm(den, poly.den)
        for a, b in pairs:
            if a.den != 1 or b.den != 1:
                den = lcm(den, a.den * b.den)
        coeffs, met = {}, 0
        get = coeffs.get
        for poly in singles:
            scale = den // poly.den
            met += len(poly.coeffs)
            if not coeffs and scale == 1:
                coeffs.update(poly.coeffs)
                continue
            for m, c in poly.coeffs.items():
                c *= scale
                v = get(m)
                coeffs[m] = c if v is None else v + c
        for a, b in pairs:
            scale = den // (a.den * b.den)
            a, b = a.coeffs, b.coeffs
            if len(a) < len(b):
                a, b = b, a
            met += len(a) * len(b)
            for m2, c2 in b.items():
                c2 *= scale
                for m1, c1 in a.items():
                    m = m1 + m2
                    v = get(m)
                    coeffs[m] = c1 * c2 if v is None else v + c1 * c2
        if reduce(or_, coeffs, 0) & self.guard:
            raise limit_error()
        if met != len(coeffs):  # terms met, and some may have cancelled
            coeffs = {m: c for m, c in coeffs.items() if c}
        return _reduced(self, coeffs, den)


def _reduced(ring: PolyRing, coeffs: dict, den: int) -> "Poly":
    """``coeffs / den`` for a positive ``den``, in lowest terms."""
    if den != 1:
        g = gcd(den, *coeffs.values())
        if g != 1:
            den //= g
            coeffs = {m: c // g for m, c in coeffs.items()}
    return Poly(ring, coeffs, den if coeffs else 1)


class Poly:
    """An immutable polynomial of a :class:`PolyRing`: ``coeffs`` maps
    packed monomials to nonzero ints, ``den`` is a positive int coprime
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
        return not coeffs or (len(coeffs) == 1 and 0 in coeffs)

    @property
    def LC(self) -> Fraction:
        """The leading coefficient in lex order (0 for zero)."""
        if not self.coeffs:
            return Fraction(0)
        return Fraction(self.coeffs[max(self.coeffs)], self.den)

    def degree(self, position: int):
        """The degree in one generator; ``-inf`` for zero, as in sympy."""
        shift = self.ring.shifts[position]
        return max((m >> shift & FIELD_MASK for m in self.coeffs),
                   default=float("-inf"))

    def support(self) -> list:
        """The generator positions some term uses, in order."""
        union = reduce(or_, self.coeffs, 0)
        return [p for p, e in enumerate(next(self.ring.unpack([union]))) if e]

    def terms(self):
        """``(exponent tuple, Fraction)`` pairs in descending lex order."""
        keys, den = sorted(self.coeffs, reverse=True), self.den
        return [(monom, Fraction(self.coeffs[m], den))
                for m, monom in zip(keys, self.ring.unpack(keys))]

    def monoms(self):
        """The exponent tuples in descending lex order."""
        return list(self.ring.unpack(sorted(self.coeffs, reverse=True)))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.coeffs.items()},
                    self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.sum_of_products((self, other), ())

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.sum_of_products((self, -other), ())

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.sum_of_products((-self, other), ())

    def __mul__(self, other):
        if type(other) is not Poly:
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
        return self.ring.sum_of_products((), ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return self.ring.one
        if exponent == 1 or not self.coeffs:
            return self
        # The OR of the keys bounds every exponent, checked up front: a
        # power past the limit would be built before it showed
        union = reduce(or_, self.coeffs, 0)
        if max(next(self.ring.unpack([union]))) * exponent > MAX_EXPONENT:
            raise limit_error()
        if len(self.coeffs) == 1:
            ((m, c),) = self.coeffs.items()
            return Poly(self.ring, {m * exponent: c ** exponent},
                        self.den ** exponent)
        result, square = None, self
        while True:
            if exponent & 1:
                result = square if result is None else result * square
            exponent >>= 1
            if not exponent:
                return result
            square = square * square

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
        shift = self.ring.shifts[position]
        one, coeffs = 1 << shift, {}
        for m, c in self.coeffs.items():
            e = m >> shift & FIELD_MASK
            if e:
                coeffs[m - one] = c * e
        if not coeffs:
            return self.ring.zero
        if self.den == 1:
            return Poly(self.ring, coeffs, 1)
        return _reduced(self.ring, coeffs, self.den)

    # -- factorisation -----------------------------------------------------

    def factor_list(self):
        """``(content, [(factor, exponent), ...])`` with irreducible
        factors whose product times ``content`` is ``self``: primitive
        integer factors with a positive leading coefficient. A monomial
        is factored into its variables, in generator order; a monomial
        times a cofactor that :func:`_irreducible` certifies, into those
        variables and then the cofactor; anything else goes to sympy."""
        coeffs, ring = self.coeffs, self.ring
        if len(coeffs) <= 1:
            if not coeffs:
                return Fraction(0), []
            ((m, c),) = coeffs.items()
            monom = next(ring.unpack([m]))
            return (Fraction(c, self.den),
                    [(ring.gens[i], e) for i, e in enumerate(monom) if e])
        shift = tuple(map(min, *ring.unpack(coeffs)))
        low = ring.pack(shift)
        cofactor = {m - low: c for m, c in coeffs.items()}
        if _irreducible(dict(zip(ring.unpack(cofactor), cofactor.values()))):
            content = gcd(*coeffs.values())
            if coeffs[max(coeffs)] < 0:
                content = -content
            factors = [(ring.gens[i], e) for i, e in enumerate(shift) if e]
            factors.append((Poly(ring, {m: c // content
                                        for m, c in cofactor.items()}, 1), 1))
            return Fraction(content, self.den), factors
        content, factors = _to_sympy(self).factor_list()
        return (Fraction(int(content.numerator), int(content.denominator)),
                [(_from_sympy(self.ring, f), e) for f, e in factors])


# -- irreducibility certificate -----------------------------------------------
#
# A polynomial f of total degree d over QQ is restricted to lines
# x = a + b*s with integer a, b at which its leading homogeneous form does
# not vanish, so the image f(a + b*s) has degree d, and any factorisation
# f = g*h restricts to one of the image with the degrees of g and h. The
# image is factored by degree modulo primes that keep its degree and
# leave it squarefree (distinct-degree factorisation; von zur Gathen and
# Gerhard, Modern Computer Algebra, ch. 14): the degree of a factor over
# QQ is a sum of degrees of factors mod p. When no proper sum survives
# every line and prime tried, f is irreducible. The lines and primes are
# fixed, so the answer never depends on anything but f.

# Line k is tried with the primes _PRIMES[k*_PER_LINE:(k+1)*_PER_LINE]: a
# univariate polynomial has images with one splitting field on every
# line, so only fresh primes tell it more.
_LINES = 4
_PER_LINE = 6
_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
           163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227)


def _line(position: int, index: int):
    """``(a, b)`` of generator ``position`` on the line ``index``; every
    ``b`` is nonzero."""
    return ((position + 1) * (2 * index + 3) * 37 % 23 - 11,
            (position + 1) * (index + 2) * 19 % 13 + 1)


def _irreducible(coeffs: dict) -> bool:
    """Whether the non-constant integer polynomial ``coeffs`` is
    certified irreducible over QQ; False means no certificate was found,
    not that it is reducible."""
    degree = max(map(sum, coeffs))
    if degree == 1:
        return True
    active = [i for i in range(len(next(iter(coeffs))))
              if any(m[i] for m in coeffs)]
    possible = (1 << degree + 1) - 1  # every factor degree 0..d
    certified = 1 | 1 << degree
    for index in range(_LINES):
        image = _restrict(coeffs, active, index, degree)
        if image is None:
            continue
        lead = image[-1]
        for p in _PRIMES[index * _PER_LINE:(index + 1) * _PER_LINE]:
            if not lead % p:
                continue
            degrees = _factor_degrees([c % p for c in image], p)
            if degrees is None:
                continue
            sums = 1
            for k in degrees:
                sums |= sums << k
            possible &= sums
            if possible == certified:
                return True
    return False


def _restrict(coeffs: dict, active, index: int, degree: int):
    """The integer coefficients, lowest first, of ``coeffs`` on the line
    ``index``, or None when the line lowers its degree."""
    powers = {}
    for i in active:
        a, b = _line(i, index)
        top = max(m[i] for m in coeffs)
        table = [[1]]
        for _ in range(top):
            prev = table[-1]
            nxt = [a * c for c in prev] + [0]
            for k, c in enumerate(prev):
                nxt[k + 1] += b * c
            table.append(nxt)
        powers[i] = table
    image = [0] * (degree + 1)
    for m, c in coeffs.items():
        term = [c]
        for i in active:
            if m[i]:
                term = _mul_dense(term, powers[i][m[i]])
        for k, v in enumerate(term):
            image[k] += v
    return image if image[degree] else None


def _mul_dense(a: list, b: list, p: int = 0) -> list:
    """The product of two coefficient lists, lowest first, reduced mod
    ``p`` unless it is 0."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out] if p else out


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a: list, m: list, p: int):
    """Quotient and trimmed remainder of ``a`` by a monic ``m`` over
    GF(p), ``a``'s coefficients already reduced."""
    a = a[:]
    dm = len(m) - 1
    q = [0] * max(len(a) - dm, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = a[shift + dm]
        if c:
            for k in range(dm + 1):
                a[shift + k] = (a[shift + k] - c * m[k]) % p
    return q, _trim(a[:dm])


def _monic(a: list, p: int) -> list:
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def _gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over GF(p) of two trimmed lists, not both empty."""
    while b:
        a, b = b, _divmod(a, _monic(b, p), p)[1]
    return _monic(a, p)


def _factor_degrees(f: list, p: int):
    """The degrees of the irreducible factors of ``f`` over GF(p), by
    distinct-degree factorisation, or None when ``f`` is not squarefree
    there; the leading coefficient of ``f`` is nonzero mod ``p``."""
    f = _monic(f, p)
    derivative = _trim([k * c % p for k, c in enumerate(f)][1:])
    if len(_gcd(f, derivative, p)) > 1:
        return None
    degrees = []
    h = [0, 1]  # x**(p**i) mod f
    i = 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        h = _power_p(h, f, p)
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _gcd(f, _trim(diff), p)
        if len(g) > 1:
            degrees.extend([i] * ((len(g) - 1) // i))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def _power_p(a: list, m: list, p: int) -> list:
    """``a ** p mod m`` over GF(p), ``m`` monic."""
    exponent, result = p, [1]
    while exponent:
        if exponent & 1:
            result = _divmod(_mul_dense(result, a, p), m, p)[1]
        exponent >>= 1
        if exponent:
            a = _divmod(_mul_dense(a, a, p), m, p)[1]
    return result


def _to_sympy(poly: Poly):
    """``poly`` in sympy's ring over QQ in the same generators; this
    imports sympy."""
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    return ring(poly.ring.symbols, QQ)[0].from_dict(
        {monom: QQ(c, poly.den) for monom, c
         in zip(poly.ring.unpack(poly.coeffs), poly.coeffs.values())})


def _from_sympy(ring: PolyRing, element) -> Poly:
    """A sympy ring element over QQ in ``ring``'s generators."""
    return ring.from_dict({m: Fraction(int(c.numerator), int(c.denominator))
                           for m, c in element.items()})
