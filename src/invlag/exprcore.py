"""Canonical multivariate rational expressions with a decidable zero test.

Everything downstream (geometric objects, condition residuals, linear
ansatz solving) eventually reduces to asking whether some expression is
identically zero. To make that decidable, every value here is a reduced
fraction of expanded multivariate polynomials over exact rationals:
two expressions are equal iff their canonical forms are structurally
identical, and ``is_zero`` is just a comparison with the zero polynomial.

Variables are identified by :class:`VarId` — the time variable, the
positions ``q<i>``, velocity/acceleration jets up to fourth order
(``v<i>`` is the order-1 jet of ``q<i>``), and named constant
parameters. An :class:`ExprContext` pins down the dimension ``n``, the
highest jet order, the parameter names and whether time occurs; all
expressions carry their context and refuse to mix with another one.

Every expression keeps its denominator only as its factorisation:
exponents over monic factors irreducible over QQ, interned per ring
(the ring's factor base, where ``intern`` is the one way a factor is
made). ``den`` multiplies the factorisation out through the base's
product cache. Reduced forms with a monic denominator are unique, and
with irreducible factors no operation needs a gcd to reach them. Each
step has one path:

* ``Expr(ctx, num, den)``, the one public constructor, always returns
  the canonical form: ``den`` is factored over the base with its
  leading coefficient divided out, and a zero ``den`` raises
  :class:`ZeroDenominatorError`. Operations build their results,
  already reduced, through the internal ``_factored``.
* ``over_factors`` is the one reduction: a numerator over a
  factorisation, reduced by exact trial division by those factors.
  Operations that know which factors can still divide their numerator
  try only those: a product adds exponents, a derivative raises the
  exponent of each factor that depends on the variable.
* ``lincomb`` is the one sum (``+`` and ``-`` are its two-term case):
  one integer pass over the lcm of the denominators, trial-dividing by
  the factors two or more terms reach at their top exponent only.
* ``subst`` substitutes the numerator and only the denominator factors
  the bindings touch, which may split or vanish; the untouched factors
  are kept as they are. Substitution and evaluation fold constant
  values in through one set of integer power tables
  (``_power_tables``).
* ``convert`` moves each factor to a context with more generators as
  it is: a factor irreducible over QQ stays irreducible there.

Only a polynomial from outside the base is factored with
``factor_list``, once per polynomial: a constructor's ``den``, a divisor
or the product of the substituted factors. :mod:`invlag.poly` factors
monomials and certifies irreducible cofactors itself and hands only the
rest to sympy, so a kinetic determinant such as ``q1^2*q3^2 + 4*q1^2 +
29/5*q3^2 + 111/5`` loads no sympy. The parser is one recursive
descent whose values are integer triples while every factor is a
generator or a constant; it gathers the triples of a sum into one
coefficient map, so a polynomial entry is built without a single
product. A factor that needs more turns its product into an ``Expr``,
read on with the ``Expr`` operators, which factor only a non-constant
divisor, so reading a polynomial factors nothing. The result is the
fraction a multivariate gcd would give, and no operation here calls
one.

The polynomials are :mod:`invlag.poly`'s: sparse, in lex order, with
integer coefficients over one denominator. The grammar, printing,
trial division, substitution, conversion, integration and evaluation
layers are implemented here, all on those integers: the printer, for
one, reads each coefficient off its integer and the one denominator
with one gcd, and each monomial's text off a table kept on the context
instance, which unpacks a monomial the first time the context prints
it.
"""

from __future__ import annotations

import heapq
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .poly import FIELD_MASK, MAX_EXPONENT, Poly, PolyRing, limit_error


# --------------------------------------------------------------------------
# errors


class ExprError(Exception):
    """Base class for every error raised by this module."""


class ExprSyntaxError(ExprError):
    """Malformed input text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExprSyntaxError):
    """An identifier that is neither a known variable nor a parameter."""


class JetOrderError(ExprSyntaxError):
    """A jet variable beyond the context's maximum derivative order."""


class ContextMismatchError(ExprError):
    """Operands built under different contexts were combined."""


class PoleError(ExprError):
    """Numeric evaluation hit a zero denominator."""


class ZeroDenominatorError(ExprError):
    """An operation produced an identically-zero denominator."""


class LimitError(ExprError):
    """An input or a result past a stated limit, such as ``MAX_EXPONENT``,
    ``MAX_NESTING`` or ``MAX_GENERATORS``."""


class NotPolynomialError(ExprError):
    """The expression is not polynomial in the requested variable."""

    def __init__(self, message: str, var: Optional["VarId"] = None):
        super().__init__(message)
        self.var = var


# --------------------------------------------------------------------------
# variable identities


_KINDS = frozenset({"time", "position", "jet", "parameter"})


class _VarIdFields(NamedTuple):
    kind: str
    index: int = 0
    order: int = 0


class VarId(_VarIdFields):
    """Identity of a single scalar variable.

    kind is one of ``time``, ``position``, ``jet``, ``parameter``;
    positions are exactly the order-0 jets (the invariant
    ``kind == "position" <=> order == 0`` is enforced), the order-1 jet
    of ``q<i>`` is the velocity ``v<i>``, and parameter indices are
    1-based positions in the owning context's parameter list.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int = 0, order: int = 0):
        if kind not in _KINDS:
            raise ValueError(f"unknown VarId kind {kind!r}")
        if kind == "time":
            if index != 0 or order != 0:
                raise ValueError("time carries no index or order")
        elif kind == "position":
            if index < 1:
                raise ValueError("position index must be >= 1")
            if order != 0:
                raise ValueError("positions have order 0")
        elif kind == "jet":
            if index < 1:
                raise ValueError("jet index must be >= 1")
            if not 1 <= order <= 4:
                raise ValueError("jet order must lie in 1..4")
        else:  # parameter
            if index < 1:
                raise ValueError("parameter index must be >= 1")
            if order != 0:
                raise ValueError("parameters have order 0")
        return super().__new__(cls, kind, index, order)

    @staticmethod
    def time() -> "VarId":
        return VarId("time")

    @staticmethod
    def position(index: int) -> "VarId":
        return VarId("position", index)

    @staticmethod
    def jet(index: int, order: int) -> "VarId":
        if order == 0:
            return VarId("position", index)
        return VarId("jet", index, order)

    @staticmethod
    def parameter(index: int) -> "VarId":
        return VarId("parameter", index)


# --------------------------------------------------------------------------
# contexts


_RESERVED_NAME = re.compile(r"^(?:t|(?:q|v|d[0-9]+q)[0-9]+)$")
_IDENT = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

# Rings are interned so that equal-by-value contexts share one ring object
# and one factor base.
_RING_CACHE: dict = {}


class _Factor:
    """A monic irreducible polynomial interned in a factor base.

    ``index`` orders factorisations, ``gens`` holds the generator
    positions the factor depends on, and ``lead`` (its leading packed
    monomial), ``lead_coeff`` and ``tail`` (its other terms) are what
    trial division reads. A monic polynomial's integer coefficients are
    primitive, with its denominator as leading coefficient, and those
    are the ones kept here.
    """

    __slots__ = ("poly", "index", "gens", "lead", "lead_coeff", "tail")

    def __init__(self, poly, index: int):
        self.poly = poly
        self.index = index
        self.gens = frozenset(poly.support())
        coeffs = poly.coeffs
        self.lead = max(coeffs)  # lex order is the order of the keys
        self.lead_coeff = coeffs[self.lead]
        self.tail = tuple(item for item in coeffs.items()
                          if item[0] != self.lead)


def _factorisation(exps: dict) -> tuple:
    """The tuple form of a ``{factor: exponent}`` map, in interning order."""
    if len(exps) < 2:
        return tuple(exps.items())
    return tuple(sorted(exps.items(), key=lambda pair: pair[0].index))


class _FactorBase:
    """The denominator factors met so far in one ring.

    ``factors`` interns each factor by its polynomial; ``products`` maps
    a factorisation (a tuple of ``(factor, exponent)`` pairs) to its
    expanded product, and ``factored`` maps every monic polynomial
    factored or multiplied out so far back to its factorisation. Only
    ``intern`` makes factors, and only of irreducible polynomials: trial
    division by a reducible factor would miss a proper divisor of it.
    """

    __slots__ = ("ring", "factors", "products", "factored")

    def __init__(self, ring):
        self.ring = ring
        self.factors = {}
        self.products = {(): ring.one}
        self.factored = {ring.one: ()}

    def product(self, fac: tuple):
        """The monic polynomial ``prod factor**exponent``."""
        poly = self.products.get(fac)
        if poly is None:
            poly = self.ring.one
            for factor, exponent in fac:
                poly = poly * factor.poly ** exponent
            self.products[fac] = poly
            self.factored.setdefault(poly, fac)
        return poly

    def intern(self, monic):
        """The factor of the monic irreducible polynomial ``monic``."""
        factor = self.factors.get(monic)
        if factor is None:
            factor = self.factors[monic] = _Factor(monic, len(self.factors))
            self.factored[monic] = ((factor, 1),)
        return factor

    def factorise(self, poly):
        """``(lc, fac)`` with ``poly == lc * product(fac)``, for nonzero
        ``poly``; ``factor_list`` runs once per monic polynomial."""
        lc = poly.LC
        if poly.is_ground:
            return lc, ()
        monic = poly if lc == 1 else poly.quo_ground(lc)
        fac = self.factored.get(monic)
        if fac is None:
            exps = {}
            for part, exponent in monic.factor_list()[1]:
                factor = self.intern(part.quo_ground(part.LC))
                exps[factor] = exps.get(factor, 0) + exponent
            fac = self.factored[monic] = _factorisation(exps)
        return lc, fac


def _ring_for(key):
    """The interned ring of a context key, with its generator names, the
    VarId of each generator, the map from name to generator key (its
    exponent field set to 1), the map from VarId to generator position
    and the ring's factor base."""
    cached = _RING_CACHE.get(key)
    if cached is not None:
        return cached
    uses_time, n, max_jet, parameters = key
    generators = [("t", VarId.time())] if uses_time else []
    for order in range(max_jet + 1):
        prefix = "q" if order == 0 else "v" if order == 1 else f"d{order}q"
        generators.extend((f"{prefix}{i}", VarId.jet(i, order))
                          for i in range(1, n + 1))
    generators.extend((name, VarId.parameter(k))
                      for k, name in enumerate(parameters, 1))
    names = tuple(name for name, _var in generators)
    varids = tuple(var for _name, var in generators)
    ring = PolyRing(names)
    cached = (ring, names, varids,
              dict(zip(names, (1 << shift for shift in ring.shifts))),
              {var: position for position, var in enumerate(varids)},
              _FactorBase(ring))
    _RING_CACHE[key] = cached
    return cached


# The most generators a context may have: each one's packed generator
# is as wide as the whole ring, so memory grows with the count squared.
MAX_GENERATORS = 4096


def check_generators(count: int):
    """Refuse a context of ``count`` generators, past ``MAX_GENERATORS``,
    before its ring is built."""
    if count > MAX_GENERATORS:
        raise LimitError(f"a context of {count} generators is above "
                         f"the limit {MAX_GENERATORS}")


class ExprContext:
    """Declares which variables exist: dimension, jets, parameters, time.

    Contexts compare (and hash) by value, and equal contexts share the
    same underlying polynomial ring, so expressions built under two
    equal contexts interoperate. Rings are interned by exactly that
    value, so equality is one identity test of the rings.
    """

    __slots__ = ("n", "max_jet_order", "parameters", "uses_time",
                 "_ring", "_gens", "_names", "_varids", "_name_key",
                 "_var_pos", "_base", "_monomial_text", "zero", "one")

    def __init__(self, n: int, parameters: Iterable[str] = (),
                 max_jet_order: int = 1, uses_time: bool = False):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if not 1 <= max_jet_order <= 4:
            raise ValueError("max_jet_order must lie in 1..4")
        parameters = tuple(parameters)
        check_generators(bool(uses_time) + n * (max_jet_order + 1)
                         + len(parameters))
        seen = set()
        for name in parameters:
            if not _IDENT.match(name):
                raise ValueError(f"invalid parameter name {name!r}")
            if _RESERVED_NAME.match(name):
                raise ValueError(f"parameter name {name!r} collides with a variable")
            if name in seen:
                raise ValueError(f"duplicate parameter name {name!r}")
            seen.add(name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_jet_order", max_jet_order)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "uses_time", bool(uses_time))
        ring, names, varids, name_key, var_pos, base = _ring_for(
            (self.uses_time, n, max_jet_order, parameters))
        object.__setattr__(self, "_ring", ring)
        object.__setattr__(self, "_gens", ring.gens)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_varids", varids)
        object.__setattr__(self, "_name_key", name_key)
        object.__setattr__(self, "_var_pos", var_pos)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_monomial_text", {})
        object.__setattr__(self, "zero", _factored(self, ring.zero, ()))
        object.__setattr__(self, "one", _factored(self, ring.one, ()))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ExprContext is immutable")

    def __eq__(self, other):
        if not isinstance(other, ExprContext):
            return NotImplemented
        return self._ring is other._ring

    def __hash__(self):
        return hash((self.n, self.max_jet_order, self.parameters, self.uses_time))

    def __repr__(self):
        bits = [f"n={self.n}", f"max_jet_order={self.max_jet_order}"]
        if self.parameters:
            bits.append(f"parameters={list(self.parameters)}")
        if self.uses_time:
            bits.append("uses_time=True")
        return f"ExprContext({', '.join(bits)})"

    # -- VarId constructors -------------------------------------------------

    # ``q`` and ``v`` return the ring's own VarIds, in generator order:
    # time (if used), then q1..qn, then v1..vn.
    def q(self, index: int) -> VarId:
        self._check_index(index)
        return self._varids[self.uses_time + index - 1]

    def v(self, index: int) -> VarId:
        self._check_index(index)
        return self._varids[self.uses_time + self.n + index - 1]

    def jet(self, index: int, order: int) -> VarId:
        self._check_index(index)
        if order > self.max_jet_order:
            raise ExprError(
                f"jet order {order} exceeds context maximum {self.max_jet_order}")
        return VarId.jet(index, order)

    def time_var(self) -> VarId:
        if not self.uses_time:
            raise ExprError("context has no time variable")
        return VarId.time()

    def param(self, name: str) -> VarId:
        try:
            return VarId.parameter(self.parameters.index(name) + 1)
        except ValueError:
            raise ExprError(f"unknown parameter {name!r}") from None

    def _check_index(self, index: int):
        if not 1 <= index <= self.n:
            raise ExprError(f"coordinate index {index} outside 1..{self.n}")

    # -- VarId <-> ring bookkeeping -----------------------------------------

    def display_name(self, var: VarId) -> str:
        return self._names[self.gen_index(var)]

    def _validate(self, var: VarId):
        if var.kind == "time":
            if not self.uses_time:
                raise ExprError("context has no time variable")
        elif var.kind in ("position", "jet"):
            self._check_index(var.index)
            if var.order > self.max_jet_order:
                raise ExprError(
                    f"jet order {var.order} exceeds context maximum {self.max_jet_order}")
        else:
            if not 1 <= var.index <= len(self.parameters):
                raise ExprError(f"parameter index {var.index} out of range")

    def gen_index(self, var: VarId) -> int:
        position = self._var_pos.get(var)
        if position is None:
            self._validate(var)  # raises: every legal variable is a generator
        return position

    def varid_of_gen(self, position: int) -> VarId:
        return self._varids[position]

    def all_varids(self):
        """Every variable legal in this context, in generator order."""
        return self._varids

    # -- expression constructors --------------------------------------------

    def const(self, value: Union[int, Fraction]) -> "Expr":
        return _factored(self, self._ring.ground_new(Fraction(value)), ())

    def var(self, var: VarId) -> "Expr":
        return _factored(self, self._gens[self.gen_index(var)], ())

    def parse(self, text: str) -> "Expr":
        return parse(text, self)

    def with_parameters(self, extra: Iterable[str]) -> "ExprContext":
        """A copy of this context with parameters appended at the end."""
        return ExprContext(self.n, self.parameters + tuple(extra),
                           self.max_jet_order, self.uses_time)


# --------------------------------------------------------------------------
# canonical expressions


def _exact_quotient(num, factor):
    """``num / factor.poly`` when the factor divides ``num``, else None.

    Long division of ``num``'s integer coefficients by the factor's
    primitive ones, taking the remainder's terms from a heap of negated
    keys in descending lex order. By Gauss's lemma a primitive divisor
    leaves an integer quotient, so the division stops at the first
    leading term that the factor's leading term does not divide, in its
    exponents or in its coefficient: with a single divisor, that term
    would stay in the remainder. With the guard bits set on ``top``,
    ``top - lead`` borrows a field's guard bit, and no more, exactly
    where ``lead`` has the larger exponent. A new remainder term past
    the exponent limit (a guard bit set) is a miss too: were the factor
    a divisor, no term would pass ``num``'s degree in any variable.
    """
    lead, lead_coeff = factor.lead, factor.lead_coeff
    guard = num.ring.guard
    coeffs = num.coeffs
    if coeffs:  # the first step's test, made before any copy
        top = max(coeffs)
        if (top | guard) - lead & guard != guard or coeffs[top] % lead_coeff:
            return None
    remainder = dict(coeffs)
    heap = [-monom for monom in remainder]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        top = -heapq.heappop(heap)
        coeff = remainder.pop(top, None)
        if coeff is None:  # cancelled since it was pushed
            continue
        shift = (top | guard) - lead
        if shift & guard != guard:
            return None
        shift ^= guard
        coeff, rest = divmod(coeff, lead_coeff)
        if rest:
            return None
        quotient[shift] = coeff
        for monom, c in factor.tail:
            key = monom + shift
            value = remainder.get(key)
            product = coeff * c
            if value is None:
                if key & guard:
                    return None
                remainder[key] = -product
                heapq.heappush(heap, -key)
            elif value == product:
                del remainder[key]
            else:
                remainder[key] = value - product
    # num / (P / lead_coeff) with P the primitive factor
    if lead_coeff != 1:
        quotient = {monom: c * lead_coeff for monom, c in quotient.items()}
    return num.ring.from_ints(quotient, num.den)


def _divide_out(num, exps: dict, factors):
    """Divide ``num`` by each of ``factors`` as often as it goes, at most
    the factor's exponent in ``exps`` times, and lower that exponent to
    match."""
    for factor in factors:
        exponent = exps[factor]
        while exponent and not num.is_ground:
            quotient = _exact_quotient(num, factor)
            if quotient is None:
                break
            num = quotient
            exponent -= 1
        if exponent:
            exps[factor] = exponent
        else:
            del exps[factor]
    return num


def _factored(ctx: "ExprContext", num, fac: tuple) -> "Expr":
    """The expression ``num / product(fac)``, already reduced; a zero
    ``num`` stands over 1."""
    if fac and not num.coeffs:
        fac = ()
    expr = object.__new__(Expr)
    _set_ctx(expr, ctx)
    _set_num(expr, num)
    _set_den_factors(expr, fac)
    return expr


def _product(ctx, a, fa, b, fb) -> "Expr":
    """``(a / product(fa)) * (b / product(fb))`` for reduced operands.

    Each numerator is trial-divided by the factors only the other
    operand's denominator has; a factor both denominators carry divides
    neither numerator, so it cannot divide their product.
    """
    if not (fa or fb) or not (a.coeffs and b.coeffs):
        return _factored(ctx, a * b, ())
    ea, eb = dict(fa), dict(fb)
    only_b = [factor for factor in eb if factor not in ea]
    only_a = [factor for factor in ea if factor not in eb]
    a = _divide_out(a, eb, only_b)
    b = _divide_out(b, ea, only_a)
    for factor, exponent in eb.items():
        ea[factor] = ea.get(factor, 0) + exponent
    return _factored(ctx, a * b, _factorisation(ea))


class Expr:
    """An immutable rational expression in canonical form.

    ``num`` is an expanded polynomial and ``den_factors`` its monic
    denominator, kept only as its factorisation: a tuple of ``(factor,
    exponent)`` pairs over the context's factor base, sorted by
    interning index, empty for 1. The two are coprime, and factors are
    interned, so equal values have equal numerators and identical
    tuples; equality and hashing compare exactly those. ``den``
    multiplies the factorisation out.
    """

    __slots__ = ("ctx", "num", "den_factors")

    def __new__(cls, ctx: ExprContext, num, den):
        """The canonical form of ``num / den`` for polynomials ``num``
        and ``den`` of ``ctx``'s ring.

        ``den`` is factored over the factor base, its leading
        coefficient divided out, and ``num`` is trial-divided by its
        factors (``over_factors``). A zero ``den`` raises
        :class:`ZeroDenominatorError`. Operations build their already
        reduced results without this step.
        """
        if not den:
            raise ZeroDenominatorError("denominator is identically zero")
        lc, fac = ctx._base.factorise(den)
        return over_factors(ctx, num.quo_ground(lc), fac)

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.coeffs

    @property
    def den(self):
        """The monic denominator polynomial."""
        return self.ctx._base.product(self.den_factors)

    def is_constant(self) -> bool:
        return self.num.is_ground and not self.den_factors

    def numerator_expr(self) -> "Expr":
        """The numerator polynomial as an expression of its own."""
        return _factored(self.ctx, self.num, ())

    def denominator_expr(self) -> "Expr":
        """The (monic) denominator polynomial as an expression of its own."""
        return _factored(self.ctx, self.den, ())

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ExprError("expression is not constant")
        return self.num.LC

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return (self.ctx == other.ctx and self.num == other.num
                and self.den_factors == other.den_factors)

    def __hash__(self):
        return hash((self.ctx, self.num, self.den_factors))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"Expr({to_text(self)})"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Expr):
            if other.ctx != self.ctx:
                raise ContextMismatchError(
                    "cannot combine expressions from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def __add__(self, other):
        """The two-term case of ``lincomb``."""
        if type(other) is not Expr:  # lincomb checks the context
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return lincomb(self.ctx, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return _factored(self.ctx, -self.num, self.den_factors)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return lincomb(self.ctx, (self, -other))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other):
        if type(other) is not Expr or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _product(self.ctx, self.num, self.den_factors,
                        other.num, other.den_factors)

    __rmul__ = __mul__

    def _reciprocal(self):
        """Numerator and denominator factorisation of ``1 / self``; the
        numerator of ``self`` is factored into the base here."""
        lc, fac = self.ctx._base.factorise(self.num)
        return (self.den if lc == 1 else self.den.quo_ground(lc)), fac

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDenominatorError("division by the zero expression")
        num, fac = other._reciprocal()
        return _product(self.ctx, self.num, self.den_factors, num, fac)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return self.ctx.one
        if exponent < 0:
            if self.is_zero():
                raise ZeroDenominatorError("zero raised to a negative power")
            num, fac = self._reciprocal()
            exponent = -exponent
        else:
            num, fac = self.num, self.den_factors
        return _factored(self.ctx, num ** exponent,
                         tuple((factor, k * exponent) for factor, k in fac))

    # -- calculus ------------------------------------------------------------

    def diff(self, var: Union[VarId, int]) -> "Expr":
        """Quotient rule over the factored denominator.

        ``var`` is a variable or its generator position (an ``int``).
        With ``P`` the product of the factors ``p`` (exponent ``k``)
        that depend on the variable, ``(N/D)' = (N' P - N sum_p k p'
        P/p) / (D P)``. A moving factor cannot divide that numerator (it
        divides neither ``N``, ``p'`` nor ``P/p``), so only the factors
        that do not depend on the variable are tried.
        """
        ctx = self.ctx
        if type(var) is int:
            if not 0 <= var < len(ctx._gens):
                raise ExprError(f"generator position {var} out of range")
            position = var
        else:
            position = ctx.gen_index(var)
        fac, coeffs = self.den_factors, self.num.coeffs
        if not fac and (not coeffs or len(coeffs) == 1 and 0 in coeffs):
            return ctx.zero  # a constant allocates nothing
        dnum = self.num.diff(position)
        if not fac:
            return _factored(ctx, dnum, ()) if dnum.coeffs else ctx.zero
        moving = [(factor, k) for factor, k in fac if position in factor.gens]
        if not (moving or dnum.coeffs):  # a zero derivative allocates nothing
            return ctx.zero
        exps = dict(fac)
        if moving:  # one fused pass, the small factors multiplied first
            base = ctx._base
            pairs = [(dnum, base.product(tuple((p, 1) for p, _k in moving)))]
            for factor, k in moving:
                others = tuple((other, 1) for other, _k in moving
                               if other is not factor)
                pairs.append((self.num, factor.poly.diff(position)
                              * base.product(others) * -k))
                exps[factor] = k + 1
            dnum = ctx._ring.sum_of_products((), pairs)
        still = [factor for factor, _k in fac if position not in factor.gens]
        return _factored(ctx, _divide_out(dnum, exps, still),
                         _factorisation(exps))

    def integrate_poly(self, var: VarId) -> "Expr":
        """Antiderivative; the denominator is free of ``var``, so none of
        its factors can divide the new numerator (it would divide the
        numerator's derivative, the old numerator)."""
        gi = self.ctx.gen_index(var)
        if self._den_uses(gi):
            raise NotPolynomialError(
                f"expression is not polynomial in {self.ctx.display_name(var)}",
                var)
        if self.is_zero():
            return self.ctx.zero
        coeffs = self.num.coeffs
        shift = self.ctx._ring.shifts[gi]
        raised = [(monom >> shift & FIELD_MASK) + 1 for monom in coeffs]
        if max(raised) > MAX_EXPONENT:
            raise limit_error()
        scale = lcm(*raised)
        lifted = {monom + (1 << shift): coeff * (scale // exponent)
                  for (monom, coeff), exponent in zip(coeffs.items(), raised)}
        return _factored(self.ctx,
                         self.ctx._ring.from_ints(lifted, self.num.den * scale),
                         self.den_factors)

    # -- substitution and evaluation ------------------------------------------

    def subst(self, bindings: Mapping[VarId, Union["Expr", int, Fraction]]) -> "Expr":
        """Simultaneous substitution.

        The numerator is substituted, and of the denominator only the
        factors whose variables are bound: a substituted factor may
        split or vanish, so their product is factored again (once per
        polynomial) when the numerator is divided by it. The untouched
        factors stay as they are and only reduce the new numerator by
        trial division.
        """
        if not bindings:
            return self
        ctx = self.ctx
        constants, others = {}, []
        for var, replacement in bindings.items():
            if isinstance(replacement, (int, Fraction)):
                replacement = ctx.const(replacement)
            elif not isinstance(replacement, Expr):
                raise ExprError(f"cannot substitute object {replacement!r}")
            elif replacement.ctx != ctx:
                raise ContextMismatchError(
                    "substituted expression belongs to another context")
            position = ctx.gen_index(var)
            if replacement.is_constant():
                constants[position] = replacement.num.LC
            else:
                others.append((position, replacement))
        numerator = _subst_poly(ctx, self.num, constants, others)
        bound = set(constants).union(position for position, _rep in others)
        kept, touched = [], []
        for pair in self.den_factors:
            (kept if pair[0].gens.isdisjoint(bound) else touched).append(pair)
        result = over_factors(ctx, numerator.num,
                              numerator.den_factors + tuple(kept))
        if not touched:
            return result
        denominator = ctx.one
        for factor, exponent in touched:
            denominator = denominator * _subst_poly(
                ctx, factor.poly, constants, others) ** exponent
        if denominator.is_zero():
            raise ZeroDenominatorError(
                "substitution produced an identically-zero denominator")
        return result / denominator

    def eval_num(self, point: Mapping[VarId, Union[int, Fraction]]) -> Fraction:
        ctx = self.ctx
        values = {ctx.gen_index(var): Fraction(value)
                  for var, value in point.items()}
        den_value = _eval_poly(ctx, self.den, values)
        if den_value == 0:
            raise PoleError("denominator vanishes at the evaluation point")
        if self.is_zero():
            return Fraction(0)
        return _eval_poly(ctx, self.num, values) / den_value

    # -- structure inspection --------------------------------------------------

    def _den_uses(self, position: int) -> bool:
        return any(position in factor.gens for factor, _k in self.den_factors)

    def depends_on(self, var: VarId) -> bool:
        position = self.ctx.gen_index(var)
        if self.num.coeffs and self.num.degree(position) > 0:
            return True
        return self._den_uses(position)

    def free_varids(self):
        """The set of variables this expression actually depends on."""
        used = set(self.num.support())
        for factor, _k in self.den_factors:
            used |= factor.gens
        return {self.ctx.varid_of_gen(p) for p in used}

    def is_polynomial_in(self, variables) -> bool:
        """True when the denominator is free of every listed variable
        (a single VarId is accepted as well)."""
        if isinstance(variables, VarId):
            variables = (variables,)
        return not any(self._den_uses(self.ctx.gen_index(var))
                       for var in variables)

    def homogeneous_parts(self, variables: Iterable[VarId]) -> dict:
        """Split into parts of homogeneous total degree in ``variables``.

        Requires the denominator to be free of those variables; returns
        a map ``degree -> Expr`` omitting zero parts.
        """
        ctx = self.ctx
        buckets: dict = {}
        for monom, degree in self._degrees(variables).items():
            buckets.setdefault(degree, {})[monom] = self.num.coeffs[monom]
        return {degree: over_factors(ctx, ctx._ring.from_ints(monoms,
                                                             self.num.den),
                                     self.den_factors)
                for degree, monoms in sorted(buckets.items())}

    def degree_weighted(self, variables: Iterable[VarId], weight) -> "Expr":
        """``sum(weight(d) * part)`` over the ``d -> part`` map that
        ``homogeneous_parts`` returns, in one pass over the numerator's
        terms; ``weight`` maps a degree to a nonzero ``int`` or
        ``Fraction``.

        Requires the denominator to be free of ``variables``. Its
        factors are then free of them too, and such a factor divides the
        numerator exactly when it divides every homogeneous part, so
        the weighted numerator stays coprime to the denominator and the
        result is canonical without trial division.
        """
        degrees = self._degrees(variables)
        weights = {d: Fraction(weight(d)) for d in set(degrees.values())}
        scale = lcm(*(w.denominator for w in weights.values()))
        factors = {d: w.numerator * (scale // w.denominator)
                   for d, w in weights.items()}
        return _factored(self.ctx, self.ctx._ring.from_ints(
            {monom: coeff * factors[degrees[monom]]
             for monom, coeff in self.num.coeffs.items()},
            self.num.den * scale), self.den_factors)

    def _degrees(self, variables) -> dict:
        """The total degree in ``variables`` of each numerator term, by
        packed monomial; the denominator must be free of them."""
        variables = list(variables)
        if self.den_factors and not self.is_polynomial_in(variables):
            raise NotPolynomialError(
                "expression is rational in the splitting variables",
                variables[0])
        ctx = self.ctx
        shifts = [ctx._ring.shifts[ctx.gen_index(v)] for v in variables]
        return {monom: sum([monom >> shift & FIELD_MASK for shift in shifts])
                for monom in self.num.coeffs}


# ``_factored`` fills the slots of the immutable ``Expr`` through their
# member descriptors, past ``Expr.__setattr__``.
_set_ctx = Expr.ctx.__set__
_set_num = Expr.num.__set__
_set_den_factors = Expr.den_factors.__set__


def common_denominator(factorisations):
    """The lcm of ``factorisations``, each a tuple of ``(factor,
    exponent)`` pairs with every factor once (as ``Expr.den_factors``):
    the largest exponent of each factor (no gcd), the factors two or
    more of them reach at that exponent (dict keys), and each one's lift
    to the lcm."""
    owns = [dict(fac) for fac in factorisations]
    top, ties = {}, {}
    for own in owns:
        for factor, exponent in own.items():
            most = top.get(factor, 0)
            if exponent > most:
                top[factor] = exponent
                ties.pop(factor, None)
            elif exponent == most:
                ties[factor] = None
    fac = _factorisation(top)
    return fac, ties, [tuple((factor, exponent - own.get(factor, 0))
                             for factor, exponent in fac
                             if exponent > own.get(factor, 0)) for own in owns]


def lincomb(ctx: ExprContext, terms) -> Expr:
    """The sum of ``terms``, each an ``Expr`` of ``ctx`` or a pair ``(a,
    b)`` of them standing for ``a * b``, in one exact pass.

    One branch per kind sorts the terms: a pair with a denominator is
    reduced first, a denominator-free pair is kept as it is. A sum with
    no denominator left goes straight to the one accumulation loop of
    ``PolyRing.sum_of_products``. Otherwise every term is lifted to the
    lcm of the denominators, the denominator-free pairs through their
    sum, into one integer map the same way.
    Trial division tries only the factors whose top exponent two or
    more terms reach (Henrici's criterion, n-ary): if one term alone
    reaches it for ``p``, every other lift carries ``p``, so modulo
    ``p`` the sum is that term's numerator times its lift. ``p``, prime,
    divides neither (the term is reduced; the lift is a product of
    other monic irreducibles), so it does not divide the sum.
    """
    ring = ctx._ring
    reduced, pairs, fractional = [], [], False
    for term in terms:
        if type(term) is tuple:
            a, b = term
            if a.ctx._ring is not ring or b.ctx._ring is not ring:
                raise ContextMismatchError(
                    "cannot combine expressions from different contexts")
            if not (a.num.coeffs and b.num.coeffs):
                continue
            if not (a.den_factors or b.den_factors):
                pairs.append((a.num, b.num))
                continue
            term = _product(ctx, a.num, a.den_factors, b.num, b.den_factors)
        elif term.ctx._ring is not ring:
            raise ContextMismatchError(
                "cannot combine expressions from different contexts")
        elif not term.num.coeffs:
            continue
        reduced.append(term)
        if term.den_factors:
            fractional = True
    if not pairs and len(reduced) < 2:
        return reduced[0] if reduced else ctx.zero
    if not fractional:
        return _factored(ctx, ring.sum_of_products(
            [expr.num for expr in reduced], pairs), ())
    fac, ties, lifts = common_denominator(
        expr.den_factors for expr in reduced)
    product = ctx._base.product
    if pairs and fac:
        pairs = [(ring.sum_of_products((), pairs), product(fac))]
    pairs += [(expr.num, product(lift))
              for expr, lift in zip(reduced, lifts) if lift]
    num = ring.sum_of_products(
        [expr.num for expr, lift in zip(reduced, lifts) if not lift], pairs)
    if ties:
        exps = dict(fac)
        num = _divide_out(num, exps, ties)
        fac = _factorisation(exps)
    return _factored(ctx, num, fac)


def over_factors(ctx: ExprContext, num, fac: Iterable) -> Expr:
    """The canonical form of the polynomial ``num`` over the product of
    ``fac``, ``(factor, exponent)`` pairs of ``ctx``'s factor base (as
    ``common_denominator`` returns; a factor listed twice adds its
    exponents), by trial division of ``num`` by every factor."""
    exps = {}
    for factor, exponent in fac:
        exps[factor] = exps.get(factor, 0) + exponent
    return _factored(ctx, _divide_out(num, exps, list(exps)),
                     _factorisation(exps))


def _subst_poly(ctx, poly, constants: dict, others: list) -> Expr:
    """The polynomial ``poly`` with the generator positions of
    ``constants`` bound to those ``Fraction`` values and those of
    ``others`` to those non-constant expressions.

    One pass over the terms folds the constants into the coefficients,
    in integers (``_power_tables``), and groups the terms by their
    exponents of the other bound generators; each such group is then
    multiplied by its powers of the non-constant values with ``Expr``
    arithmetic.
    """
    monoms, tables, den, _complete = _power_tables(poly, constants)
    shifts = poly.ring.shifts
    free = ~sum(FIELD_MASK << shifts[position]
                for position in [*constants, *(p for p, _rep in others)])
    groups = {}
    for monom, (key, coeff) in zip(monoms, poly.coeffs.items()):
        for position, table in tables:
            coeff *= table[monom[position]]
        if coeff:
            powers = tuple([monom[position] for position, _rep in others])
            group = groups.setdefault(powers, {})
            key &= free
            group[key] = group.get(key, 0) + coeff
    parts = []
    for powers, group in groups.items():
        part = _factored(ctx, ctx._ring.from_ints(group, den), ())
        for (_position, rep), exponent in zip(others, powers):
            if exponent:
                part = part * rep ** exponent
        parts.append(part)
    return lincomb(ctx, parts)


def _power_tables(poly, values: dict):
    """The exponent tuples of ``poly``'s terms, in its order, the integer
    power tables of ``values`` (``Fraction`` values by generator
    position) at the generators ``poly`` uses, ``poly``'s denominator
    scaled to match, and whether ``values`` binds them all.

    A value ``p/q`` at a generator of degree ``top`` multiplies a term
    with exponent ``e`` by ``p**e * q**(top - e)`` (entry ``e``, built
    only for the exponents the terms use) and the denominator by
    ``q**top``, so the terms stay integers. One transposition of the
    exponent tuples gives every column of exponents.
    """
    monoms = list(poly.ring.unpack(poly.coeffs))
    den = poly.den
    tables = []
    complete = True
    for position, column in enumerate(zip(*monoms)):
        top = max(column)
        if not top:
            continue
        value = values.get(position)
        if value is None:
            complete = False
            continue
        p, q = value.numerator, value.denominator
        table = [0] * (top + 1)
        for e in set(column):
            table[e] = p ** e * q ** (top - e)
        tables.append((position, table))
        den *= q ** top
    return monoms, tables, den, complete


def _eval_poly(ctx, poly, values: dict) -> Fraction:
    """``poly`` at the point ``values`` (``Fraction`` values by
    generator position), in integers (``_power_tables``)."""
    coeffs = poly.coeffs
    if not coeffs:
        return Fraction(0)
    monoms, tables, den, complete = _power_tables(poly, values)
    if not complete:
        _unassigned(ctx, poly, values)
    total = 0
    for monom, coeff in zip(monoms, coeffs.values()):
        for position, table in tables:
            coeff *= table[monom[position]]
        total += coeff
    return Fraction(total, den)


def _unassigned(ctx, poly, values):
    """Raise for the first generator, in the terms' order, that ``poly``
    uses and ``values`` leaves unassigned."""
    for monom in poly.monoms():
        for position, exponent in enumerate(monom):
            if exponent and position not in values:
                raise ExprError("evaluation point does not assign "
                                f"{ctx._names[position]}")


# --------------------------------------------------------------------------
# parsing


# One token per match, after optional whitespace: an integer literal, a
# name, an operator, or any other character (a bad one).
_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z][A-Za-z0-9_]*|[+\-*/^()]|\S)")
# The characters no good token starts with ("_" is one: it may only
# follow the first character of a name).
_BAD = re.compile(r"[^0-9A-Za-z+\-*/^()\s]")
# The deepest nesting of parentheses and unary minuses the parser reads,
# well inside the interpreter's recursion limit.
MAX_NESTING = 100


def _offset(text: str, index: int) -> int:
    """The character offset of token ``index`` of ``text``; the length of
    the text for the end, past the last token."""
    end = 0
    for _ in range(index + 1):
        m = _TOKEN.match(text, end)
        if m is None:
            return len(text)
        end = m.end()
    return m.start(1)


class _Parser:
    """Recursive-descent parser for the expression grammar.

    Precedence (loosest to tightest): additive, multiplicative, unary
    minus, exponentiation. Exponents are integer literals only and may
    not chain; ``/`` is ordinary division, so both rational literals
    ``p/q`` and rational functions share one rule.

    The text is split into tokens by one ``re.findall``; a token's
    character offset is worked out (``_offset``) only for an error.
    Each construct is read in one place. Its value is an integer triple
    ``(key, numerator, denominator)``, the monomial packed as it is read,
    while every factor is a generator or a constant, and ``expression``
    gathers the triples of a sum into one coefficient map. A factor that
    needs more (a group that is not constant, a negative power of a
    generator, a division by a non-constant) turns its product into an
    ``Expr``. An exponent literal above ``MAX_EXPONENT``, a product of
    triples whose exponent of one generator passes it, and any other
    literal longer than ``int`` reads raise :class:`LimitError` naming
    the token before anything is built from them. So does nesting past
    ``MAX_NESTING``: each parenthesis and each unary minus is one level,
    counted before the parser recurses into it.
    """

    __slots__ = ("text", "ctx", "ring", "keys", "tokens", "pos", "depth")

    def __init__(self, text: str, ctx: ExprContext):
        self.text = text
        self.ctx = ctx
        self.ring = ctx._ring
        self.keys = ctx._name_key
        tokens = _TOKEN.findall(text)
        digits = sys.get_int_max_str_digits() or len(text)  # 0: no limit
        if _BAD.search(text) or len(text) > digits:
            for index, token in enumerate(tokens):
                if _BAD.match(token):
                    raise self.error(f"unexpected character {token!r}", index)
                if len(token) > digits and token.isdigit() and not "".join(
                        tokens[:index]).rstrip("(-").endswith("^"):
                    raise self.limit(index, "integer literal above the limit "
                                            f"of {digits} digits")
        # The end of the text; no rule reads past it. An operator is
        # recognised by its value alone: no number or name spells one.
        tokens.append("")
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def error(self, message: str, index: int,
              kind=ExprSyntaxError) -> ExprSyntaxError:
        """A ``kind`` error at token ``index``."""
        return kind(message, _offset(self.text, index))

    def limit(self, index: int, what: str = "exponent above the limit "
              f"{MAX_EXPONENT}") -> LimitError:
        return LimitError(f"{what} (at position {_offset(self.text, index)})")

    def nest(self, index: int):
        """Enter one level of nesting at token ``index``; the caller
        leaves it (``depth -= 1``) when the nested part is read."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.limit(index, f"nesting above the limit {MAX_NESTING}")

    def expect_op(self, op: str):
        if self.tokens[self.pos] != op:
            raise self.error(f"expected {op!r}", self.pos)
        self.pos += 1

    def as_expr(self, value) -> Expr:
        """``value`` as an expression: a triple becomes its monomial."""
        if type(value) is not tuple:
            return value
        key, num, den = value
        return _factored(self.ctx, self.ring.from_ints({key: num}, den), ())

    def parse(self) -> Expr:
        result = self.expression()
        token = self.tokens[self.pos]
        if token:
            raise self.error(f"unexpected trailing input {token!r}", self.pos)
        return self.as_expr(result)

    def expression(self):
        """A sum of products: a lone product as it is, else an ``Expr``.
        The triples go into one coefficient map over the lcm of their
        denominators, and the polynomial it makes is summed with the
        other terms."""
        tokens = self.tokens
        value = self.product()
        op = tokens[self.pos]
        if op != "+" and op != "-":
            return value
        simple, terms = [], []
        negative = False
        while True:
            if type(value) is tuple:
                if negative:
                    value = value[0], -value[1], value[2]
                simple.append(value)
            else:
                terms.append(-value if negative else value)
            op = tokens[self.pos]
            if op != "+" and op != "-":
                break
            self.pos += 1
            negative = op == "-"
            value = self.product()
        if simple:
            den = lcm(*[d for _monom, _num, d in simple])
            coeffs = {}
            get = coeffs.get
            for monom, num, d in simple:
                if d != den:
                    num *= den // d
                old = get(monom)
                coeffs[monom] = num if old is None else old + num
            terms.append(_factored(self.ctx, self.ring.from_ints(coeffs, den),
                                   ()))
        return lincomb(self.ctx, terms)

    def product(self):
        """The factor at the cursor times and over the factors after it:
        a triple while both operands are triples and each divisor is a
        constant, else an ``Expr``."""
        tokens, guard = self.tokens, self.ring.guard
        value = self.factor()
        while True:
            index = self.pos
            op = tokens[index]
            if op != "*" and op != "/":
                return value
            self.pos += 1
            rhs = self.factor()
            if type(value) is tuple and type(rhs) is tuple:
                key, num, den = value
                if op == "*":
                    # two keys within the limit add without a carry
                    key += rhs[0]
                    if key & guard:
                        raise self.limit(self.pos - 1)
                    value = key, num * rhs[1], den * rhs[2]
                    continue
                if not rhs[0] and rhs[1]:  # a nonzero constant divisor
                    _key, p, q = rhs
                    if p < 0:
                        p, num = -p, -num
                    value = key, num * q, den * p
                    continue
            rhs = self.as_expr(rhs)
            if op == "*":
                value = self.as_expr(value) * rhs
            elif not rhs:
                raise ZeroDenominatorError(
                    f"division by zero (at position {_offset(self.text, index)})")
            else:
                value = self.as_expr(value) / rhs

    def factor(self):
        """Unary minus, or an atom with an optional exponent: a triple
        for a generator or a constant, else an ``Expr``."""
        tokens = self.tokens
        index = self.pos
        token = tokens[index]
        self.pos = index + 1
        key = self.keys.get(token)
        if key is not None:
            value = key, 1, 1
        elif token.isdigit():
            value = 0, int(token), 1
        elif token == "-":
            self.nest(index)
            value = self.factor()
            self.depth -= 1
            if type(value) is tuple:
                return value[0], -value[1], value[2]
            return -value
        elif token == "(":
            self.nest(index)
            value = self.expression()
            self.expect_op(")")
            self.depth -= 1
            # a group is a triple exactly when it is constant
            if type(value) is tuple and value[0]:
                value = self.as_expr(value)
            if type(value) is not tuple and value.is_constant():
                value = 0, value.num.coeffs.get(0, 0), value.num.den
        elif token[:1].isalpha():
            value = self.keys[self.resolve(token, index)], 1, 1
        else:
            raise self.error("expected a number, a variable or '('", index)
        index = self.pos
        if tokens[index] != "^":
            return value
        self.pos += 1
        exponent = self.exponent_literal()
        if type(value) is not tuple or value[0] and exponent < 0:
            value = self.as_expr(value)
            if exponent < 0 and not value:
                raise self.error("zero raised to a negative power", index)
            value = value ** exponent  # 0^0 is 1, as for Expr
        elif value[0]:  # a generator: its field becomes the exponent
            value = value[0] * exponent, 1, 1
        elif exponent >= 0:
            value = 0, value[1] ** exponent, value[2] ** exponent
        elif not value[1]:
            raise self.error("zero raised to a negative power", index)
        else:
            power = Fraction(value[2], value[1]) ** -exponent
            value = 0, power.numerator, power.denominator
        if tokens[self.pos] == "^":
            raise self.error("chained '^' needs parentheses", self.pos)
        return value

    def exponent_literal(self) -> int:
        """An integer literal, its negation, or either in parentheses; a
        literal above the limit is refused before a long one is
        converted."""
        index = self.pos
        token = self.tokens[index]
        if token == "(":
            self.nest(index)
            self.pos += 1
            inner = self.exponent_literal()
            self.expect_op(")")
            self.depth -= 1
            return inner
        sign = 1
        if token == "-":
            index += 1
            token = self.tokens[index]
            sign = -1
        if not token.isdigit():
            raise self.error("exponent must be an integer literal", index)
        if len(token) > len(str(MAX_EXPONENT)) or int(token) > MAX_EXPONENT:
            raise self.limit(index)
        self.pos = index + 1
        return sign * int(token)

    def resolve(self, name: str, index: int) -> str:
        """The generator name of the jet spelled ``d1q<i>`` or with a
        zero-padded order; otherwise the most specific error for an
        unknown name."""
        ctx = self.ctx
        m = re.match(r"^d([0-9]+)q([1-9][0-9]*)$", name)
        if m and self.number(m.group(2), index) <= ctx.n:
            order = self.number(m.group(1), index)
            if 1 <= order <= ctx.max_jet_order:
                return ctx.display_name(VarId.jet(int(m.group(2)), order))
            raise self.error(
                f"jet order {order} exceeds context maximum "
                f"{ctx.max_jet_order}", index, JetOrderError)
        m = re.match(r"^(?:q|v)([1-9][0-9]*)$", name)
        if m:
            raise self.error(
                f"coordinate index {self.number(m.group(1), index)} outside "
                f"1..{ctx.n}", index, UnknownIdentifierError)
        if name == "t":
            raise self.error("context has no time variable", index,
                             UnknownIdentifierError)
        raise self.error(f"unknown identifier {name!r}", index,
                         UnknownIdentifierError)

    def number(self, digits: str, index: int) -> int:
        """The ``digits`` of the name at token ``index`` as an ``int``,
        refused first past Python's limit for text to ``int``."""
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if limit and len(digits) > limit:
            raise self.limit(index, "number in a name above the limit of "
                                    f"{limit} digits")
        return int(digits)


# --------------------------------------------------------------------------
# printing


def _poly_text(ctx: ExprContext, poly) -> str:
    """The terms of ``poly`` in descending lex order, each coefficient
    read off its integer over ``poly.den`` with one gcd and each
    monomial's factors (``q1^2*v3``) off the context's table, which
    unpacks only the monomials it has not printed before."""
    coeffs = poly.coeffs
    if not coeffs:
        return "0"
    table = ctx._monomial_text
    keys = sorted(coeffs, reverse=True)
    missing = [key for key in keys if key not in table]
    if missing:
        names = ctx._names
        for key, monom in zip(missing, poly.ring.unpack(missing)):
            table[key] = "*".join([names[position] if exponent == 1
                                   else f"{names[position]}^{exponent}"
                                   for position, exponent in enumerate(monom)
                                   if exponent])
    den = poly.den
    chunks = []
    for key in keys:
        coeff = coeffs[key]
        if coeff < 0:
            coeff = -coeff
            chunks.append(" - " if chunks else "-")
        elif chunks:
            chunks.append(" + ")
        factors = table[key]
        if coeff == den and factors:  # the coefficient 1
            chunks.append(factors)
            continue
        g = gcd(coeff, den)
        try:
            coefficient = (str(coeff // g) if g == den
                           else f"{coeff // g}/{den // g}")
        except ValueError:  # past Python's limit for int to str
            raise LimitError("cannot print a coefficient of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        chunks.append(f"{coefficient}*{factors}" if factors else coefficient)
    return "".join(chunks)


def to_text(expr: Expr) -> str:
    """Canonical text form; feeding it back to ``parse`` reproduces ``expr``."""
    if not expr.den_factors:
        return _poly_text(expr.ctx, expr.num)
    return f"({_poly_text(expr.ctx, expr.num)})/({_poly_text(expr.ctx, expr.den)})"


def negated_text(text: str) -> str:
    """``to_text(-e)`` read off ``text``, which is ``to_text(e)``.

    ``-e`` is ``_factored(ctx, -num, den_factors)``: the same monomials
    in the same order with the same coefficient magnitudes, over the same
    denominator, so only the signs of the numerator's terms change. The
    first term's sign is a leading ``-`` or none, and each later term's
    is its separator, `` + `` or `` - ``; no term's text holds either
    separator, since coefficients and names hold no space. So toggling
    the leading ``-`` and swapping the two separators negates a
    polynomial's text. A fraction prints as ``(num)/(den)``, and as no
    term's text holds a parenthesis, its numerator ends at the first
    ``)``; the denominator is kept as it is. Zero prints ``0`` either
    way.
    """
    if text == "0":
        return text
    if text[0] == "(":
        end = text.index(")")
        return f"({negated_text(text[1:end])}{text[end:]}"
    text = text[1:] if text[0] == "-" else "-" + text
    return " - ".join(part.replace(" - ", " + ")
                      for part in text.split(" + "))


# --------------------------------------------------------------------------
# conversion between contexts


def convert(expr: Expr, target: ExprContext) -> Expr:
    """Re-express ``expr`` in a context that declares at least its variables."""
    if expr.ctx == target:
        return expr
    names, ring = expr.ctx._names, target._ring

    def move(poly):
        if target._names[:len(names)] == names:  # generators appended
            lift = ring.shifts[len(names) - 1]
            return Poly(ring, {monom << lift: coeff
                               for monom, coeff in poly.coeffs.items()},
                        poly.den)
        out = {}
        for monom, coeff in zip(poly.ring.unpack(poly.coeffs),
                                poly.coeffs.values()):
            key = 0
            for position, exponent in enumerate(monom):
                if not exponent:
                    continue
                name = names[position]
                unit = target._name_key.get(name)
                if unit is None:
                    raise ContextMismatchError(
                        f"target context does not declare {name!r}")
                key += exponent * unit
            out[key] = coeff
        return Poly(ring, out, poly.den)

    # Each factor moves on its own: irreducible over QQ, it stays
    # irreducible with generators added, so it is interned as it is and
    # the moved numerator stays coprime to it. Only a generator order
    # that changes its leading term rescales it.
    num = move(expr.num)
    exps = {}
    for factor, exponent in expr.den_factors:
        moved = move(factor.poly)
        lc = moved.LC
        if lc != 1:
            moved = moved.quo_ground(lc)
            num = num.quo_ground(lc ** exponent)
        exps[target._base.intern(moved)] = exponent
    return _factored(target, num, _factorisation(exps))


# --------------------------------------------------------------------------
# the operation surface


def parse(text: str, ctx: ExprContext) -> Expr:
    """Parse ``text`` under ``ctx`` into a canonical expression."""
    return _Parser(text, ctx).parse()


def diff(expr: Expr, var: VarId) -> Expr:
    """Exact partial derivative."""
    return expr.diff(var)


def subst(expr: Expr, bindings: Mapping[VarId, Union[Expr, int, Fraction]]) -> Expr:
    """Exact simultaneous substitution."""
    return expr.subst(bindings)


def is_zero(expr: Expr) -> bool:
    """Decide identical vanishing via the canonical form."""
    return expr.is_zero()


def eval_num(expr: Expr, point: Mapping[VarId, Union[int, Fraction]]) -> Fraction:
    """Exact rational evaluation at a point."""
    return expr.eval_num(point)


def integrate_poly(expr: Expr, var: VarId) -> Expr:
    """Antiderivative in ``var`` with zero constant term."""
    return expr.integrate_poly(var)
