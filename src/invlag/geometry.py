"""Geometric objects attached to an explicit second-order system.

A system ``d2q^i = f^i(q, v)`` determines a nonlinear connection with
coefficients ``-1/2 * d f^i / d v^j``, horizontal derivatives, the
Jacobi endomorphism, a curvature tensor, the vertical derivative of the
connection (``theta``), and a covariant derivative along the flow
acting on tensor fields. Those objects are what every condition suite
in :mod:`invlag.conditions` is written in terms of, so they are built
here once, exactly, and cached per system, with the position
derivatives of the connection beside theta: each connection entry is
differentiated once per variable, and every entry of the Jacobi
endomorphism and the curvature is one ``lincomb`` over those tables. A
system extended to a context with more parameters
(:meth:`Sode.extended`) converts them from the system it came from
instead of building them again.

Index convention: all public indices are 1-based, matching the
``q1..qn`` naming of the expression layer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, List, Sequence, Tuple

from .exprcore import (Expr, ExprContext, common_denominator, convert,
                       lincomb, over_factors)


class GeometryError(Exception):
    """Invalid input to a geometric operation."""


class DimensionMismatchError(GeometryError):
    """Objects over different dimensions or contexts were mixed."""


class InternalInconsistencyError(Exception):
    """Two independent defining formulas disagreed; indicates a kernel bug."""


# --------------------------------------------------------------------------
# tensor fields


class TensorField:
    """A dense tensor of expressions with declared index symmetries.

    ``shape`` is the (contravariant, covariant) signature, e.g. (1, 1)
    for the Jacobi endomorphism or (0, 2) for a metric candidate.
    Entries are addressed by full 1-based index tuples; missing entries
    read as zero. Declared symmetries (``sym``/``antisym`` are pairs of
    1-based slot positions) are verified entry-wise on construction.
    """

    __slots__ = ("ctx", "n", "shape", "entries", "sym", "antisym")

    def __init__(self, ctx: ExprContext, shape: Tuple[int, int], entries: dict,
                 sym: Iterable[Tuple[int, int]] = (),
                 antisym: Iterable[Tuple[int, int]] = ()):
        self.ctx = ctx
        self.n = ctx.n
        self.shape = (int(shape[0]), int(shape[1]))
        rank = self.rank
        clean = {}
        for idx, value in entries.items():
            idx = tuple(idx)
            if len(idx) != rank or not all(1 <= i <= self.n for i in idx):
                raise GeometryError(f"bad index {idx} for rank-{rank} tensor")
            if value.ctx != ctx:
                raise DimensionMismatchError("entry from a different context")
            if not value.is_zero():
                clean[idx] = value
        self.entries = clean
        self.sym = tuple(tuple(p) for p in sym)
        self.antisym = tuple(tuple(p) for p in antisym)
        self._validate_symmetries()

    @property
    def rank(self) -> int:
        return self.shape[0] + self.shape[1]

    def entry(self, *idx: int) -> Expr:
        return self.entries.get(tuple(idx), self.ctx.zero)

    def _validate_symmetries(self):
        """Each pair a swap exchanges is compared once, in entry order."""
        for slots, kind in ((self.sym, "symmetric"),
                            (self.antisym, "antisymmetric")):
            for s1, s2 in slots:
                done = set()
                for idx, value in self.entries.items():
                    if idx in done:
                        continue
                    swapped = list(idx)
                    swapped[s1 - 1], swapped[s2 - 1] = idx[s2 - 1], idx[s1 - 1]
                    done.add(tuple(swapped))
                    other = self.entry(*swapped)
                    if value != (other if kind == "symmetric" else -other):
                        raise GeometryError(
                            f"declared {kind} slots {(s1, s2)} violated at {idx}")

    def __eq__(self, other):
        if not isinstance(other, TensorField):
            return NotImplemented
        if self.ctx != other.ctx or self.shape != other.shape:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(self.entry(*k) == other.entry(*k) for k in keys)

    def __repr__(self):
        body = ", ".join(f"{idx}: {value}" for idx, value in sorted(self.entries.items()))
        return f"TensorField(shape={self.shape}, {{{body}}})"

    def all_indices(self):
        return product(range(1, self.n + 1), repeat=self.rank)

    def is_zero(self) -> bool:
        return not self.entries

    @staticmethod
    def from_matrix(ctx: ExprContext, rows: Sequence[Sequence[Expr]],
                    shape: Tuple[int, int] = (0, 2),
                    sym: Iterable[Tuple[int, int]] = (),
                    antisym: Iterable[Tuple[int, int]] = ()) -> "TensorField":
        n = ctx.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix does not match the dimension")
        entries = {(i + 1, j + 1): rows[i][j] for i in range(n) for j in range(n)}
        return TensorField(ctx, shape, entries, sym=sym, antisym=antisym)

    def matrix(self) -> List[List[Expr]]:
        if self.rank != 2:
            raise GeometryError("only rank-2 tensors have a matrix form")
        return [[self.entry(i, j) for j in range(1, self.n + 1)]
                for i in range(1, self.n + 1)]


def identity_matrix(ctx: ExprContext) -> TensorField:
    entries = {(i, i): ctx.one for i in range(1, ctx.n + 1)}
    return TensorField(ctx, (0, 2), entries, sym=((1, 2),))


def _dot(ring, singles, pairs):
    """``sum(singles) + sum(x * y for x, y in pairs)`` over the terms
    where none is zero (None is one), in one pass; None for none."""
    singles = [x for x in singles if x]
    pairs = [(x, y) for x, y in pairs if x and y]
    return ring.sum_of_products(singles, pairs) if singles or pairs else None


def _berkowitz_det(rows, zero):
    """Determinant of a square matrix of ring polynomials by Berkowitz's
    division-free algorithm; ``zero`` is the ring's zero.

    ``q`` holds the characteristic polynomial coefficients of the
    trailing principal submatrix, leading 1 first. Bordering it by row
    and column ``k`` (corner ``a``, row ``R``, column ``C``, trailing
    block ``A``) multiplies it by the Toeplitz matrix with first column
    ``1, -a, -R C, -R A C, -R A^2 C, ...``; the determinant is
    ``(-1)^n`` times the last coefficient, so the last bordering works
    out that one alone. Zero entries and zero products are skipped
    (None stands for a zero that was never built).
    """
    n, ring = len(rows), zero.ring
    q = [None, -rows[-1][-1]]  # q[0] is the leading 1
    for k in range(n - 2, -1, -1):
        size = n - k
        block = [row[k + 1:] for row in rows[k + 1:]]
        column = [row[k] for row in rows[k + 1:]]
        toeplitz = [None, -rows[k][k]]
        for i in range(2, size + 1):
            if i > 2:
                column = [_dot(ring, (), zip(row, column)) for row in block]
            product = _dot(ring, (), zip(rows[k][k + 1:], column))
            toeplitz.append(None if product is None else -product)
        wanted = range(size, size + 1) if k == 0 else range(1, size + 1)
        new = [None]
        for i in wanted:
            new.append(_dot(ring, [q[i] if i < size else None, toeplitz[i]],
                            [(toeplitz[i - j], q[j]) for j in range(1, i)]))
        q = new
    det = q[-1]
    if not det:
        return zero
    return -det if n % 2 else det


def matrix_det(tensor: TensorField) -> Expr:
    """Determinant of a rank-2 tensor: each row is brought over the lcm
    of its denominators, the numerators' determinant is taken by
    Berkowitz's algorithm, and divided by the product of those lcms."""
    if tensor.rank != 2:
        raise GeometryError("determinant needs a rank-2 tensor")
    rows, scale, expand = [], [], tensor.ctx._base.product
    for row in tensor.matrix():
        lcm, _ties, lifts = common_denominator(row)
        rows.append([e.num * expand(lift) if lift else e.num
                     for e, lift in zip(row, lifts)])
        scale.extend(lcm)
    return over_factors(tensor.ctx,
                        _berkowitz_det(rows, tensor.ctx._ring.zero), scale)


def matrix_solve(tensor: TensorField, rhs: Sequence[Expr]) -> List[Expr]:
    """Solve ``tensor * x = rhs`` by Cramer's rule; the determinant must
    not be the zero expression."""
    det = matrix_det(tensor)
    if det.is_zero():
        raise GeometryError("matrix is singular as an expression")
    indices = range(1, tensor.n + 1)
    return [matrix_det(TensorField(tensor.ctx, (0, 2), {
                (i, j): rhs[i - 1] if j == column else tensor.entry(i, j)
                for i in indices for j in indices})) / det
            for column in indices]


def d_basic(ctx: ExprContext, form: dict, degree: int) -> dict:
    """Exterior derivative of a basic ``degree``-form stored on ascending
    index tuples (missing components read as zero): returns ``d form`` on
    every ascending ``degree + 1``-tuple, each component computed once as
    ``sum_a (-1)^a d/dq^(i_a) form[i_0 .. (i_a left out) .. i_degree]``.
    Only positions are differentiated, so on components that also depend
    on velocities this is the exterior derivative at fixed velocity."""
    sign, zero = (ctx.one, -ctx.one), ctx.zero
    return {idx: lincomb(ctx, [
                (sign[a % 2], form.get(idx[:a] + idx[a + 1:], zero).diff(ctx.q(i)))
                for a, i in enumerate(idx)])
            for idx in combinations(range(1, ctx.n + 1), degree + 1)}


# --------------------------------------------------------------------------
# second-order systems


class Sode:
    """An explicit autonomous second-order system ``d2q^i = f^i(q, v)``.

    The context must be first-order (jets up to order 1) and time-free,
    which also guarantees the right-hand sides depend on positions,
    velocities and parameters only. Derived geometric objects are
    memoised on the instance.
    """

    def __init__(self, ctx: ExprContext, f: Sequence[Expr]):
        if ctx.max_jet_order != 1:
            raise GeometryError("explicit systems live in a first-order context")
        if ctx.uses_time:
            raise GeometryError("explicit systems here are autonomous; drop t")
        f = tuple(f)
        if len(f) != ctx.n:
            raise DimensionMismatchError(
                f"expected {ctx.n} right-hand sides, got {len(f)}")
        for entry in f:
            if entry.ctx != ctx:
                raise DimensionMismatchError("right-hand side from another context")
        self.ctx = ctx
        self.n = ctx.n
        self.f = f
        self.origin = None
        self._memo = {}

    def __repr__(self):
        return f"Sode(n={self.n}, f={[str(e) for e in self.f]})"

    def extended(self, ctx: ExprContext) -> "Sode":
        """The same system over ``ctx``, which declares at least its
        variables (e.g. ``self.ctx.with_parameters(names)``). Its geometry
        is this system's, converted: the added generators occur in no
        right-hand side, so every derivative commutes with the embedding."""
        copy = Sode(ctx, [convert(entry, ctx) for entry in self.f])
        copy.origin = self if self.origin is None else self.origin
        return copy


def _memoised(s: Sode, key: str, build) -> TensorField:
    """``build(s)``, cached on the system; an extended system converts
    its origin's object instead, building it there on first need."""
    if key not in s._memo:
        if s.origin is None:
            s._memo[key] = build(s)
        else:
            source = _memoised(s.origin, key, build)
            s._memo[key] = TensorField(
                s.ctx, source.shape,
                {idx: convert(value, s.ctx) for idx, value in source.entries.items()},
                sym=source.sym, antisym=source.antisym)
    return s._memo[key]


def connection(s: Sode) -> TensorField:
    """Connection coefficients: ``-1/2 * d f^i / d v^j`` (slot order (i, j))."""
    return _memoised(s, "connection", _connection)


def _connection(s: Sode) -> TensorField:
    ctx = s.ctx
    half = ctx.const(Fraction(-1, 2))
    entries = {(i, j): s.f[i - 1].diff(ctx.v(j)) * half
               for i in range(1, s.n + 1) for j in range(1, s.n + 1)}
    return TensorField(ctx, (1, 1), entries)


def gamma_apply(s: Sode, F: Expr, extra: Sequence = ()) -> Expr:
    """Derivative of ``F`` along the flow: ``v^k dF/dq^k + f^k dF/dv^k``,
    plus the ``lincomb`` terms ``extra`` in the same pass."""
    ctx = s.ctx
    if F.ctx != ctx:
        raise DimensionMismatchError("function from another context")
    terms = list(extra)
    for k in range(1, s.n + 1):
        terms.append((ctx.var(ctx.v(k)), F.diff(ctx.q(k))))
        if not s.f[k - 1].is_zero():
            terms.append((s.f[k - 1], F.diff(ctx.v(k))))
    return lincomb(ctx, terms)


def horizontal_apply(s: Sode, i: int, F: Expr) -> Expr:
    """Horizontal derivative: ``dF/dq^i - Gamma^j_i dF/dv^j``."""
    return lincomb(s.ctx, _horizontal_terms(s, i, F))


def _horizontal_terms(s: Sode, i: int, F: Expr) -> list:
    """The terms of ``horizontal_apply(s, i, F)``, for a longer ``lincomb``."""
    ctx = s.ctx
    if F.ctx != ctx:
        raise DimensionMismatchError("function from another context")
    conn = connection(s)
    return [F.diff(ctx.q(i))] + [
        (-conn.entry(j, i), F.diff(ctx.v(j))) for j in range(1, s.n + 1)
        if not conn.entry(j, i).is_zero()]


def jacobi(s: Sode) -> TensorField:
    """The Jacobi endomorphism of the system (a (1,1) tensor)."""
    return _memoised(s, "jacobi", _jacobi)


def _jacobi(s: Sode) -> TensorField:
    """``-(df^i/dq^j + v^k dGamma^i_j/dq^k + f^k theta^i_jk + Gamma^k_j
    Gamma^i_k)``, from the tables of the connection's derivatives."""
    ctx, conn, indices = s.ctx, connection(s), range(1, s.n + 1)
    theta, dq = theta_tensor(s), _memoised(s, "connection_q", _connection_q)
    return TensorField(ctx, (1, 1), {
        (i, j): -lincomb(ctx, [s.f[i - 1].diff(ctx.q(j))] + [
            term for k in indices for term in (
                (ctx.var(ctx.v(k)), dq.entry(i, j, k)),
                (s.f[k - 1], theta.entry(i, j, k)),
                (conn.entry(k, j), conn.entry(i, k)))])
        for i in indices for j in indices})


def _connection_q(s: Sode) -> TensorField:
    """``d Gamma^l_j / d q^k`` (slot order (l, j, k)), built beside theta."""
    conn, indices = connection(s), range(1, s.n + 1)
    return TensorField(s.ctx, (1, 2), {
        (l, j, k): conn.entry(l, j).diff(s.ctx.q(k))
        for l in indices for j in indices for k in indices})


def curvature(s: Sode) -> TensorField:
    """Curvature of the connection, slot order (k, i, j), antisymmetric
    in (i, j).

    Computed from the tables of the connection's position and velocity
    derivatives and cross-checked against one third of the vertical
    antisymmetrised derivative of the Jacobi endomorphism; a mismatch
    would mean the expression kernel itself is broken, and raises.
    """
    return _memoised(s, "curvature", _curvature)


def _curvature(s: Sode) -> TensorField:
    ctx, conn, indices = s.ctx, connection(s), range(1, s.n + 1)
    jac = jacobi(s)
    theta, dq = theta_tensor(s), _memoised(s, "connection_q", _connection_q)
    third = ctx.const(Fraction(1, 3))
    entries = {}
    # Both formulas are antisymmetric in (i, j) by construction: a
    # comparison with i > j is one with i < j negated, and both vanish
    # on the diagonal.
    for k in indices:
        for i, j in combinations(indices, 2):
            from_connection = lincomb(ctx, [
                dq.entry(k, i, j), -dq.entry(k, j, i)] + [
                term for l in indices for term in (
                    (-conn.entry(l, j), theta.entry(k, i, l)),
                    (conn.entry(l, i), theta.entry(k, j, l)))])
            from_jacobi = (jac.entry(k, j).diff(ctx.v(i))
                           - jac.entry(k, i).diff(ctx.v(j))) * third
            if from_connection != from_jacobi:
                raise InternalInconsistencyError(
                    f"curvature formulas disagree at {(k, i, j)}: "
                    f"{from_connection} vs {from_jacobi}")
            entries[(k, i, j)] = from_connection
            entries[(k, j, i)] = -from_connection
    return TensorField(ctx, (1, 2), entries, antisym=((2, 3),))


def theta_tensor(s: Sode) -> TensorField:
    """Vertical derivative of the connection, slot order (l, j, k):
    ``d Gamma^l_j / d v^k``; symmetric in the two lower slots because
    the connection has no torsion (asserted)."""
    return _memoised(s, "theta", _theta)


def _theta(s: Sode) -> TensorField:
    conn = connection(s)
    indices = range(1, s.n + 1)
    entries = {(l, j, k): conn.entry(l, j).diff(s.ctx.v(k))
               for l in indices for j in indices for k in indices}
    try:
        return TensorField(s.ctx, (1, 2), entries, sym=((2, 3),))
    except GeometryError as exc:
        raise InternalInconsistencyError(
            f"connection acquired torsion: {exc}") from exc


def nabla_tensor02(s: Sode, g: TensorField) -> TensorField:
    """Covariant derivative along the flow of a (0,2) tensor:
    ``Gamma(g_ij) - g_ik Gamma^k_j - g_jk Gamma^k_i``."""
    _expect_02(s, g)
    conn, indices = connection(s), range(1, s.n + 1)
    return TensorField(s.ctx, (0, 2), {
        (i, j): gamma_apply(s, g.entry(i, j), [
            term for k in indices for term in (
                (-g.entry(i, k), conn.entry(k, j)),
                (-g.entry(j, k), conn.entry(k, i)))])
        for i in indices for j in indices})


def nabla_tensor12(s: Sode, T: TensorField) -> TensorField:
    """Covariant derivative along the flow of a (1,2) tensor (slot order
    (k, i, j)), by the Leibniz extension of the (1,0)/(0,1) rules."""
    if T.ctx != s.ctx or T.shape != (1, 2):
        raise DimensionMismatchError("expected a (1,2) tensor over the system")
    conn, indices = connection(s), range(1, s.n + 1)
    return TensorField(s.ctx, (1, 2), {
        (k, i, j): gamma_apply(s, T.entry(k, i, j), [
            term for l in indices for term in (
                (conn.entry(k, l), T.entry(l, i, j)),
                (-conn.entry(l, i), T.entry(k, l, j)),
                (-conn.entry(l, j), T.entry(k, i, l)))])
        for k in indices for i in indices for j in indices})


def dh_jacobi(s: Sode) -> TensorField:
    """Antisymmetrised horizontal derivative of the Jacobi endomorphism,
    slot order (k, i, j); equals the covariant derivative of the
    curvature along the flow (tested property)."""
    jac, theta, indices = jacobi(s), theta_tensor(s), range(1, s.n + 1)
    return TensorField(s.ctx, (1, 2), {
        (k, i, j): lincomb(s.ctx, _horizontal_terms(s, i, jac.entry(k, j))
                           + _horizontal_terms(s, j, -jac.entry(k, i)) + [
            term for l in indices for term in (
                (jac.entry(l, j), theta.entry(k, l, i)),
                (-jac.entry(l, i), theta.entry(k, l, j)))])
        for k in indices for i in indices for j in indices})


def _expect_02(s: Sode, g: TensorField):
    if g.ctx != s.ctx:
        raise DimensionMismatchError("tensor belongs to another context")
    if g.shape != (0, 2):
        raise DimensionMismatchError("expected a (0,2) tensor")
