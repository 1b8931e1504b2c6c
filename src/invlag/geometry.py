"""Geometric objects attached to an explicit second-order system.

A system ``d2q^i = f^i(q, v)`` determines a nonlinear connection with
coefficients ``-1/2 * d f^i / d v^j``, horizontal derivatives, the
Jacobi endomorphism, a curvature tensor, the vertical derivative of the
connection (``theta``), and a covariant derivative along the flow
acting on tensor fields. Those objects are what every condition suite
in :mod:`invlag.conditions` is written in terms of, so they are built
here once, exactly, and cached per system, with the position
derivatives of the connection beside theta and ``-Gamma`` beside the
connection: each connection entry is differentiated once per variable,
by generator position, and every entry of the Jacobi endomorphism and
the curvature is one ``lincomb`` over those tables. The flow derivative
of a symmetric (0,2) tensor is built on ``i <= j`` only. A system
extended to a context with more parameters (:meth:`Sode.extended`)
converts the tables from the system it came from instead of building
them again.

Index convention: all public indices are 1-based, matching the
``q1..qn`` naming of the expression layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


@lru_cache(maxsize=16)
def _layout(n: int, rank: int) -> frozenset:
    """Every valid index tuple of a rank-``rank`` tensor over dimension ``n``."""
    return frozenset(product(range(1, n + 1), repeat=rank))


def _agree(a: Expr, b: Expr, negated: bool) -> bool:
    """``a == b``, or ``a == -b`` when ``negated``, for two expressions
    of one context, without building ``-b``."""
    x, y = a.num.coeffs, b.num.coeffs
    return (a.den_factors == b.den_factors and a.num.den == b.num.den
            and (len(x) == len(y) and all(y.get(m) == -c for m, c in x.items())
                 if negated else x == y))


class TensorField:
    """A dense tensor of expressions with declared index symmetries.

    ``shape`` is the (contravariant, covariant) signature, e.g. (1, 1)
    for the Jacobi endomorphism or (0, 2) for a metric candidate.
    Entries are addressed by full 1-based index tuples; missing entries
    read as zero, and indices are checked against a cached layout of
    the valid ones. Declared symmetries (``sym``/``antisym`` are pairs
    of 1-based slot positions) are verified entry-wise on construction,
    on numerators and denominators directly.
    """

    __slots__ = ("ctx", "n", "shape", "entries", "sym", "antisym")

    def __init__(self, ctx: ExprContext, shape: Tuple[int, int], entries: dict,
                 sym: Iterable[Tuple[int, int]] = (),
                 antisym: Iterable[Tuple[int, int]] = ()):
        self.ctx = ctx
        self.n = ctx.n
        self.shape = (int(shape[0]), int(shape[1]))
        rank = self.rank
        layout = _layout(self.n, rank)
        clean = {}
        for idx, value in entries.items():
            if idx not in layout:
                raise GeometryError(f"bad index {idx} for rank-{rank} tensor")
            if value.ctx is not ctx and value.ctx != ctx:
                raise DimensionMismatchError("entry from a different context")
            if value.num.coeffs:
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
        """Every entry is compared with its swapped partner, and the
        first entry, in the entries' order, that differs is named: the
        relation is symmetric, so that is the first of its pair."""
        entries, zero = self.entries, self.ctx.zero
        for slots, negated in ((self.sym, False), (self.antisym, True)):
            for s1, s2 in slots:
                a, b = s1 - 1, s2 - 1
                for idx, value in entries.items():
                    swapped = list(idx)
                    swapped[a], swapped[b] = idx[b], idx[a]
                    if not _agree(value, entries.get(tuple(swapped), zero),
                                  negated):
                        kind = "antisymmetric" if negated else "symmetric"
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


def _charpoly(rows, whole: bool):
    """Characteristic polynomial ``det(x I - A) = x^n + q_1 x^(n-1) +
    ... + q_n`` of a square matrix of ring polynomials by Berkowitz's
    division-free algorithm, as the list ``[None, q_1, ..., q_n]``: None
    stands for the leading 1 and for a zero that was never built, and
    without ``whole`` only ``q_n`` is worked out, the rest left None.

    ``q`` holds the coefficients of the trailing principal submatrix.
    Bordering it by row and column ``k`` (corner ``a``, row ``R``,
    column ``C``, trailing block ``A``) multiplies it by the Toeplitz
    matrix with first column ``1, -a, -R C, -R A C, -R A^2 C, ...``;
    the last bordering works out the wanted coefficients alone. Zero
    entries and zero products are skipped.
    """
    n, ring = len(rows), rows[0][0].ring
    q = [None, -rows[-1][-1]]
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
        wanted = range(1, size + 1) if k or whole else range(size, size + 1)
        new = [None] * (size + 1)
        for i in wanted:
            new[i] = _dot(ring, [q[i] if i < size else None, toeplitz[i]],
                          [(toeplitz[i - j], q[j]) for j in range(1, i)])
        q = new
    return q


def _numerator_rows(tensor: TensorField, rhs=None):
    """The rows of a rank-2 tensor, each followed by its entry of
    ``rhs`` when given, brought over the lcm of their denominators:
    the numerator rows and the factors of the product of those lcms."""
    if tensor.rank != 2:
        raise GeometryError("determinant needs a rank-2 tensor")
    rows, scale, expand = [], [], tensor.ctx._base.product
    matrix = tensor.matrix()
    if rhs is not None:
        matrix = [row + [value] for row, value in zip(matrix, rhs)]
    for row in matrix:
        lcm, _ties, lifts = common_denominator(row)
        rows.append([e.num * expand(lift) if lift else e.num
                     for e, lift in zip(row, lifts)])
        scale.extend(lcm)
    return rows, scale


def matrix_det(tensor: TensorField) -> Expr:
    """Determinant of a rank-2 tensor: each row is brought over the lcm
    of its denominators, the numerators' determinant is taken by
    Berkowitz's algorithm, and divided by the product of those lcms."""
    rows, scale = _numerator_rows(tensor)
    det = _charpoly(rows, whole=False)[-1]
    if not det:
        return tensor.ctx.zero
    return over_factors(tensor.ctx, -det if tensor.n % 2 else det, scale)


def matrix_solve(tensor: TensorField, rhs: Sequence[Expr]) -> List[Expr]:
    """Solve ``tensor * x = rhs``; the determinant must not be the zero
    expression.

    Each row of ``[tensor | rhs]`` is brought over the lcm of its
    denominators, giving ``N x = b`` over the ring. With ``x^n + q_1
    x^(n-1) + ... + q_n`` the characteristic polynomial of ``N``
    (Berkowitz's, once), Cayley-Hamilton gives ``x = -y_(n-1) / q_n``
    for ``y_0 = b`` and ``y_k = N y_(k-1) + q_k b``: n - 1
    matrix-vector products and no further determinant.
    """
    ctx = tensor.ctx
    if len(rhs) != tensor.n:
        raise DimensionMismatchError("right-hand side does not match the "
                                     "dimension")
    if any(value.ctx != ctx for value in rhs):
        raise DimensionMismatchError("entry from a different context")
    rows, scale = _numerator_rows(tensor, rhs)
    matrix = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    q = _charpoly(matrix, whole=True)
    if not q[-1]:
        raise GeometryError("matrix is singular as an expression")
    y = b
    for k in range(1, tensor.n):
        y = [_dot(ctx._ring, (), [*zip(row, y), (q[k], b_i)])
             for row, b_i in zip(matrix, b)]
    # -y / q_n as (-y / S) / (q_n / S) for S the product of the row
    # lcms: q_n / S is (-1)^n times the determinant, so its inverse
    # factors the determinant's numerator, as Cramer's rule did
    inverse = ctx.one / over_factors(ctx, q[-1], scale)
    return [over_factors(ctx, -y_i, scale) * inverse if y_i else ctx.zero
            for y_i in y]


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
    memoised on the instance. ``q_pos`` and ``v_pos`` are the generator
    positions of ``q1..qn`` and ``v1..vn``, for ``Expr.diff``.
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
        self.q_pos = tuple(ctx.gen_index(ctx.q(k)) for k in range(1, ctx.n + 1))
        self.v_pos = tuple(ctx.gen_index(ctx.v(k)) for k in range(1, ctx.n + 1))
        self.velocities = tuple(ctx.var(ctx.v(k)) for k in range(1, ctx.n + 1))
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
    half, indices = s.ctx.const(Fraction(-1, 2)), range(1, s.n + 1)
    return TensorField(s.ctx, (1, 1), {
        (i, j): s.f[i - 1].diff(s.v_pos[j - 1]) * half
        for i in indices for j in indices})


def _neg_connection(s: Sode) -> TensorField:
    """``-Gamma``, negated once per system."""
    return TensorField(s.ctx, (1, 1), {
        idx: -value for idx, value in connection(s).entries.items()})


def gamma_apply(s: Sode, F: Expr, extra: Sequence = ()) -> Expr:
    """Derivative of ``F`` along the flow: ``v^k dF/dq^k + f^k dF/dv^k``,
    plus the ``lincomb`` terms ``extra`` in the same pass."""
    if F.ctx != s.ctx:
        raise DimensionMismatchError("function from another context")
    return lincomb(s.ctx, [*extra, *_flow_terms(s, F)])


def _flow_terms(s: Sode, F: Expr) -> list:
    """The terms of ``gamma_apply(s, F)``, for a longer ``lincomb``."""
    terms = []
    for k, velocity in enumerate(s.velocities):
        terms.append((velocity, F.diff(s.q_pos[k])))
        if s.f[k].num.coeffs:
            terms.append((s.f[k], F.diff(s.v_pos[k])))
    return terms


def horizontal_apply(s: Sode, i: int, F: Expr) -> Expr:
    """Horizontal derivative: ``dF/dq^i - Gamma^j_i dF/dv^j``."""
    s.ctx._check_index(i)
    return lincomb(s.ctx, _horizontal_terms(s, i, F))


def _horizontal_terms(s: Sode, i: int, F: Expr) -> list:
    """The terms of ``horizontal_apply(s, i, F)``, for a longer ``lincomb``."""
    if F.ctx != s.ctx:
        raise DimensionMismatchError("function from another context")
    neg = _memoised(s, "neg_connection", _neg_connection).entries
    return [F.diff(s.q_pos[i - 1])] + [
        (neg[(j, i)], F.diff(s.v_pos[j - 1])) for j in range(1, s.n + 1)
        if (j, i) in neg]


def jacobi(s: Sode) -> TensorField:
    """The Jacobi endomorphism of the system (a (1,1) tensor)."""
    return _memoised(s, "jacobi", _jacobi)


def _jacobi(s: Sode) -> TensorField:
    """``-(df^i/dq^j + v^k dGamma^i_j/dq^k + f^k theta^i_jk + Gamma^k_j
    Gamma^i_k)``, from the tables of the connection's derivatives."""
    ctx, zero, indices = s.ctx, s.ctx.zero, range(1, s.n + 1)
    conn, theta = connection(s).entries, theta_tensor(s).entries
    dq = _memoised(s, "connection_q", _connection_q).entries
    return TensorField(ctx, (1, 1), {
        (i, j): -lincomb(ctx, [s.f[i - 1].diff(s.q_pos[j - 1])] + [
            term for k in indices for term in (
                (s.velocities[k - 1], dq.get((i, j, k), zero)),
                (s.f[k - 1], theta.get((i, j, k), zero)),
                (conn.get((k, j), zero), conn.get((i, k), zero)))])
        for i in indices for j in indices})


def _derivative_table(s: Sode, positions: Sequence[int]) -> dict:
    """``d Gamma^l_j`` by the generator at ``positions[k - 1]``, slot
    order (l, j, k); a zero entry of the connection is not
    differentiated."""
    return {(l, j, k): entry.diff(at)
            for l, row in enumerate(connection(s).matrix(), start=1)
            for j, entry in enumerate(row, start=1) if entry.num.coeffs
            for k, at in enumerate(positions, start=1)}


def _connection_q(s: Sode) -> TensorField:
    """``d Gamma^l_j / d q^k`` (slot order (l, j, k)), built beside theta."""
    return TensorField(s.ctx, (1, 2), _derivative_table(s, s.q_pos))


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
    ctx, zero, indices = s.ctx, s.ctx.zero, range(1, s.n + 1)
    jac, conn = jacobi(s).entries, connection(s).entries
    theta = theta_tensor(s).entries
    neg = _memoised(s, "neg_connection", _neg_connection).entries
    dq = _memoised(s, "connection_q", _connection_q).entries
    third, minus_third = ctx.const(Fraction(1, 3)), ctx.const(Fraction(-1, 3))
    entries = {}
    # Both formulas are antisymmetric in (i, j) by construction: a
    # comparison with i > j is one with i < j negated, and both vanish
    # on the diagonal.
    for k in indices:
        for i, j in combinations(indices, 2):
            from_connection = lincomb(ctx, [
                dq.get((k, i, j), zero), -dq.get((k, j, i), zero)] + [
                term for l in indices for term in (
                    (neg.get((l, j), zero), theta.get((k, i, l), zero)),
                    (conn.get((l, i), zero), theta.get((k, j, l), zero)))])
            from_jacobi = lincomb(ctx, [
                (third, jac.get((k, j), zero).diff(s.v_pos[i - 1])),
                (minus_third, jac.get((k, i), zero).diff(s.v_pos[j - 1]))])
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
    try:
        return TensorField(s.ctx, (1, 2), _derivative_table(s, s.v_pos),
                           sym=((2, 3),))
    except GeometryError as exc:
        raise InternalInconsistencyError(
            f"connection acquired torsion: {exc}") from exc


def nabla_tensor02(s: Sode, g: TensorField) -> TensorField:
    """Covariant derivative along the flow of a (0,2) tensor:
    ``Gamma(g_ij) - g_ik Gamma^k_j - g_jk Gamma^k_i``. For a ``g``
    declared symmetric the result is too: only ``i <= j`` is built."""
    _expect_02(s, g)
    neg = _memoised(s, "neg_connection", _neg_connection).entries
    gv, zero, indices = g.entries, s.ctx.zero, range(1, s.n + 1)
    symmetric = (1, 2) in g.sym
    entries = {}
    for i in indices:
        for j in indices:
            entries[(i, j)] = entries[(j, i)] if symmetric and j < i else \
                gamma_apply(s, gv.get((i, j), zero), [
                    term for k in indices for term in (
                        (gv.get((i, k), zero), neg.get((k, j), zero)),
                        (gv.get((j, k), zero), neg.get((k, i), zero)))])
    return TensorField(s.ctx, (0, 2), entries)


def _expect_02(s: Sode, g: TensorField):
    if g.ctx != s.ctx:
        raise DimensionMismatchError("tensor belongs to another context")
    if g.shape != (0, 2):
        raise DimensionMismatchError("expected a (0,2) tensor")
