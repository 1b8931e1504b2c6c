"""Seeded problem generator and answer oracle for the benchmark.

Every generated problem starts from a Lagrangian ``L`` and a dissipation
function ``D`` drawn from the seed. ``forward_sode`` turns them into the
explicit accelerations ``f`` that the problem file carries, so the
verdict of each command on that file is known by construction:

* ``check --suite dissipative`` with ``g = Hessian(L)`` and the true
  ``D`` passes; ``check --suite thm3`` passes whatever ``D`` says,
  because the multiplier existence test never reads ``D``;
* ``reconstruct`` integrates ``g`` and verifies the result, so it passes;
* ``verify --forward`` passes with the true ``D``;
* ``solve`` under a thm3 ansatz that contains the constant ``Hessian(L)``
  finds a representative: with n = 3 and bound 2 the search grid has
  five values per coordinate, more than the degree 3 of the determinant
  in any coordinate, so by the Combinatorial Nullstellensatz some grid
  point is nonsingular.

Search problems always put every ``va^3`` and ``v1*v2*v3`` into ``D``.
Without them, a system whose accelerations barely depend on the
velocities admits a large family of multipliers, and the representative
search, which enumerates ``5^dimension`` grid points, ran for minutes on
one such n = 3 solve: far out of scale for a run.

Two perturbations of the file's ``D`` give known failures.
``D + c*va*vb`` changes the velocity Hessian of ``D``, so both the
dissipative suite and ``verify`` fail. ``D + c*va`` only adds a constant
force: ``verify`` fails, but the dissipative suite, which reads ``D``
through its velocity Hessian and horizontal derivatives of its velocity
gradient, still passes, so it is never used as a ``check`` negative.

Generation is untimed. A problem's shape, with the magnitude of every
coefficient, comes from a fixed list per stream; the signs of its
coefficients come from a ``random.Random`` keyed by (seed, stream,
shape), which deals each occurrence of a shape in a run another sign
pattern. So the same seed always gives the same files, no file repeats
in a run, and the seed changes values but neither sizes nor the sizes
of the numbers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from invlag.exprcore import ExprContext
from invlag.reconstruct import forward_sode

MAGNITUDES = (1, 2, 3)


@dataclass(frozen=True)
class Op:
    """One CLI call and the answer it must give.

    ``expect_lines`` must appear verbatim in the captured standard
    output and ``expect_absent`` must not; ``expect_last`` is the
    required last line; ``forced_zero`` entries must all be listed as
    forced to zero.
    """

    label: str
    argv: Tuple[str, ...]
    exit_code: int
    expect_last: Optional[str] = None
    expect_lines: Tuple[str, ...] = ()
    expect_absent: Tuple[str, ...] = ()
    forced_zero: Tuple[str, ...] = ()

    def check(self, code: int, out: str) -> Optional[str]:
        """None when the call gave its known answer, else the reason."""
        if code != self.exit_code:
            return f"exit {code}, expected {self.exit_code}"
        lines = out.rstrip("\n").split("\n")
        if self.expect_last is not None and lines[-1] != self.expect_last:
            return f"last line {lines[-1]!r}, expected {self.expect_last!r}"
        present = set(lines)
        for line in self.expect_lines:
            if line not in present:
                return f"missing line {line!r}"
        for line in self.expect_absent:
            if line in present:
                return f"unexpected line {line!r}"
        if self.forced_zero:
            prefix = "entries forced to zero across the whole space: "
            listed = set()
            for line in lines:
                if line.startswith(prefix):
                    listed.update(line[len(prefix):].split(", "))
            missing = [entry for entry in self.forced_zero
                       if entry not in listed]
            if missing:
                return f"not listed as forced to zero: {missing}"
        return None


def _magnitude(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(MAGNITUDES), rng.choice((1, 1, 2, 3)))


def _text(c: Fraction) -> str:
    return f"({c.numerator}/{c.denominator})"


def _monomial(rng: random.Random, names: List[str], degree: int) -> str:
    return "*".join(rng.choice(names) for _ in range(degree))


@dataclass(frozen=True)
class Shape:
    """What a generated problem looks like apart from the signs of its
    coefficients: the kinetic matrix, the monomials of the potential and
    of ``D``, the perturbation of the file's ``D`` and the magnitude of
    every coefficient (potential, then ``D``, then the perturbation).
    Shapes do not depend on the seed, so every run of a workload makes
    calls of the same sizes with coefficients of the same sizes in the
    same proportions, and only the signs change with it."""

    n: int
    g: Tuple[Tuple[str, ...], ...]
    potential: Tuple[str, ...]
    dissipation: Tuple[str, ...]
    perturb: str
    shift: str
    magnitudes: Tuple[Fraction, ...]


def shape(stream: str, template: int, n: int, perturb: str,
          moving: int = 0, cubic: bool = False) -> Shape:
    """Shape number ``template`` of a stream; ``perturb`` is "true",
    "quadratic" or "linear".

    Every shape of a given n has the same number of terms, so shapes
    differ in which monomials they use more than in size. The kinetic
    matrix is symmetric and strictly diagonally dominant, with n - 1
    off-diagonal pairs; ``moving`` of its diagonal entries get a
    ``+ q_m^2`` term, which keeps it positive definite everywhere, so
    also at the origin (the homotopy base point), while giving the
    accelerations non-constant denominators. The potential has three
    terms of degree 2-3 in the positions. ``D`` has terms of velocity
    degree 2, 3 and 3, the first two times a position; with ``cubic`` it
    also has every ``va^3`` and ``v1*...*vn``, whose third velocity
    derivatives leave only multiples of the kinetic matrix as constant
    multipliers.
    """
    rng = random.Random(f"shape/{stream}/{template}")
    qs = [f"q{i}" for i in range(1, n + 1)]
    vs = [f"v{i}" for i in range(1, n + 1)]
    g = [["0"] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = str(rng.randint(n + 1, n + 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, n - 1):
        g[i][j] = g[j][i] = str(rng.choice((-1, 1)))
    for i in rng.sample(range(n), moving):
        g[i][i] += f" + {rng.choice(qs)}^2"
    potential = tuple(_monomial(rng, qs, degree) for degree in (2, 3, 3))
    dissipation = [f"{v}^3" for v in vs] + ["*".join(vs)] if cubic else []
    for degree, with_q in ((2, True), (3, True), (3, False)):
        term = _monomial(rng, vs, degree)
        if with_q:
            term += "*" + rng.choice(qs)
        dissipation.append(term)
    shift = ""
    if perturb == "quadratic":
        shift = f"{rng.choice(vs)}*{rng.choice(vs)}"
    elif perturb == "linear":
        shift = rng.choice(vs)
    count = len(potential) + len(dissipation) + bool(shift)
    magnitudes = tuple(_magnitude(rng) for _ in range(count))
    return Shape(n, tuple(tuple(row) for row in g), potential,
                 tuple(dissipation), perturb, shift, magnitudes)


@dataclass(frozen=True)
class Drawn:
    """A generated problem: ``L``, the accelerations it gives with the
    true ``D``, and the ``D`` its file states."""

    shape: Shape
    L: str
    f: Tuple[str, ...]
    file_D: str


def _sum(coeffs, monomials) -> str:
    return " + ".join(f"{_text(c)}*{m}" for c, m in zip(coeffs, monomials))


def draw(seed, stream: str, template: int, occurrence: int,
         form: Shape) -> Drawn:
    """Occurrence ``occurrence`` of shape ``template`` in a stream:
    ``form`` with the signs of its coefficients drawn from (seed,
    stream, template). The sign patterns of one template are taken in a
    shuffled order, so no two occurrences in a run are the same problem.
    A sign flip leaves every coefficient's size alone, so the seed moves
    a problem's cost less than drawing whole coefficients did."""
    patterns = list(range(2 ** len(form.magnitudes)))
    random.Random(f"{seed}/{stream}/{template}").shuffle(patterns)
    if occurrence >= len(patterns):
        raise ValueError(f"shape {template} of {stream} has only "
                         f"{len(patterns)} sign patterns")
    bits = patterns[occurrence]
    coeffs = [-m if bits >> k & 1 else m
              for k, m in enumerate(form.magnitudes)]
    n = form.n
    kinetic = " + ".join(f"1/2*({form.g[i][j]})*v{i + 1}*v{j + 1}"
                         for i in range(n) for j in range(n)
                         if form.g[i][j] != "0")
    split = len(form.potential)
    L = f"{kinetic} - ({_sum(coeffs[:split], form.potential)})"
    D = _sum(coeffs[split:], form.dissipation)
    ctx = ExprContext(n)
    s = forward_sode(ctx.parse(L), ctx.parse(D), n)
    file_D = D
    if form.shift:
        file_D += f" + {_text(coeffs[-1])}*{form.shift}"
    return Drawn(form, L, tuple(str(e) for e in s.f), file_D)


def write_problem(path: str, data: Dict):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)


def certify_ops(problem: Drawn, path: str, label: str) -> List[Op]:
    """Problem file for one (L, D) and its five CLI calls."""
    form = problem.shape
    write_problem(path, {"n": form.n, "f": list(problem.f),
                         "g": [list(row) for row in form.g],
                         "L": problem.L, "D": problem.file_D})
    check_dissipative = 1 if form.perturb == "quadratic" else 0
    verify = 0 if form.perturb == "true" else 1
    verdict = {0: "verdict: pass", 1: "verdict: FAIL"}
    return [
        Op(f"{label}:analyze", ("analyze", path), 0,
           expect_lines=(f"analyze: {path}",)),
        Op(f"{label}:check-dissipative",
           ("check", path, "--suite", "dissipative"), check_dissipative,
           expect_last=verdict[check_dissipative]),
        Op(f"{label}:check-thm3", ("check", path, "--suite", "thm3"), 0,
           expect_last=verdict[0]),
        Op(f"{label}:reconstruct", ("reconstruct", path), 0,
           expect_last=verdict[0]),
        Op(f"{label}:verify", ("verify", path, "--forward"), verify,
           expect_last=verdict[verify]),
    ]


def geometry_ops(problem: Drawn, path: str, label: str) -> List[Op]:
    """The certify calls without the thm3 check (rational_geometry)."""
    ops = certify_ops(problem, path, label)
    return [op for op in ops if not op.label.endswith("check-thm3")]


def search_op(problem: Drawn, path: str, degree: int, label: str) -> Op:
    """``solve`` under a thm3 ansatz: constant, or of the given degree in
    ``q1`` and ``q2`` (as the README's ``chain4`` ansatz), whose solves
    cost about as much as the dearer constant ones, so the two kinds
    form one spread of call times without a gap."""
    preset = ({"preset": "constant"} if degree == 0
              else {"preset": "polynomial", "degree": degree,
                    "variables": [1, 2]})
    write_problem(path, {"n": problem.shape.n, "f": list(problem.f),
                         "ansatz": {"suite": "thm3", "g": preset,
                                    "bound": 2}})
    return Op(f"{label}:solve", ("solve", path), 0,
              expect_last="verdict: found")
