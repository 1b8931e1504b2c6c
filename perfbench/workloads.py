"""The three workloads: which CLI calls each one makes, in what order.

Each workload is a list of ``Op``: the README command-table calls it
covers (fixed inputs, made once per run), then generated problems drawn
from the seed. No input repeats in a run. ``warmup`` gives calls
on inputs that no measured run uses.

* ``certify``: interactive use, 10-250 ms calls spread over cli load
  and render, the numeric cross-check, the condition suites and
  small-system geometry; the solver is nearly idle.
* ``search``: ``solve`` calls, where ansatz assembly, the nonsingularity
  record, exact elimination, substitution re-checks and the
  representative search dominate.
* ``rational_geometry``: n = 3 systems whose kinetic energy depends on
  the positions (non-constant denominators, so multivariate ``cancel``
  and the geometry dominate) and n = 4 systems with constant kinetic
  energy; the solver never runs. This is the control for fast paths
  that only help constant denominators.
"""

from __future__ import annotations

import os
from typing import List

from problems import Op, certify_ops, draw, geometry_ops, search_op, shape

PASS = "verdict: pass"
FAIL = "verdict: FAIL"
SINGULAR = ("verdict: structurally singular family; no nonsingular "
            "multiplier exists in it")
FOUND = "verdict: found"


def _op(command: str, code: int, last=None, lines=(), absent=(),
        forced_zero=()) -> Op:
    return Op(f"readme:{command}", tuple(command.split()), code,
              expect_last=last, expect_lines=tuple(lines),
              expect_absent=tuple(absent), forced_zero=tuple(forced_zero))


# The README command table with its verdicts and quoted outputs.
SOLVE_PLANAR_DRAG = _op(
    "solve planar_drag", 0, FOUND,
    ["solution space dimension: 3", "  g[1,2] = 1", "  g[2,1] = 1"])
SOLVE_COUPLED3 = _op(
    "solve coupled3", 0, FOUND,
    ["solution space dimension: 1", "  g[1,1] = 4", "  g[2,2] = 1",
     "  g[3,3] = 2*q2", "  det = 8*q2"])

README_CERTIFY = (
    _op("analyze planar_drag", 0,
        lines=["  Gamma[1,1] = 1/2*omega", "  Gamma[2,2] = -1/2*omega",
               "  Phi[1,1] = a - 1/4*omega^2", "  Phi[1,2] = b",
               "  Phi[2,1] = -b", "  Phi[2,2] = a - 1/4*omega^2",
               "  (all R entries are zero)"]),
    _op("check planar_drag_indefinite --suite dissipative", 0, PASS),
    _op("check planar_drag --suite dissipative", 0, PASS),
    _op("check planar_drag_euclidean --suite dissipative", 0, PASS),
    _op("check planar_drag --suite classical", 0, PASS),
    _op("check planar_drag_euclidean --suite classical", 1, FAIL,
        ["  FAIL  PhiSym[1,2] = 2*b"]),
    _op("check planar_drag_gyro --suite gyroscopic", 0, PASS),
    _op("check planar_drag --suite thm4", 0, PASS),
    _op("check planar_drag_indefinite --suite thm4", 1, FAIL),
    _op("check planar_drag_euclidean --suite thm4", 1, FAIL),
    _op("check planar_drag_implicit --suite implicit", 0, PASS),
    SOLVE_PLANAR_DRAG,
    _op("reconstruct planar_drag_gyro --suite gyroscopic", 0, PASS,
        ["  L = 1/2*q1^2*b - q1*q2*a - 1/2*q2^2*b + v1*v2",
         "  omega[1,2] = omega"]),
    _op("verify planar_drag_indefinite --forward", 0, PASS),
    _op("analyze coupled3", 0,
        absent=["  (all Phi entries are zero)", "  (all R entries are zero)"]),
    _op("check coupled3 --suite thm3", 0, PASS),
    SOLVE_COUPLED3,
    _op("reconstruct coupled3", 0, PASS,
        ["  L = q2*v3^2 + 2*v1^2 + 1/2*v2^2", "  D = 2*q2*v1^2*v3"]),
    _op("check coupled3 --suite rayleigh", 1, FAIL),
    _op("check coupled3 --suite classical", 1, FAIL),
    _op("reconstruct free2", 0, PASS,
        ["certificate kind: classical", "  L = 1/2*v1^2 + 1/2*v2^2"]),
)

INSTANTIATIONS = ("b=1/2", "b=-1/3", "b=3/4")


def _readme_search(seed) -> List[Op]:
    """The README's solve calls. Of the three README instantiations of
    ``chain4_gyro``, which take the same time, a run makes the one its
    seed picks: all four ``chain4_gyro`` solves would take two thirds of
    a run's time at seed, leaving too few generated solves to place a
    median or a tail."""
    chosen = INSTANTIATIONS[seed % len(INSTANTIATIONS)]
    return [
        _op("solve chain4_gyro", 3, SINGULAR),
        _op(f"solve chain4_gyro --instantiate {chosen}", 3, SINGULAR),
        _op("solve chain4", 3, SINGULAR,
            forced_zero=["g[1,3]", "g[2,3]", "g[3,3]", "g[3,4]"]),
        SOLVE_COUPLED3,
        SOLVE_PLANAR_DRAG,
    ]


PERTURB = ("true", "true", "quadratic", "linear")


def _certify(seed, workdir: str, index: int,
             stream: str = "certify") -> List[Op]:
    """One n = 3 problem, then two n = 2 problems; each n sees every
    perturbation. The cheap calls (every n = 2 call, most README calls
    and the n = 3 ``verify``) are then about three quarters of the
    calls, so the median falls inside their dense cluster, not on the
    sparse boundary between it and the dear n = 3 calls, where a small
    shift moves it far; the tail falls among the n = 3 calls."""
    t = index % 9
    n = 3 if t % 3 == 0 else 2
    form = shape(stream, t, n, PERTURB[t % 4])
    return certify_ops(draw(seed, stream, t, index // 9, form),
                       os.path.join(workdir, f"certify-{index}.json"),
                       f"certify-{index}-s{t}-n{n}-{form.perturb}")


def _search(seed, workdir: str, index: int,
            stream: str = "search") -> List[Op]:
    """Shapes 0, 3 and 6 take the constant ansatz, the rest the degree-1
    one."""
    t = index % 8
    degree = 0 if t % 3 == 0 else 1
    form = shape(stream, t, 3, "true", cubic=True)
    return [search_op(draw(seed, stream, t, index // 8, form),
                      os.path.join(workdir, f"search-{index}.json"),
                      degree, f"search-{index}-s{t}-deg{degree}")]


def _geometry(seed, workdir: str, index: int,
              stream: str = "geometry") -> List[Op]:
    """One n = 3 system with one or two position-dependent kinetic
    entries, then two n = 4 systems with a constant kinetic matrix. The
    n = 3 calls take most of the time; the n = 4 calls are most of the
    calls, so the median call falls inside their cluster."""
    t = index % 9
    n, moving = (3, 1 + t // 3 % 2) if t % 3 == 0 else (4, 0)
    form = shape(stream, t, n, PERTURB[t % 4], moving)
    return geometry_ops(draw(seed, stream, t, index // 9, form),
                        os.path.join(workdir, f"geometry-{index}.json"),
                        f"geometry-{index}-s{t}-n{n}-{form.perturb}")


# name: (README calls for a seed, one problem's calls, nominal reference
# seconds (run.ReferenceClock) of the README calls and of one generated
# problem, measured on the program of commit b9fa981 on a 2-CPU x86-64
# machine).
WORKLOADS = {
    "certify": (lambda seed: README_CERTIFY, _certify, 1.3, 0.37),
    "search": (_readme_search, _search, 10.0, 0.6),
    "rational_geometry": (lambda seed: (), _geometry, 0.0, 1.7),
}
WARMUP_SEED = "warmup"


def calls(workload: str, seed: int, workdir: str, seconds: float) -> List[Op]:
    """README calls and as many generated problems as fill ``seconds``
    at the nominal costs, the README calls spread evenly among the
    generated ones, so a slow stretch of the host does not fall on all
    the dear calls at once. The list depends on the seed and the run
    length only, never on how fast this run goes, so every run makes
    calls of the same sizes in the same proportions."""
    readme, generate, readme_s, problem_s = WORKLOADS[workload]
    fixed = list(readme(seed))
    generated = []
    for index in range(max(2, round((seconds - readme_s) / problem_s))):
        generated.extend(generate(seed, workdir, index))
    placed = [((k + 0.5) / len(part), op) for part in (fixed, generated)
              for k, op in enumerate(part)]
    return [op for _, op in sorted(placed, key=lambda item: item[0])]


def warmup(workload: str, workdir: str) -> List[Op]:
    """Calls on two problems of the workload's kinds but of shapes of
    their own, so no measured run repeats one of them; the caller gives
    them a directory of their own."""
    _readme, generate, _readme_s, _problem_s = WORKLOADS[workload]
    ops = []
    for index in range(2):
        ops.extend(generate(WARMUP_SEED, workdir, index,
                            stream=f"warmup-{workload}"))
    return ops
