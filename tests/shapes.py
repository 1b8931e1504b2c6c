"""The free, lin and dense problem shapes of any dimension ``n``.

Usage::

    python tests/shapes.py SHAPE N > problem.json

Each shape is an explicit system generated from its Lagrangian ``L``
and dissipation ``D`` with ``reconstruct.forward_accelerations``, so its
verdicts are known by construction:

* **free n**: ``f = 0`` under a constant ``classical`` ansatz;
* **lin n**: ``L = sum_k 1/2*(k+2+q_{k mod n+1})*v_k^2 + sum_{k<n}
  v_k*v_{k+1} - q1*q2 + 1/3*q1^2`` and ``D = 1/2*v1^2*v_n - q1*v2^2``
  under a ``thm3`` ansatz polynomial of degree 1, searched with bound 1;
  its solution space has dimension 1;
* **dense n**: ``L = sum_k 1/2*(k+3+q_{k mod n+1}^2)*v_k^2 + sum_{k<n}
  q_k*v_k*v_{k+1} - 2/3*q1^2 + q1^2*q_n`` and ``D = 1/2*q_n*v1*v_n -
  1/3*q1*v1^2*v2``, with ``g`` the velocity Hessian of ``L``.

``tests/problems/dense4.json`` is ``dense(4)`` and
``tests/problems/lin5.json`` is ``lin(5)``, each as this script writes
it (``json.dump(..., indent=1)``). pytest does not collect this
module.
"""

from __future__ import annotations

import json
import sys

from invlag.exprcore import ExprContext
from invlag.reconstruct import forward_accelerations, hessian


def _problem(n: int, L: str, D: str) -> dict:
    """The explicit system of ``(L, D)`` with its Hessian as ``g``."""
    ctx = ExprContext(n)
    L_expr, D_expr = ctx.parse(L), ctx.parse(D)
    f = forward_accelerations(L_expr, D_expr)
    g = hessian(L_expr)
    return {"n": n, "parameters": [], "mode": "explicit",
            "f": [str(e) for e in f],
            "g": [[str(g.entry(i, j)) for j in range(1, n + 1)]
                  for i in range(1, n + 1)],
            "L": str(L_expr), "D": str(D_expr)}


def free(n: int) -> dict:
    return {"n": n, "f": ["0"] * n,
            "ansatz": {"suite": "classical", "g": {"preset": "constant"}}}


def lin(n: int) -> dict:
    kinetic = " + ".join(f"1/2*({k + 2} + q{k % n + 1})*v{k}^2"
                         for k in range(1, n + 1))
    coupling = "".join(f" + v{k}*v{k + 1}" for k in range(1, n))
    problem = _problem(n, f"{kinetic}{coupling} - q1*q2 + 1/3*q1^2",
                       f"1/2*v1^2*v{n} - q1*v2^2")
    del problem["g"]
    problem["ansatz"] = {"suite": "thm3",
                         "g": {"preset": "polynomial", "degree": 1},
                         "bound": 1}
    return problem


def dense(n: int) -> dict:
    kinetic = " + ".join(f"1/2*({k + 3} + q{k % n + 1}^2)*v{k}^2"
                         for k in range(1, n + 1))
    coupling = "".join(f" + q{k}*v{k}*v{k + 1}" for k in range(1, n))
    return _problem(n, f"{kinetic}{coupling} - 2/3*q1^2 + q1^2*q{n}",
                    f"1/2*q{n}*v1*v{n} - 1/3*q1*v1^2*v2")


SHAPES = {"free": free, "lin": lin, "dense": dense}


if __name__ == "__main__":
    shape, n = sys.argv[1], int(sys.argv[2])
    json.dump(SHAPES[shape](n), sys.stdout, indent=1)
