"""The checked-in problems of ``tests/problems/`` are what ``shapes``
generates from their ``(L, D)``."""

import json
import pathlib

import shapes

PROBLEMS = pathlib.Path(__file__).resolve().parent / "problems"


def stored(name):
    return json.loads((PROBLEMS / f"{name}.json").read_text(encoding="utf-8"))


def test_dense4_is_the_dense_shape_of_dimension_4():
    problem, generated = stored("dense4"), shapes.dense(4)
    assert generated["f"] == problem["f"]
    assert generated["g"] == problem["g"]


def test_lin5_is_the_lin_shape_of_dimension_5():
    problem, generated = stored("lin5"), shapes.lin(5)
    assert generated["f"] == problem["f"]
    assert generated == problem
