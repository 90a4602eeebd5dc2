"""Max-plus heaps of pieces: growth rates and optimal schedules."""

import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab.heaps import (
    HeapModel,
    Piece,
    best_balanced_schedule,
    cycle_rate,
    default_model,
    drop,
    heap_height,
    load_model,
    max_cycle_mean,
    maxplus_matmul,
    min_rate_exhaustive,
    model_from_dict,
    model_to_dict,
    piece_matrix,
    symmetric_model,
    word_matrix,
)
from sturmlab.words import is_balanced, mechanical_word

words_st = st.text(alphabet="01", min_size=1, max_size=10)


def test_piece_validation():
    with pytest.raises(ValueError):
        Piece((0, 0), (0, 0), (1, 1))  # repeated column
    with pytest.raises(ValueError):
        Piece((0, 1), (1, 2), (3, 3))  # lower contour not grounded at 0
    with pytest.raises(ValueError):
        Piece((0, 1), (0, 0), (1, -1))  # upper below lower


def test_model_requires_column_cover():
    thin = Piece((0,), (0,), (1,))
    with pytest.raises(ValueError):
        HeapModel(num_columns=2, piece0=thin, piece1=thin)


def test_drop_stacks_on_highest_support():
    model = default_model()
    heights = drop((Fraction(0),) * 3, model.piece0)
    assert heights == (Fraction(1), Fraction(1, 2), Fraction(0))
    heights = drop(heights, model.piece1)
    # piece1 lands on the shared column at height 1/2.
    assert heights == (Fraction(1), Fraction(1), Fraction(2))


def test_heap_height_matches_word_matrix():
    model = default_model()
    for bits in product("01", repeat=6):
        w = "".join(bits)
        matrix = word_matrix(model, w)
        finite = [x for row in matrix for x in row if x is not None]
        assert heap_height(w, model) == max(finite)


@given(words_st, words_st)
def test_word_matrix_is_multiplicative(u, v):
    model = default_model()
    left = word_matrix(model, u + v)
    right = maxplus_matmul(word_matrix(model, v), word_matrix(model, u))
    assert left == right


@given(words_st)
def test_height_dominates_cycle_mean(w):
    model = default_model()
    assert heap_height(w, model) >= max_cycle_mean(word_matrix(model, w))


def test_pure_schedule_rates():
    model = default_model()
    assert cycle_rate("0", model) == Fraction(1)
    assert cycle_rate("1", model) == Fraction(3, 2)


def test_balanced_third_is_the_optimum():
    model = default_model()
    assert cycle_rate("010", model) == Fraction(2, 3)
    for n in range(1, 11):
        scan = min_rate_exhaustive(model, n)
        assert any(is_balanced(w) for w in scan.argmin)
        assert scan.min_rate >= Fraction(2, 3)
        if n % 3 == 0:
            assert scan.min_rate == Fraction(2, 3)


def test_cycle_rate_is_rotation_invariant():
    model = default_model()
    w = "010011"
    for k in range(len(w)):
        assert cycle_rate(w[k:] + w[:k], model) == cycle_rate(w, model)


def test_best_balanced_schedule_default_model():
    report = best_balanced_schedule(default_model(), q_max=8)
    assert report.best.ratio == Fraction(1, 3)
    assert report.best.rate == Fraction(2, 3)
    assert report.best.word == mechanical_word(Fraction(1, 3), 3)


def test_symmetric_model_prefers_alternation():
    report = best_balanced_schedule(symmetric_model(), q_max=6)
    assert report.best.ratio == Fraction(1, 2)
    assert cycle_rate("01", symmetric_model()) == report.best.rate


def test_uniform_contours_are_degenerate():
    # Both pieces flat with thickness 2 on overlapping columns: every
    # schedule stacks to the same height, so the word cannot matter.
    model = HeapModel(
        num_columns=2,
        piece0=Piece((0, 1), (0, 0), (1, 2)),
        piece1=Piece((0, 1), (0, 0), (2, 1)),
    )
    rates = {cycle_rate(w, model) for w in ("0", "1", "01", "0011", "010011")}
    assert rates == {Fraction(2)}
    for bits in product("01", repeat=6):
        assert heap_height("".join(bits), model) == 12


def test_max_cycle_mean_requires_a_cycle():
    acyclic = [[None, Fraction(1)], [None, None]]
    with pytest.raises(ValueError):
        max_cycle_mean(acyclic)
    assert max_cycle_mean([[Fraction(3)]]) == Fraction(3)


def test_min_rate_exhaustive_guard():
    with pytest.raises(ValueError, match=r"n=25 outside 1\.\.20"):
        min_rate_exhaustive(default_model(), 25)
    with pytest.raises(ValueError, match=r"n=0 outside 1\.\.20"):
        min_rate_exhaustive(default_model(), 0)


def test_model_serialization_round_trip(tmp_path):
    model = default_model()
    data = model_to_dict(model)
    assert model_from_dict(data) == model
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert load_model(str(path)) == model


def test_piece_matrix_shape():
    model = default_model()
    matrix = piece_matrix(model, "0")
    assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
    # Column 2 is untouched by piece0: identity row.
    assert matrix[2][2] == Fraction(0)
    assert matrix[2][0] is None and matrix[2][1] is None
