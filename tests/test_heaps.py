"""Max-plus heaps of pieces: growth rates and optimal schedules."""

import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab.heaps import (
    HeapModel,
    Piece,
    best_balanced_schedule,
    cycle_rate,
    RateScan,
    default_model,
    max_cycle_mean,
    maxplus_matmul,
    min_rate_exhaustive,
    model_from_dict,
)
from sturmlab.words import is_balanced, mechanical_word

words_st = st.text(alphabet="01", min_size=1, max_size=10)

# The model example in README.md, verbatim.
README_MODEL_JSON = """\
{
  "num_columns": 3,
  "piece0": {"columns": [0, 1], "lower": ["0", "0"], "upper": ["1", "1/2"]},
  "piece1": {"columns": [1, 2], "lower": ["0", "0"], "upper": ["1/2", "3/2"]}
}
"""


@pytest.fixture
def symmetric_model() -> HeapModel:
    """Pieces swapped by the column mirror; the optimal ratio is 1/2."""
    return HeapModel(
        num_columns=3,
        piece0=Piece((0, 1), (0, 0), (1, Fraction(1, 2))),
        piece1=Piece((1, 2), (0, 0), (Fraction(1, 2), 1)),
    )


# Fraction oracles: the one-value-at-a-time forms that the integer
# max-plus product in sturmlab.heaps replaces.  They write -infinity as None;
# _neg_inf reads their matrices in the -math.inf form the public functions take.


def _piece(model, bit):
    return model.piece0 if bit == "0" else model.piece1


def _drop_oracle(heights, piece):
    heights = tuple(Fraction(h) for h in heights)
    landing = max(heights[c] - piece.lower[i] for i, c in enumerate(piece.columns))
    out = list(heights)
    for i, c in enumerate(piece.columns):
        out[c] = landing + piece.upper[i]
    return tuple(out)


def _heap_height_oracle(w, model):
    heights = (Fraction(0),) * model.num_columns
    for bit in w:
        heights = _drop_oracle(heights, _piece(model, bit))
    return max(heights)


def _piece_matrix_oracle(model, bit):
    piece = _piece(model, bit)
    n = model.num_columns
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        if i in piece.columns:
            ui = piece.upper[piece.columns.index(i)]
            for idx, j in enumerate(piece.columns):
                matrix[i][j] = ui - piece.lower[idx]
        else:
            matrix[i][i] = Fraction(0)
    return matrix


def _matmul_oracle(A, B):
    n = len(A)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if A[i][k] is not None and B[k][j] is not None:
                    value = A[i][k] + B[k][j]
                    if out[i][j] is None or value > out[i][j]:
                        out[i][j] = value
    return out


def _neg_inf(matrix):
    return [[-math.inf if x is None else x for x in row] for row in matrix]


def _word_matrix_oracle(model, w):
    matrix = _piece_matrix_oracle(model, w[0])
    for bit in w[1:]:
        matrix = _matmul_oracle(_piece_matrix_oracle(model, bit), matrix)
    return matrix


def _karp_oracle(matrix):
    """Karp over Fractions: walk[k][v] is the best k-edge walk into v from a 0-weight source."""
    n = len(matrix)
    total = n + 1
    walk = [[None] * n for _ in range(total + 1)]
    walk[1] = [Fraction(0)] * n
    for k in range(2, total + 1):
        for v in range(n):
            for u in range(n):
                if walk[k - 1][u] is not None and matrix[v][u] is not None:
                    value = walk[k - 1][u] + matrix[v][u]
                    if walk[k][v] is None or value > walk[k][v]:
                        walk[k][v] = value
    means = [
        min(Fraction(walk[total][v] - walk[k][v], total - k) for k in range(1, total) if walk[k][v] is not None)
        for v in range(n)
        if walk[total][v] is not None
    ]
    return max(means)


def _min_rate_oracle(model, n):
    """Every schedule of length n, dropped one Fraction at a time."""
    best, argmin = None, []
    for bits in product("01", repeat=n):
        w = "".join(bits)
        height = _heap_height_oracle(w, model)
        if best is None or height < best:
            best, argmin = height, [w]
        elif height == best:
            argmin.append(w)
    return best / n, tuple(sorted(argmin))


def _dot_oracle(row, column):
    """Max-plus inner product with None as -infinity, one term at a time."""
    best = None
    for a, b in zip(row, column):
        if a is not None and b is not None:
            value = a + b
            if best is None or value > best:
                best = value
    return best


def _apply_oracle(matrix, vector):
    return tuple(_dot_oracle(row, vector) for row in matrix)


def _min_rate_dfs_oracle(model, n):
    """Every schedule of length n, walked depth-first on integer drop matrices (None is -infinity)
    scaled from the Fraction piece matrices by the contours' lcm d."""
    d = math.lcm(*(x.denominator for p in (model.piece0, model.piece1) for x in p.lower + p.upper))
    zero, one = ([[None if x is None else int(x * d) for x in row] for row in _piece_matrix_oracle(model, bit)]
                 for bit in "01")
    best, argmin = None, []
    stack = [((0,) * model.num_columns, "")]
    while stack:
        heights, prefix = stack.pop()
        if len(prefix) == n:
            height = max(heights)
            if best is None or height < best:
                best, argmin = height, [prefix]
            elif height == best:
                argmin.append(prefix)
            continue
        stack.append((_apply_oracle(zero, heights), prefix + "0"))
        stack.append((_apply_oracle(one, heights), prefix + "1"))
    return RateScan(n, Fraction(best, n * d), tuple(sorted(argmin)))


def uniform_model():
    """Both pieces flat with thickness 2 on overlapping columns: every schedule ties."""
    return HeapModel(
        num_columns=2,
        piece0=Piece((0, 1), (0, 0), (1, 2)),
        piece1=Piece((0, 1), (0, 0), (2, 1)),
    )


@st.composite
def heap_models(draw):
    """1-4 columns, every column covered, contours with mixed denominators."""
    c = draw(st.integers(min_value=1, max_value=4))
    columns = st.lists(st.integers(min_value=0, max_value=c - 1), min_size=1, max_size=c, unique=True)
    heights = st.fractions(min_value=0, max_value=4, max_denominator=7)
    cols0 = draw(columns)
    missing = [i for i in range(c) if i not in cols0]
    cols1 = draw(columns.filter(lambda cols: set(missing) <= set(cols)))

    def piece(cols):
        lower = [draw(heights) for _ in cols]
        lower = [x - min(lower) for x in lower]
        return Piece(tuple(cols), tuple(lower), tuple(x + draw(heights) for x in lower))

    return HeapModel(c, piece(cols0), piece(cols1))


@settings(deadline=None, max_examples=60)
@given(
    heap_models(),
    st.integers(min_value=1, max_value=8),
    st.lists(st.text(alphabet="01", min_size=1, max_size=8), min_size=1, max_size=6),
)
def test_integer_product_matches_fraction_oracles(model, n, schedules):
    scan = min_rate_exhaustive(model, n)
    assert repr((scan.min_rate, scan.argmin)) == repr(_min_rate_oracle(model, n))
    for w in schedules:
        expected = _word_matrix_oracle(model, w)
        assert repr(cycle_rate(w, model)) == repr(_karp_oracle(expected) / len(w))
        assert repr(max_cycle_mean(_neg_inf(expected))) == repr(_karp_oracle(expected))
        if len(w) > 1:
            head = _neg_inf(_word_matrix_oracle(model, w[:-1]))
            assert maxplus_matmul(_neg_inf(_piece_matrix_oracle(model, w[-1])), head) == _neg_inf(expected)


@settings(deadline=None, max_examples=100)
@given(heap_models(), st.integers(min_value=1, max_value=12))
def test_min_rate_matches_exhaustive_dfs_oracle(model, n):
    assert repr(min_rate_exhaustive(model, n)) == repr(_min_rate_dfs_oracle(model, n))


@pytest.mark.parametrize("n", range(1, 17))
def test_min_rate_matches_dfs_oracle_on_default_model(n):
    model = default_model()
    assert repr(min_rate_exhaustive(model, n)) == repr(_min_rate_dfs_oracle(model, n))


# The two flat pieces sharing column 1 that the CLI tests read from a file.
_FLAT = {"lower": ["0", "0"], "upper": ["1", "1"]}
CLI_MODEL = {"num_columns": 3, "piece0": dict(_FLAT, columns=[0, 1]), "piece1": dict(_FLAT, columns=[1, 2])}


def _fresh(model: HeapModel) -> HeapModel:
    """An equal model that has swept no frontier yet."""
    return HeapModel(model.num_columns, model.piece0, model.piece1)


@pytest.mark.parametrize(
    "order", (range(1, 13), range(12, 0, -1), (6, 6, 2, 11, 11, 1, 12, 9, 12)),
    ids=("ascending", "descending", "repeated"),
)
@pytest.mark.parametrize("data", (README_MODEL_JSON, json.dumps(CLI_MODEL)), ids=("default", "cli"))
def test_shared_frontier_matches_a_fresh_model_in_any_order(data, order):
    # One model's frontiers grow across calls; each scan equals a fresh model's.
    model = model_from_dict(json.loads(data))
    for n in order:
        assert min_rate_exhaustive(model, n) == min_rate_exhaustive(_fresh(model), n), n


@settings(deadline=None, max_examples=40)
@given(heap_models(), st.lists(st.integers(min_value=1, max_value=10), min_size=2, max_size=5))
def test_shared_frontier_matches_fresh_models_on_random_models(model, order):
    for n in order:
        assert min_rate_exhaustive(model, n) == min_rate_exhaustive(_fresh(model), n), n


def test_ground_frontier_sizes_are_pinned():
    # Pareto pruning keeps the default model's ground frontier at 21 profiles by
    # depth 12; kept whole, it holds 243 there, and every scan still agrees.
    model = default_model()
    ground = (0,) * model.num_columns
    sizes = []
    for n in range(1, 13):
        min_rate_exhaustive(model, n)
        sizes.append(len(model._frontiers[ground][0]))
    assert sizes == [2, 4, 6, 7, 9, 11, 12, 14, 16, 17, 19, 21]


def test_min_rate_keeps_every_tied_schedule():
    scan = min_rate_exhaustive(uniform_model(), 12)
    assert len(scan.argmin) == 4096
    assert repr(scan) == repr(_min_rate_dfs_oracle(uniform_model(), 12))


@given(words_st, words_st)
def test_maxplus_matmul_matches_triple_loop(u, v):
    model = default_model()
    left, right = _word_matrix_oracle(model, u), _word_matrix_oracle(model, v)
    assert maxplus_matmul(_neg_inf(left), _neg_inf(right)) == _neg_inf(_matmul_oracle(left, right))
    assert max_cycle_mean(_neg_inf(left)) == _karp_oracle(left)


def test_piece_validation():
    with pytest.raises(ValueError):
        Piece((0, 0), (0, 0), (1, 1))  # repeated column
    with pytest.raises(ValueError):
        Piece((0, 1), (1, 2), (3, 3))  # lower contour not grounded at 0
    with pytest.raises(ValueError):
        Piece((0, 1), (0, 0), (1, -1))  # upper below lower


def test_piece_columns_must_be_integers():
    with pytest.raises(ValueError, match="columns must be integers"):
        Piece((0.5, 1), (0, 0), (1, 1))
    with pytest.raises(ValueError, match="columns must be integers"):
        Piece((True, 2), (0, 0), (1, 1))
    data = json.loads(README_MODEL_JSON)
    data["piece0"]["columns"] = [0.5, 1]
    with pytest.raises(ValueError, match="columns must be integers"):
        model_from_dict(data)


def test_model_requires_column_cover():
    thin = Piece((0,), (0,), (1,))
    with pytest.raises(ValueError):
        HeapModel(num_columns=2, piece0=thin, piece1=thin)


def test_drop_stacks_on_highest_support():
    model = default_model()
    heights = _drop_oracle((Fraction(0),) * 3, model.piece0)
    assert heights == (Fraction(1), Fraction(1, 2), Fraction(0))
    heights = _drop_oracle(heights, model.piece1)
    # piece1 lands on the shared column at height 1/2.
    assert heights == (Fraction(1), Fraction(1), Fraction(2))
    # Of the four two-drop schedules (heights 2, 2, 3/2, 3) "10" stacks lowest.
    assert min_rate_exhaustive(model, 2) == RateScan(2, Fraction(3, 4), ("10",))


def test_heap_height_matches_word_matrix():
    model = default_model()
    heights = []
    for bits in product("01", repeat=6):
        w = "".join(bits)
        matrix = _word_matrix_oracle(model, w)
        finite = [x for row in matrix for x in row if x is not None]
        assert _heap_height_oracle(w, model) == max(finite)
        heights.append(max(finite))
    assert min_rate_exhaustive(model, 6).min_rate == min(heights) / 6


@given(words_st, words_st)
def test_word_matrix_is_multiplicative(u, v):
    model = default_model()
    left = _neg_inf(_word_matrix_oracle(model, u + v))
    right = maxplus_matmul(_neg_inf(_word_matrix_oracle(model, v)), _neg_inf(_word_matrix_oracle(model, u)))
    assert left == right


@given(words_st)
def test_height_dominates_cycle_mean(w):
    model = default_model()
    assert _heap_height_oracle(w, model) >= max_cycle_mean(_neg_inf(_word_matrix_oracle(model, w)))
    assert _heap_height_oracle(w, model) >= cycle_rate(w, model) * len(w)


def test_pure_schedule_rates():
    model = default_model()
    assert cycle_rate("0", model) == Fraction(1)
    assert cycle_rate("1", model) == Fraction(3, 2)
    with pytest.raises(ValueError, match="nonempty schedule"):
        cycle_rate("", model)


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


def test_symmetric_model_prefers_alternation(symmetric_model):
    report = best_balanced_schedule(symmetric_model, q_max=6)
    assert report.best.ratio == Fraction(1, 2)
    assert cycle_rate("01", symmetric_model) == report.best.rate


def test_uniform_contours_are_degenerate():
    # Every schedule stacks to the same height, so the word cannot matter.
    model = uniform_model()
    rates = {cycle_rate(w, model) for w in ("0", "1", "01", "0011", "010011")}
    assert rates == {Fraction(2)}
    scan = min_rate_exhaustive(model, 6)
    assert scan.min_rate == 2
    assert scan.argmin == tuple("".join(bits) for bits in product("01", repeat=6))


def test_max_cycle_mean_requires_a_cycle():
    acyclic = [[-math.inf, Fraction(1)], [-math.inf, -math.inf]]
    with pytest.raises(ValueError, match="no cycle"):
        max_cycle_mean(acyclic)
    assert max_cycle_mean([[Fraction(3)]]) == Fraction(3)
    # Node 1 has no in-edge, so no walk ends there: it is skipped, not averaged.
    assert max_cycle_mean([[Fraction(2), Fraction(7)], [-math.inf, -math.inf]]) == Fraction(2)


def test_none_is_not_minus_infinity():
    # The public max-plus functions take -math.inf as -infinity; None is refused.
    with pytest.raises(TypeError):
        maxplus_matmul([[None, 1]], [[0], [1]])
    with pytest.raises(TypeError):
        max_cycle_mean([[None, Fraction(1)], [Fraction(1), None]])


def test_min_rate_exhaustive_guard():
    with pytest.raises(ValueError, match=r"n=25 outside 1\.\.20"):
        min_rate_exhaustive(default_model(), 25)
    with pytest.raises(ValueError, match=r"n=0 outside 1\.\.20"):
        min_rate_exhaustive(default_model(), 0)


def test_model_serialization_round_trip():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert README_MODEL_JSON in readme
    assert model_from_dict(json.loads(README_MODEL_JSON)) == default_model()


def test_piece_matrix_shape():
    model = default_model()
    d, (matrix, _) = model._integer_form
    assert d == 2
    assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
    # Column 2 is untouched by piece0: identity row.
    assert matrix[2][2] == 0
    assert matrix[2][0] == matrix[2][1] == -math.inf
    scaled = [[x if x == -math.inf else Fraction(x, d) for x in row] for row in matrix]
    assert scaled == _neg_inf(_piece_matrix_oracle(model, "0"))
