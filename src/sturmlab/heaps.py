"""Two-piece Tetris heaps and exact max-plus scheduling rates.

A piece occupies a set of columns with a lower and an upper contour; dropping
it lands the lower contour on the current heights and rewrites the touched
columns from the upper contour.  A 0-1 word schedules which piece falls.  The
asymptotic growth rate of a periodic schedule is the maximum cycle mean of
the word's max-plus matrix, computed exactly with Karp's algorithm, and the
minimum over schedules is attained on balanced words.  The least height of n
drops comes from a Pareto frontier of height profiles, and all schedules that
reach it from a depth-first search that cuts only hopeless prefixes.

Every drop and matrix product runs one integer max-plus inner product: a model
scales its piece matrices once by d, the lcm of the contours' denominators,
and only returned values become Fractions.  Max-plus -infinity is -math.inf.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .words import check_word, coprime_pairs, mechanical_word

__all__ = [
    "Piece",
    "HeapModel",
    "default_model",
    "maxplus_matmul",
    "max_cycle_mean",
    "cycle_rate",
    "RateScan",
    "min_rate_exhaustive",
    "ScheduleRow",
    "ScheduleReport",
    "best_balanced_schedule",
    "model_from_dict",
]

MAX_EXHAUSTIVE_N = 20


@dataclass(frozen=True)
class Piece:
    """Columns plus aligned lower/upper contour heights (lower min is 0)."""

    columns: tuple[int, ...]
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if any(type(c) is not int for c in self.columns):
            raise ValueError(f"piece columns must be integers, got {list(self.columns)}")
        object.__setattr__(self, "lower", tuple(Fraction(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(Fraction(v) for v in self.upper))
        if not self.columns:
            raise ValueError("a piece must occupy at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("piece columns must be distinct")
        if not len(self.columns) == len(self.lower) == len(self.upper):
            raise ValueError("contours must align with columns")
        if min(self.lower) != 0:
            raise ValueError("lower contour must be normalized to min 0")
        if any(u < l for l, u in zip(self.lower, self.upper)):
            raise ValueError("upper contour must dominate lower contour")


@dataclass(frozen=True)
class HeapModel:
    """Two pieces over ``num_columns`` columns; together they cover all."""

    num_columns: int
    piece0: Piece
    piece1: Piece

    def __post_init__(self):
        if type(self.num_columns) is not int:
            raise ValueError(f"num_columns must be an integer, got {self.num_columns!r}")
        if self.num_columns < 1:
            raise ValueError("need at least one column")
        for piece in (self.piece0, self.piece1):
            if any(not 0 <= c < self.num_columns for c in piece.columns):
                raise ValueError("piece columns outside the column range")
        covered = set(self.piece0.columns) | set(self.piece1.columns)
        if covered != set(range(self.num_columns)):
            raise ValueError("pieces must jointly cover every column")

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[list[list[float]], ...]]:
        """(d, matrices): the drop matrix of piece0 and of piece1, times d, the contours' lcm."""
        d = math.lcm(*(x.denominator for p in (self.piece0, self.piece1) for x in p.lower + p.upper))
        return d, tuple(_integer_matrix(p, self.num_columns, d) for p in (self.piece0, self.piece1))

    @cached_property
    def _frontiers(self) -> dict:
        """Per start profile, [its deepest Pareto frontier swept so far, least top heights by depth]."""
        return {}


def default_model() -> HeapModel:
    """Shipped default: optimal ratio 1/3 at rate 2/3, pure rates 1 and 3/2.

    piece0 is thick on its private column 0 and thin on the shared column 1;
    piece1 is thin on the shared column and thick on its private column 2.
    Neither pure schedule is optimal and the best interleaving is the
    balanced word of density 1/3, which exhaustive search confirms.
    """
    return HeapModel(
        num_columns=3,
        piece0=Piece((0, 1), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 2))),
        piece1=Piece((1, 2), (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))),
    )


def _dot(row: Sequence, column: Sequence):
    """Max-plus inner product max_k row[k] + column[k]."""
    return max(map(operator.add, row, column))


def _apply(matrix: list[list], vector: Sequence) -> tuple:
    """Max-plus matrix-vector product: entry i is the product of row i and the vector."""
    return tuple([_dot(row, vector) for row in matrix])


def _integer_matrix(piece: Piece, n: int, d: int) -> list[list[float]]:
    """Max-plus drop matrix of ``piece`` over ``n`` columns, times ``d``.

    Row i, column j holds upper_i - lower_j on the piece's columns; untouched
    columns keep an identity (0) diagonal.
    """
    lower = dict(zip(piece.columns, piece.lower))
    matrix = [[0 if i == j else -math.inf for j in range(n)] for i in range(n)]
    for ui, i in zip(piece.upper, piece.columns):
        matrix[i] = [int((ui - lower[j]) * d) if j in lower else -math.inf for j in range(n)]
    return matrix


def maxplus_matmul(A: list[list], B: list[list]) -> list[list]:
    """(A (x) B)[i][j] = max_k A[i][k] + B[k][j], with -math.inf as -infinity."""
    columns = list(zip(*B))
    return [[_dot(row, column) for column in columns] for row in A]


def max_cycle_mean(matrix: list[list]) -> Fraction:
    """Maximum cycle mean of a max-plus matrix (Karp) as an exact Fraction; -math.inf is -infinity.

    A virtual source with 0-weight edges to every node makes all cycles
    reachable, then Karp's formula max_v min_k (F_n(v) - F_k(v)) / (n - k)
    applies, where F_k(v) is the best (k+1)-edge walk weight from the source to v.
    Where F_n(v) is finite so is every F_k(v): each suffix of its walk starts at the source.
    """
    n = len(matrix)
    walks = [(0,) * n]
    for _ in range(n):
        walks.append(_apply(matrix, walks[-1]))
    means = [min(Fraction(final - walk[v], n - k) for k, walk in enumerate(walks[:n]))
             for v, final in enumerate(walks[n]) if final > -math.inf]
    if not means:
        raise ValueError("matrix digraph has no cycle")
    return max(means)


def cycle_rate(w: str, model: HeapModel) -> Fraction:
    """Asymptotic height per drop of the periodic schedule w, w, w, ...

    The schedule's max-plus matrix applies the leftmost letter first.
    """
    check_word(w)
    if not w:
        raise ValueError("word matrix needs a nonempty schedule")
    d, matrices = model._integer_form
    matrix = matrices[w[0] != "0"]
    for bit in w[1:]:
        matrix = maxplus_matmul(matrices[bit != "0"], matrix)
    return max_cycle_mean(matrix) / (len(w) * d)


@dataclass(frozen=True)
class RateScan:
    n: int
    min_rate: Fraction
    argmin: tuple[str, ...]


def _frontier_minima(model: HeapModel, start: tuple, n: int) -> list[int]:
    """Least top height after r drops from ``start``, for r = 0..n.

    Each depth keeps only its Pareto-minimal profiles: drops are monotone, so a dominated
    profile never ends lower, and sorted in tuple order a profile follows all that dominate it.
    The model keeps each start's deepest frontier, so a call sweeps only depths not yet reached.
    """
    state = model._frontiers.setdefault(start, [[start], [max(start)]])
    frontier, minima = state
    matrices = model._integer_form[1]
    while len(minima) <= n:
        profiles = sorted({_apply(m, h) for h in frontier for m in matrices})
        frontier = []
        for h in profiles:
            if not any(all(map(operator.le, g, h)) for g in frontier):
                frontier.append(h)
        minima.append(min(map(max, frontier)))
        state[0] = frontier
    return minima[: n + 1]


def min_rate_exhaustive(model: HeapModel, n: int) -> RateScan:
    """Minimum of h(w)/n over all 2^n schedules, with the full argmin set.

    The minimum is the frontier minimum from the ground.  The argmin comes from
    a depth-first search that cuts a prefix with heights h and r drops left only
    when max_j h_j + tails[r][j], with tails[r][j] the r-drop frontier minimum
    from 0 on column j alone, is strictly above it: ties survive, so it is exact.
    """
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise ValueError(f"n={n} outside 1..{MAX_EXHAUSTIVE_N}")
    d, (zero, one) = model._integer_form
    columns = range(model.num_columns)
    ground = (0,) * model.num_columns
    best = _frontier_minima(model, ground, n)[n]
    units = [tuple(0 if i == j else -math.inf for i in columns) for j in columns]
    tails = list(zip(*(_frontier_minima(model, unit, n) for unit in units)))
    argmin: list[str] = []
    stack = [(ground, "")]
    while stack:
        heights, prefix = stack.pop()
        left = n - len(prefix)
        if max(map(operator.add, heights, tails[left])) > best:
            continue
        if left:
            stack += (_apply(zero, heights), prefix + "0"), (_apply(one, heights), prefix + "1")
        else:
            argmin.append(prefix)
    return RateScan(n, Fraction(best, n * d), tuple(sorted(argmin)))


@dataclass(frozen=True)
class ScheduleRow:
    ratio: Fraction
    word: str
    rate: Fraction


@dataclass(frozen=True)
class ScheduleReport:
    rows: tuple[ScheduleRow, ...]
    best: ScheduleRow


def best_balanced_schedule(model: HeapModel, q_max: int) -> ScheduleReport:
    """Best periodic balanced schedule over all ratios p/q with q <= q_max.

    Ratios 0/1 and 1/1 (pure schedules) are included.  Ties break toward the
    smaller denominator, then the smaller numerator.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    rows = []
    for p, q in [(0, 1), (1, 1)] + coprime_pairs(q_max):
        word = mechanical_word(Fraction(p, q), q)
        rows.append(ScheduleRow(Fraction(p, q), word, cycle_rate(word, model)))
    best = min(rows, key=lambda r: (r.rate, r.ratio.denominator, r.ratio.numerator))
    return ScheduleReport(tuple(rows), best)


def model_from_dict(data: dict) -> HeapModel:
    """Build a HeapModel from parsed JSON; contours accept 'p/q' strings."""
    try:
        num_columns = data["num_columns"]
        pieces = [
            Piece(
                tuple(data[key]["columns"]),
                tuple(Fraction(str(v)) for v in data[key]["lower"]),
                tuple(Fraction(str(v)) for v in data[key]["upper"]),
            )
            for key in ("piece0", "piece1")
        ]
    except KeyError as exc:
        raise ValueError(f"heap model needs a {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise ValueError(f"malformed heap model: {exc}") from None
    return HeapModel(num_columns, *pieces)

