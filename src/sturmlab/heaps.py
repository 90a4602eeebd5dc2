"""Two-piece Tetris heaps and exact max-plus scheduling rates.

A piece occupies a set of columns with a lower and an upper contour; dropping
it lands the lower contour on the current heights and rewrites the touched
columns from the upper contour.  A 0-1 word schedules which piece falls.  The
asymptotic growth rate of a periodic schedule is the maximum cycle mean of
the word's max-plus matrix, computed exactly over Fractions with Karp's
algorithm, and the minimum over schedules is attained on balanced words.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .words import check_word, mechanical_word

__all__ = [
    "Piece",
    "HeapModel",
    "default_model",
    "symmetric_model",
    "drop",
    "heap_height",
    "piece_matrix",
    "word_matrix",
    "maxplus_matmul",
    "max_cycle_mean",
    "cycle_rate",
    "RateScan",
    "min_rate_exhaustive",
    "ScheduleRow",
    "ScheduleReport",
    "best_balanced_schedule",
    "model_from_dict",
    "model_to_dict",
    "load_model",
]

Number = Union[Fraction, int]

MAX_EXHAUSTIVE_N = 20


def _fractions(values: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Piece:
    """Columns plus aligned lower/upper contour heights (lower min is 0)."""

    columns: tuple[int, ...]
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))
        object.__setattr__(self, "lower", _fractions(self.lower))
        object.__setattr__(self, "upper", _fractions(self.upper))
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
        if self.num_columns < 1:
            raise ValueError("need at least one column")
        for piece in (self.piece0, self.piece1):
            if any(not 0 <= c < self.num_columns for c in piece.columns):
                raise ValueError("piece columns outside the column range")
        covered = set(self.piece0.columns) | set(self.piece1.columns)
        if covered != set(range(self.num_columns)):
            raise ValueError("pieces must jointly cover every column")

    def piece(self, bit: str) -> Piece:
        return self.piece0 if bit == "0" else self.piece1


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


def symmetric_model() -> HeapModel:
    """Pieces swapped by the column mirror; the optimal ratio is 1/2."""
    return HeapModel(
        num_columns=3,
        piece0=Piece((0, 1), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 2))),
        piece1=Piece((1, 2), (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1))),
    )


def drop(heights: Sequence[Number], piece: Piece) -> tuple[Fraction, ...]:
    """Land one piece: lock at L = max(h[c] - lower[c]), rewrite from upper."""
    heights = _fractions(heights)
    landing = max(heights[c] - piece.lower[i] for i, c in enumerate(piece.columns))
    out = list(heights)
    for i, c in enumerate(piece.columns):
        out[c] = landing + piece.upper[i]
    return tuple(out)


def heap_height(w: str, model: HeapModel) -> Fraction:
    """Maximum column height after dropping the pieces scheduled by ``w``."""
    check_word(w)
    heights: tuple[Fraction, ...] = (Fraction(0),) * model.num_columns
    for bit in w:
        heights = drop(heights, model.piece(bit))
    return max(heights) if heights else Fraction(0)


def piece_matrix(model: HeapModel, bit: str) -> list[list[Optional[Fraction]]]:
    """Max-plus matrix of one drop; None encodes -infinity.

    Row i, column j holds upper_i - lower_j on the piece's columns; untouched
    columns keep an identity (0) diagonal.  Applying the matrix with
    max-plus arithmetic reproduces :func:`drop` exactly.
    """
    piece = model.piece(bit)
    n = model.num_columns
    matrix: list[list[Optional[Fraction]]] = [[None] * n for _ in range(n)]
    touched = set(piece.columns)
    for i in range(n):
        if i in touched:
            ui = piece.upper[piece.columns.index(i)]
            for idx, j in enumerate(piece.columns):
                matrix[i][j] = ui - piece.lower[idx]
        else:
            matrix[i][i] = Fraction(0)
    return matrix


def maxplus_matmul(
    A: list[list[Optional[Fraction]]], B: list[list[Optional[Fraction]]]
) -> list[list[Optional[Fraction]]]:
    """(A (x) B)[i][j] = max_k A[i][k] + B[k][j], with None as -infinity."""
    n = len(A)
    out: list[list[Optional[Fraction]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        row = A[i]
        for j in range(n):
            best: Optional[Fraction] = None
            for k in range(n):
                if row[k] is not None and B[k][j] is not None:
                    value = row[k] + B[k][j]
                    if best is None or value > best:
                        best = value
            out[i][j] = best
    return out


def word_matrix(model: HeapModel, w: str) -> list[list[Optional[Fraction]]]:
    """Matrix of the whole schedule; leftmost letter is applied first."""
    check_word(w)
    if not w:
        raise ValueError("word matrix needs a nonempty schedule")
    matrix = piece_matrix(model, w[0])
    for bit in w[1:]:
        matrix = maxplus_matmul(piece_matrix(model, bit), matrix)
    return matrix


def max_cycle_mean(matrix: list[list[Optional[Fraction]]]) -> Fraction:
    """Maximum cycle mean of a max-plus matrix (Karp), exact over Fractions.

    A virtual source with 0-weight edges to every node makes all cycles
    reachable, then Karp's formula max_v min_k (F_N(v) - F_k(v)) / (N - k)
    applies, where F_k(v) is the best k-edge walk weight into v.
    """
    n = len(matrix)
    total = n + 1
    walk: list[list[Optional[Fraction]]] = [[None] * n for _ in range(total + 1)]
    for v in range(n):
        walk[1][v] = Fraction(0)
    for k in range(2, total + 1):
        previous = walk[k - 1]
        for v in range(n):
            best: Optional[Fraction] = None
            row = matrix[v]
            for u in range(n):
                if previous[u] is not None and row[u] is not None:
                    value = previous[u] + row[u]
                    if best is None or value > best:
                        best = value
            walk[k][v] = best
    result: Optional[Fraction] = None
    for v in range(n):
        final = walk[total][v]
        if final is None:
            continue
        candidate: Optional[Fraction] = None
        for k in range(1, total):
            if walk[k][v] is None:
                continue
            value = Fraction(final - walk[k][v], total - k)
            if candidate is None or value < candidate:
                candidate = value
        if candidate is not None and (result is None or candidate > result):
            result = candidate
    if result is None:
        raise ValueError("matrix digraph has no cycle")
    return result


def cycle_rate(w: str, model: HeapModel) -> Fraction:
    """Asymptotic height per drop of the periodic schedule w, w, w, ..."""
    return max_cycle_mean(word_matrix(model, w)) / len(w)


@dataclass(frozen=True)
class RateScan:
    n: int
    min_rate: Fraction
    argmin: tuple[str, ...]


def min_rate_exhaustive(model: HeapModel, n: int) -> RateScan:
    """Minimum of h(w)/n over all 2^n schedules, with the full argmin set."""
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise ValueError(f"n={n} outside 1..{MAX_EXHAUSTIVE_N}")
    best: Optional[Fraction] = None
    argmin: list[str] = []
    zero = (Fraction(0),) * model.num_columns
    stack = [(zero, "")]
    while stack:
        heights, prefix = stack.pop()
        if len(prefix) == n:
            height = max(heights)
            if best is None or height < best:
                best = height
                argmin = [prefix]
            elif height == best:
                argmin.append(prefix)
            continue
        stack.append((drop(heights, model.piece0), prefix + "0"))
        stack.append((drop(heights, model.piece1), prefix + "1"))
    assert best is not None
    return RateScan(n, Fraction(best, n), tuple(sorted(argmin)))


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
    for q in range(1, q_max + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) != 1:
                continue
            if p == 0:
                word = "0"
            elif p == q:
                word = "1"
            else:
                word = mechanical_word(Fraction(p, q), q)
            rows.append(ScheduleRow(Fraction(p, q), word, cycle_rate(word, model)))
    best = min(rows, key=lambda r: (r.rate, r.ratio.denominator, r.ratio.numerator))
    return ScheduleReport(tuple(rows), best)


def model_from_dict(data: dict) -> HeapModel:
    """Build a HeapModel from parsed JSON; contours accept 'p/q' strings."""

    def piece(entry: dict) -> Piece:
        return Piece(
            tuple(entry["columns"]),
            tuple(Fraction(str(v)) for v in entry["lower"]),
            tuple(Fraction(str(v)) for v in entry["upper"]),
        )

    return HeapModel(
        num_columns=int(data["num_columns"]),
        piece0=piece(data["piece0"]),
        piece1=piece(data["piece1"]),
    )


def model_to_dict(model: HeapModel) -> dict:
    def piece(p: Piece) -> dict:
        return {
            "columns": list(p.columns),
            "lower": [str(v) for v in p.lower],
            "upper": [str(v) for v in p.upper],
        }

    return {
        "num_columns": model.num_columns,
        "piece0": piece(model.piece0),
        "piece1": piece(model.piece1),
    }


def load_model(path: str) -> HeapModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
