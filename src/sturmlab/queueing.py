"""Seeded admission-control simulation of a single-server queue.

Customers arrive in a Poisson stream (independent exponential interarrival
times); the admission sequence decides who enters.  Service is first-in
first-out with a deterministic service duration.  The cost charged to
customer k is the number of admitted customers still in the system on its
arrival, counting itself when admitted; rejected customers cost zero.  With
admission density fixed, mechanically spread admissions minimize the mean
cost, which ``admission_competition`` probes with common random numbers.

A run takes a bool mask over the horizon and counts only the admitted
customers.  ``_completions`` gives each its busy-period head h and writes
c_j = (a_h + s) + (j - h)*s wherever the recursion's own steps hold, bit for
bit; ``_in_system`` counts departures from the head, checking each estimate.
Both write every step into a ``_workspace`` sized by the admitted count;
a race's shuffle masks all admit one count, so their runs share one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .words import MechanicalSpec, check_word, parse_slope, symbol_stream

__all__ = [
    "QueueConfig",
    "QueueSummary",
    "simulate_queue",
    "random_admission_word",
    "admission_competition",
    "queue_config_from_dict",
]


@dataclass(frozen=True)
class QueueConfig:
    """Parameters of one simulation run.

    ``mean_interarrival`` is the mean of the exponential interarrival times,
    ``service_time`` the deterministic service duration, ``horizon`` the
    number of arriving customers, and ``admission`` either a finite word
    (repeated cyclically) or a MechanicalSpec.  The seed fully determines the
    arrival stream (numpy PCG64), so runs are bitwise reproducible.
    """

    mean_interarrival: float = 1.0
    service_time: float = 2.0
    horizon: int = 10_000
    seed: int = 0
    admission: Union[str, MechanicalSpec] = "1"

    def __post_init__(self):
        for name in ("mean_interarrival", "service_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("horizon", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.admission, str):
            check_word(self.admission)
            if not self.admission:
                raise ValueError("admission word must be nonempty")
        elif not isinstance(self.admission, MechanicalSpec):
            raise ValueError(f"admission must be a 0/1 word or a MechanicalSpec, got {self.admission!r}")

    @property
    def admission_density(self) -> Union[Fraction, float]:
        if isinstance(self.admission, MechanicalSpec):
            gamma = self.admission.gamma
            return gamma if isinstance(gamma, (Fraction, int)) else float(gamma)
        ones = np.count_nonzero(np.frombuffer(self.admission.encode(), np.uint8) == ord("1"))
        return Fraction(int(ones), len(self.admission))


@dataclass(frozen=True)
class QueueSummary:
    """Aggregates of one run: mean cost, worst backlog, admitted share."""

    seed: int
    gamma: Union[Fraction, float]
    horizon: int
    mean_cost: float
    max_queue: int
    admitted: int

    @property
    def admitted_fraction(self) -> float:
        return self.admitted / self.horizon


@lru_cache(maxsize=1)
def _arrival_times(seed: int, mean_interarrival: float, horizon: int) -> np.ndarray:
    """The seeded arrival instants, read-only so runs can share one draw."""
    arrivals = np.random.default_rng(seed).exponential(mean_interarrival, horizon)
    with np.errstate(over="ignore"):
        np.cumsum(arrivals, out=arrivals)
    if not math.isfinite(arrivals[-1]):
        raise ValueError(f"mean_interarrival {mean_interarrival} over horizon {horizon} overflows the arrival times")
    arrivals.flags.writeable = False
    return arrivals


_LONG_PERIOD = 32  # a longer busy period is one add.accumulate; shorter ones advance together


def _workspace(n: int) -> tuple:
    """Buffers for the runs that admit n customers: the index, then float64, int and bool row pairs."""
    index = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    return index, np.empty((2, n)), np.empty((2, n), index.dtype), np.empty((2, n), bool)


def _completions(arrivals: np.ndarray, service_time: float, workspace: tuple) -> tuple[np.ndarray, np.ndarray]:
    """c_j = max(c_{j-1}, a_j) + s, bit for bit, and each customer's busy-period head h, as workspace rows.

    Guess the starts (a_j - j*s at a new running maximum), write c_j = (a_h + s)
    + (j - h)*s, keep each period whose steps c_j == c_{j-1} + s all hold and
    refill the rest.  Past the first start flag a_j >= c_{j-1} that misses the
    guess, the sequential recursion finishes and the true flags give the heads.
    """
    n = len(arrivals)
    index, (buffer, completions), (heads, spare), (guess, check) = workspace
    with np.errstate(over="ignore"):
        np.subtract(arrivals, np.multiply(index, service_time, out=buffer), out=buffer)
        np.greater_equal(buffer, np.fmax.accumulate(buffer, out=completions), out=guess)  # fmax: no NaN here, faster
        np.maximum.accumulate(np.multiply(index, guess, out=heads), out=heads)
        np.add(np.take(arrivals, heads, out=completions, mode="clip"), service_time, out=completions)
        completions += np.multiply(np.subtract(index, heads, out=spare), service_time, out=buffer)
        np.add(completions[:-1], service_time, out=buffer[1:])
        stepped = np.not_equal(buffer[1:], completions[1:], out=check[1:])
        if np.greater(stepped, guess[1:], out=stepped).any():  # a step fails where no head starts afresh
            chosen = np.zeros(n, dtype=bool)
            chosen[heads[1:][stepped]] = True
            lengths = np.diff(np.flatnonzero(guess), append=n)[chosen[guess]]
            starts = np.flatnonzero(chosen)
            long = lengths > _LONG_PERIOD
            for start, length in zip(starts[long].tolist(), lengths[long].tolist()):
                period = completions[start:start + length]
                period[1:] = service_time
                np.add.accumulate(period, out=period)
            starts, lengths = starts[~long], lengths[~long]
            for offset in range(1, lengths.max(initial=1)):
                starts, lengths = starts[lengths > offset], lengths[lengths > offset]
                at = starts + offset
                completions[at] = completions[at - 1] + service_time
    flags = np.greater_equal(arrivals[1:], completions[:-1], out=check[1:])  # check[0] is unset: index[0] = 0
    missed = np.flatnonzero(np.not_equal(guess[1:], flags, out=flags))
    if missed.size:
        j = int(missed[0]) + 1
        last = float(completions[j - 1])
        steps = (last := (last if last > a else a) + service_time for a in arrivals[j:].tolist())
        completions[j:] = np.fromiter(steps, np.float64, n - j)
        np.greater_equal(arrivals[1:], completions[:-1], out=flags)
        np.maximum.accumulate(np.multiply(index, check, out=heads), out=heads)
    return completions, heads


def _in_system(arrivals: np.ndarray, service_time: float, workspace: tuple) -> np.ndarray:
    """How many admitted customers each one finds in the system on arrival, itself included, as a workspace row.

    All before j's head h have left by a_j, so j finds j - l, l the last one gone:
    l = h + floor((a_j - c_h)/s) in [h - 1, j - 1], checked by c_l <= a_j < c_{l+1}.
    A miss goes to searchsorted, capped at j: c_j can equal a_j for a tiny s.
    """
    completions, heads = _completions(arrivals, service_time, workspace)
    index, (estimate, _), (_, last), (early, late) = workspace
    with np.errstate(over="ignore"):
        np.take(completions, heads, out=estimate, mode="clip")
        np.floor(np.divide(np.subtract(arrivals, estimate, out=estimate), service_time, out=estimate), out=estimate)
        estimate += heads
        np.maximum(estimate, np.subtract(heads, 1, out=heads), out=estimate)  # np.clip would cast the int bounds
        np.minimum(estimate, np.subtract(index, 1, out=last), out=estimate)
    last[...] = estimate  # at l = -1, c_l wraps to c_{n-1}: a false miss
    np.less(arrivals, np.take(completions, last, out=estimate, mode="wrap"), out=early)
    np.less_equal(np.take(completions, np.add(last, 1, out=heads), out=estimate, mode="wrap"), arrivals, out=late)
    missed = np.flatnonzero(np.logical_or(early, late, out=early))
    if missed.size:
        last[missed] = np.minimum(np.searchsorted(completions, arrivals[missed], side="right"), missed) - 1
    return np.subtract(index, last, out=last)


def _run(config: QueueConfig, admit: np.ndarray, gamma: Fraction | float, workspace: tuple | None) -> QueueSummary:
    """One run of the customers admitted by ``admit``, a bool mask over the horizon."""
    admitted = _arrival_times(config.seed, config.mean_interarrival, config.horizon).compress(admit)
    in_system = _in_system(admitted, config.service_time, workspace or _workspace(len(admitted)))
    return QueueSummary(config.seed, gamma, config.horizon,
                        int(in_system.sum()) / config.horizon, int(in_system.max(initial=0)), len(admitted))


def simulate_queue(config: QueueConfig) -> QueueSummary:
    """Run one seeded simulation of the admitted customers alone: the worst backlog is met at an admission."""
    source = config.admission  # QueueConfig has checked a word
    word = symbol_stream(source, config.horizon) if isinstance(source, MechanicalSpec) else source
    admit = np.resize(np.frombuffer(word.encode(), np.uint8) == ord("1"), config.horizon)
    return _run(config, admit, config.admission_density, None)


def _shuffle(horizon: int, ones: int, seed: int) -> np.ndarray:
    """A uniformly shuffled bool mask with the given length and one-count."""
    if not 0 <= ones <= horizon:
        raise ValueError(f"one-count {ones} outside 0..{horizon}")
    mask = np.zeros(horizon, bool)
    mask[np.random.default_rng(seed).choice(horizon, size=ones, replace=False)] = True
    return mask


def random_admission_word(horizon: int, ones: int, seed: int) -> str:
    """A uniformly shuffled word with the given length and one-count: a race's shuffle mask as letters."""
    return (_shuffle(horizon, ones, seed).view(np.uint8) + ord("0")).tobytes().decode("ascii")


def admission_competition(
    config: QueueConfig, competitors: int = 50, competitor_seed: int = 10_000
) -> list[QueueSummary]:
    """Mechanical admission versus seeded random same-density admissions.

    Every run shares the arrival stream of ``config`` (common random
    numbers); competitors are seeded shuffle masks, not words, with exactly
    the same one-count over the horizon.  Returns the mechanical summary first.
    """
    if competitors < 1:
        raise ValueError("need at least one competitor")
    if competitor_seed < 0:
        raise ValueError(f"competitor_seed must be >= 0, got {competitor_seed}")
    reference = simulate_queue(config)
    gamma, workspace = Fraction(reference.admitted, config.horizon), _workspace(reference.admitted)
    rows = [reference]
    for i in range(competitors):  # no mask outlives its run, so none is held while the next is drawn
        rows.append(_run(config, _shuffle(config.horizon, reference.admitted, competitor_seed + i), gamma, workspace))
    return rows


def queue_config_from_dict(data: dict) -> QueueConfig:
    """Build a QueueConfig from parsed JSON; a key left out keeps the dataclass default."""
    if not isinstance(data, dict):
        raise ValueError(f"a queue config is a JSON object, got {type(data).__name__}")
    values = {f.name: data[f.name] for f in fields(QueueConfig) if f.name in data}
    admission = values.get("admission")
    if isinstance(admission, dict):
        if "gamma" not in admission:
            raise ValueError("queue config 'admission' object needs a 'gamma' key (the slope)")
        gamma = parse_slope(str(admission["gamma"]))
        values["admission"] = MechanicalSpec(gamma, parse_slope(str(admission.get("delta", "0"))))
    for key in ("mean_interarrival", "service_time"):
        if key in values:
            value = values[key]
            try:
                if type(value) not in (int, float):
                    raise TypeError
                values[key] = float(value)
            except (TypeError, OverflowError):
                raise ValueError(f"queue config {key!r} must be a number in float range, got {value!r}") from None
    return QueueConfig(**values)
