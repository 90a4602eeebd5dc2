"""Seeded admission-control simulation of a single-server queue.

Customers arrive in a Poisson stream (independent exponential interarrival
times); the admission sequence decides who enters.  Service is first-in
first-out with a deterministic service duration.  The cost charged to
customer k is the number of admitted customers still in the system on its
arrival, counting itself when admitted; rejected customers cost zero.  With
admission density fixed, mechanically spread admissions minimize the mean
cost, which ``admission_competition`` probes with common random numbers.

A run counts only the admitted customers.  ``_completions`` gives each its
busy-period head h and writes c_j = (a_h + s) + (j - h)*s wherever the
recursion's own steps hold, bit for bit; ``_in_system`` counts departures
from the head, checking each estimate.  Runs share one arrival stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
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

AdmissionSource = Union[str, MechanicalSpec]


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
    admission: AdmissionSource = "1"

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
    with np.errstate(over="ignore"):
        arrivals = np.cumsum(np.random.default_rng(seed).exponential(mean_interarrival, horizon))
    if not math.isfinite(arrivals[-1]):
        raise ValueError(f"mean_interarrival {mean_interarrival} over horizon {horizon} overflows the arrival times")
    arrivals.flags.writeable = False
    return arrivals


_LONG_PERIOD = 32  # a longer busy period is one add.accumulate; shorter ones advance together


def _completions(arrivals: np.ndarray, service_time: float) -> tuple[np.ndarray, np.ndarray]:
    """c_j = max(c_{j-1}, a_j) + s, bit for bit, and each customer's busy-period head h.

    Guess the starts (a_j - j*s at a new running maximum), write c_j = (a_h + s)
    + (j - h)*s, keep each period whose steps c_j == c_{j-1} + s all hold and
    refill the rest.  Past the first start flag a_j >= c_{j-1} that misses the
    guess, the sequential recursion finishes and the true flags give the heads.
    """
    n = len(arrivals)
    index = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    with np.errstate(over="ignore"):
        buffer = np.subtract(arrivals, np.multiply(index, service_time))
        guess = buffer >= np.maximum.accumulate(buffer)
        heads = np.maximum.accumulate(np.where(guess, index, 0))
        completions = arrivals[heads]
        completions += service_time
        np.multiply(index - heads, service_time, out=buffer)
        completions += buffer
        np.add(completions[:-1], service_time, out=buffer[1:])
        stepped = (buffer[1:] != completions[1:]) & ~guess[1:]  # a head starts afresh
        if stepped.any():
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
    missed = np.flatnonzero(guess[1:] != (arrivals[1:] >= completions[:-1]))
    if missed.size:
        j = int(missed[0]) + 1
        last = float(completions[j - 1])
        steps = (last := (last if last > a else a) + service_time for a in arrivals[j:].tolist())
        completions[j:] = np.fromiter(steps, np.float64, n - j)
        heads = np.maximum.accumulate(np.where(np.concatenate(([True], arrivals[1:] >= completions[:-1])), index, 0))
    return completions, heads


def _in_system(arrivals: np.ndarray, service_time: float) -> np.ndarray:
    """How many admitted customers each one finds in the system on arrival, itself included.

    All before j's head h have left by a_j, so j finds j - l, l the last one gone:
    l = h + floor((a_j - c_h)/s) in [h - 1, j - 1], checked by c_l <= a_j < c_{l+1}.
    A miss goes to searchsorted, capped at j: c_j can equal a_j for a tiny s.
    """
    completions, heads = _completions(arrivals, service_time)
    index = np.arange(len(arrivals), dtype=heads.dtype)
    with np.errstate(over="ignore"):
        estimate = completions[heads]
        np.subtract(arrivals, estimate, out=estimate)
        np.floor(np.divide(estimate, service_time, out=estimate), out=estimate)
        estimate += heads
        np.clip(estimate, heads - 1, index - 1, out=estimate)
    last = heads  # reuses the heads' memory; at l = -1, c_l reads c_{n-1}: a false miss
    last[:] = estimate
    del estimate  # its buffer is free before the gathers
    missed = np.flatnonzero((arrivals < completions[last]) | (completions[last + 1] <= arrivals))
    if missed.size:
        last[missed] = np.minimum(np.searchsorted(completions, arrivals[missed], side="right"), missed) - 1
    return np.subtract(index, last, out=last)


def simulate_queue(config: QueueConfig) -> QueueSummary:
    """Run one seeded simulation of the admitted customers alone: the worst backlog is met at an admission."""
    arrivals = _arrival_times(config.seed, config.mean_interarrival, config.horizon)
    source = config.admission  # QueueConfig has checked a word
    word = symbol_stream(source, config.horizon) if isinstance(source, MechanicalSpec) else source
    admitted = arrivals.compress(np.resize(np.frombuffer(word.encode(), np.uint8) == ord("1"), config.horizon))
    in_system = _in_system(admitted, config.service_time)
    return QueueSummary(config.seed, config.admission_density, config.horizon,
                        int(in_system.sum()) / config.horizon, int(in_system.max(initial=0)), len(admitted))


def random_admission_word(horizon: int, ones: int, seed: int) -> str:
    """A uniformly shuffled word with the given length and one-count."""
    if not 0 <= ones <= horizon:
        raise ValueError(f"one-count {ones} outside 0..{horizon}")
    rng = np.random.default_rng(seed)
    bits = np.zeros(horizon, dtype=np.uint8)
    bits[rng.choice(horizon, size=ones, replace=False)] = 1
    return (bits + ord("0")).tobytes().decode("ascii")


def admission_competition(
    config: QueueConfig, competitors: int = 50, competitor_seed: int = 10_000
) -> list[QueueSummary]:
    """Mechanical admission versus seeded random same-density admissions.

    Every run shares the arrival stream of ``config`` (common random
    numbers); competitor words are fresh shuffles with exactly the same
    one-count over the horizon.  Returns the mechanical summary first.
    """
    if competitors < 1:
        raise ValueError("need at least one competitor")
    if competitor_seed < 0:
        raise ValueError(f"competitor_seed must be >= 0, got {competitor_seed}")
    reference = simulate_queue(config)
    rows = [reference]
    for i in range(competitors):
        word = random_admission_word(config.horizon, reference.admitted, competitor_seed + i)
        rows.append(simulate_queue(replace(config, admission=word)))
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
    for key in ("horizon", "seed"):
        if key in values and type(values[key]) is not int:
            raise ValueError(f"queue config {key!r} must be an integer, got {values[key]!r}")
    return QueueConfig(**values)
