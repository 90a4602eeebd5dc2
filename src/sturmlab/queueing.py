"""Seeded admission-control simulation of a single-server queue.

Customers arrive in a Poisson stream (independent exponential interarrival
times); the admission sequence decides who enters.  Service is first-in
first-out with a deterministic service duration.  The cost charged to
customer k is the number of admitted customers still in the system on its
arrival, counting itself when admitted; rejected customers cost zero.  With
admission density fixed, mechanically spread admissions minimize the mean
cost, which ``admission_competition`` probes with common random numbers.

A run counts only the admitted customers.  ``_completions`` guesses their
busy-period starts, fills each period with numpy by the recursion's own float
steps, verifies every start flag, and finishes past a wrong guess with the
sequential recursion, so its result equals the recursion's bit for bit.
Consecutive runs share the arrival stream of one (seed, mean, horizon), so a
competition draws it a single time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
        return Fraction(self.admission.count("1"), len(self.admission))


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


def _completions(arrivals: np.ndarray, service_time: float) -> np.ndarray:
    """c_j = max(c_{j-1}, a_j) + service_time, bit for bit, by busy periods.

    Guess the starts (a_j - j*s at a new running maximum), fill each period
    by the recursion's own float steps, and check the start flags
    a_j >= c_{j-1} of the result against the guess.  Past the first miss,
    if any, the sequential recursion finishes.
    """
    n = len(arrivals)
    with np.errstate(over="ignore"):
        offset_arrivals = arrivals - np.arange(n) * service_time
        guess = offset_arrivals >= np.maximum.accumulate(offset_arrivals)
        completions = arrivals + service_time
        starts = np.flatnonzero(guess)
        lengths = np.diff(starts, append=n)
        long = lengths > _LONG_PERIOD
        for start, length in zip(starts[long].tolist(), lengths[long].tolist()):
            period = completions[start:start + length]
            period[1:] = service_time
            np.add.accumulate(period, out=period)
        heads, lengths = starts[~long], lengths[~long]
        for offset in range(1, lengths.max(initial=1)):
            heads, lengths = heads[lengths > offset], lengths[lengths > offset]
            at = heads + offset
            completions[at] = completions[at - 1] + service_time
    missed = np.flatnonzero(guess[1:] != (arrivals[1:] >= completions[:-1]))
    if missed.size:
        j = int(missed[0]) + 1
        last = float(completions[j - 1])
        steps = (last := (last if last > a else a) + service_time for a in arrivals[j:].tolist())
        completions[j:] = np.fromiter(steps, np.float64, n - j)
    return completions


def simulate_queue(config: QueueConfig) -> QueueSummary:
    """Run one seeded simulation and return its summary.

    The arrival stream comes from ``_arrival_times``, drawn once per (seed,
    mean, horizon) and shared by consecutive runs.  Completions of the
    admitted customers come from ``_completions`` (guess the busy-period
    starts, fill, verify, sequential tail past a miss).  They never
    decrease and no customer leaves before arriving (c_j >= a_j), so
    admitted customer j finds j + 1 - min(#{c <= a_j}, j) customers in the
    system, itself included, counted by one searchsorted over the admitted
    customers only.  A rejected customer finds no more than the last
    admitted one before it did, so the worst backlog is reached at an
    admission.
    """
    arrivals = _arrival_times(config.seed, config.mean_interarrival, config.horizon)
    admit = np.frombuffer(symbol_stream(config.admission, config.horizon).encode(), np.uint8) == ord("1")
    admitted = arrivals[admit]
    completions = _completions(admitted, config.service_time)
    earlier = np.arange(len(admitted))
    departed = np.searchsorted(completions, admitted, side="right")
    np.minimum(departed, earlier, out=departed)
    in_system = np.subtract(earlier + 1, departed, out=departed)
    return QueueSummary(
        seed=config.seed,
        gamma=config.admission_density,
        horizon=config.horizon,
        mean_cost=int(in_system.sum()) / config.horizon,
        max_queue=int(in_system.max(initial=0)),
        admitted=len(admitted),
    )


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
    """Build a QueueConfig from parsed JSON."""
    if not isinstance(data, dict):
        raise ValueError(f"a queue config is a JSON object, got {type(data).__name__}")
    admission = data.get("admission", "1")
    if isinstance(admission, dict):
        if "gamma" not in admission:
            raise ValueError("queue config 'admission' object needs a 'gamma' key (the slope)")
        gamma = parse_slope(str(admission["gamma"]))
        delta = parse_slope(str(admission.get("delta", "0")))
        admission = MechanicalSpec(gamma, delta)
    try:
        numbers = dict(
            mean_interarrival=float(data.get("mean_interarrival", 1.0)),
            service_time=float(data.get("service_time", 2.0)),
            horizon=data.get("horizon", 10_000),
            seed=data.get("seed", 0),
        )
    except TypeError as exc:
        raise ValueError(f"queue config numbers: {exc}") from None
    for key in ("horizon", "seed"):
        if type(numbers[key]) is not int:
            raise ValueError(f"queue config {key!r} must be an integer, got {numbers[key]!r}")
    return QueueConfig(admission=admission, **numbers)

