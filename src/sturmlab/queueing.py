"""Seeded admission-control simulation of a single-server queue.

Customers arrive in a Poisson stream (independent exponential interarrival
times); the admission sequence decides who enters.  Service is first-in
first-out with a deterministic service duration.  The cost charged to
customer k is the number of admitted customers still in the system on its
arrival, counting itself when admitted; rejected customers cost zero.  With
admission density fixed, mechanically spread admissions minimize the mean
cost, which ``admission_competition`` probes with common random numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .words import MechanicalSpec, check_word, one_ratio, parse_slope, symbol_stream

__all__ = [
    "QueueConfig",
    "QueueSummary",
    "simulate_queue",
    "random_admission_word",
    "admission_competition",
    "queue_config_from_dict",
    "load_queue_config",
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
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.service_time <= 0:
            raise ValueError("service_time must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if isinstance(self.admission, str):
            check_word(self.admission)
            if not self.admission:
                raise ValueError("admission word must be nonempty")

    @property
    def admission_density(self) -> Union[Fraction, float]:
        if isinstance(self.admission, MechanicalSpec):
            gamma = self.admission.gamma
            return gamma if isinstance(gamma, (Fraction, int)) else float(gamma)
        return one_ratio(self.admission)


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


def simulate_queue(config: QueueConfig) -> QueueSummary:
    """Run one seeded simulation and return its summary.

    Completions c_j = max(c_{j-1}, a_j) + service_time of the admitted
    customers accumulate in order in plain floats, so no departure/arrival
    tie can flip.  They never decrease, so the count in the system at arrival
    k (k included when admitted) is the admissions through k minus the
    earlier ones with c_j <= a_k, counted for all k by one searchsorted.
    """
    rng = np.random.default_rng(config.seed)
    arrivals = np.cumsum(rng.exponential(config.mean_interarrival, config.horizon))
    admit = np.frombuffer(symbol_stream(config.admission, config.horizon).encode(), np.uint8) == ord("1")
    completions = np.fromiter(accumulate(
        arrivals[admit].tolist(), lambda c, a: max(c, a) + config.service_time, initial=0.0
    ), dtype=np.float64)[1:]
    admitted_through = np.cumsum(admit)
    departed = np.searchsorted(completions, arrivals, side="right")
    # admitted_through - min(departed, admitted_through - admit), in place and
    # without arrivals: three horizon-length arrays alive at once, not five.
    del arrivals
    np.minimum(departed, admitted_through - admit, out=departed)
    in_system = np.subtract(admitted_through, departed, out=departed)
    return QueueSummary(
        seed=config.seed,
        gamma=config.admission_density,
        horizon=config.horizon,
        mean_cost=int(in_system[admit].sum()) / config.horizon,
        max_queue=int(in_system.max()),
        admitted=int(admitted_through[-1]),
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
    reference = simulate_queue(config)
    rows = [reference]
    for i in range(competitors):
        word = random_admission_word(config.horizon, reference.admitted, competitor_seed + i)
        rows.append(simulate_queue(replace(config, admission=word)))
    return rows


def queue_config_from_dict(data: dict) -> QueueConfig:
    """Build a QueueConfig from parsed JSON."""
    admission = data.get("admission", "1")
    if isinstance(admission, dict):
        gamma = parse_slope(str(admission["gamma"]))
        delta = parse_slope(str(admission.get("delta", "0")))
        admission = MechanicalSpec(gamma, delta)
    return QueueConfig(
        mean_interarrival=float(data.get("mean_interarrival", 1.0)),
        service_time=float(data.get("service_time", 2.0)),
        horizon=int(data.get("horizon", 10_000)),
        seed=int(data.get("seed", 0)),
        admission=admission,
    )


def load_queue_config(path: str) -> QueueConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return queue_config_from_dict(json.load(handle))
