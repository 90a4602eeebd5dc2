"""Seeded admission-control simulation and the shuffle competition."""

import json
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab.queueing import (
    QueueConfig,
    QueueSummary,
    admission_competition,
    load_queue_config,
    queue_config_from_dict,
    random_admission_word,
    simulate_queue,
)
from sturmlab.words import MechanicalSpec, symbol_stream


def mechanical_config(horizon=4000, seed=0, gamma=Fraction(1, 3)):
    return QueueConfig(horizon=horizon, seed=seed, admission=MechanicalSpec(gamma))


def test_simulation_is_deterministic():
    a = simulate_queue(mechanical_config())
    b = simulate_queue(mechanical_config())
    assert a == b


def test_seed_changes_outcome():
    a = simulate_queue(mechanical_config(seed=0))
    b = simulate_queue(mechanical_config(seed=1))
    assert a.mean_cost != b.mean_cost


def _simulate_queue_loop(config):
    """Per-customer event loop: pop departures, then admit and charge."""
    rng = np.random.default_rng(config.seed)
    arrivals = np.cumsum(rng.exponential(config.mean_interarrival, config.horizon))
    admission = symbol_stream(config.admission, config.horizon)
    pending = deque()
    last_completion = 0.0
    total_cost = max_queue = admitted = 0
    for k in range(config.horizon):
        now = float(arrivals[k])
        while pending and pending[0] <= now:
            pending.popleft()
        in_system = len(pending)
        if admission[k] == "1":
            admitted += 1
            total_cost += in_system + 1
            last_completion = max(last_completion, now) + config.service_time
            pending.append(last_completion)
            in_system += 1
        max_queue = max(max_queue, in_system)
    return QueueSummary(
        config.seed, config.admission_density, config.horizon,
        total_cost / config.horizon, max_queue, admitted,
    )


@pytest.mark.parametrize(
    "admission",
    ["1", "001", "0110100", MechanicalSpec(Fraction(1, 3)),
     MechanicalSpec(Fraction(2, 5), Fraction(1, 7)), MechanicalSpec(0.381966)],
    ids=["word-1", "word-001", "word-0110100", "mech-1/3", "mech-2/5+1/7", "mech-0.381966"],
)
@pytest.mark.parametrize(
    "service_time", [2.0, 0.37 * 3, 0.37 * 7, 0.1, 1e-300],
    ids=["2", "0.37x3", "0.37x7", "0.1", "1e-300"],
)
def test_simulation_matches_event_loop(admission, service_time):
    for seed in range(4):
        for mean_interarrival in (1.0, 0.7):
            config = QueueConfig(mean_interarrival, service_time, 1500, seed, admission)
            assert simulate_queue(config) == _simulate_queue_loop(config)


def test_simulation_matches_event_loop_on_long_shuffle():
    word = random_admission_word(60_000, 22_500, 5)
    config = QueueConfig(service_time=0.37 * 7, horizon=60_000, seed=2, admission=word)
    assert simulate_queue(config) == _simulate_queue_loop(config)


def test_admitted_fraction_tracks_slope():
    summary = simulate_queue(mechanical_config(horizon=9999))
    assert summary.admitted_fraction == pytest.approx(1 / 3, abs=2e-4)


def test_word_admission_source():
    config = QueueConfig(horizon=300, seed=3, admission="001")
    summary = simulate_queue(config)
    assert summary.admitted == 100
    assert summary.gamma == Fraction(1, 3)


def test_always_admit_is_unstable_versus_spread():
    # Service twice the interarrival mean: admitting everyone overloads.
    greedy = simulate_queue(QueueConfig(horizon=3000, seed=0, admission="1"))
    spread = simulate_queue(mechanical_config(horizon=3000))
    assert greedy.mean_cost > 5 * spread.mean_cost
    assert greedy.max_queue > spread.max_queue


def test_mechanical_beats_every_shuffle():
    config = mechanical_config(horizon=20_000)
    summaries = admission_competition(config, competitors=12)
    mechanical, shuffles = summaries[0], summaries[1:]
    assert len(shuffles) == 12
    assert all(mechanical.mean_cost < s.mean_cost for s in shuffles)


def test_competition_matches_admission_budget():
    config = mechanical_config(horizon=5000)
    summaries = admission_competition(config, competitors=5)
    fractions = {s.admitted for s in summaries}
    assert len(fractions) == 1  # same number of admissions for everyone


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=2**16),
)
def test_random_admission_word_counts(ones, seed):
    w = random_admission_word(60, ones, seed)
    assert len(w) == 60
    assert w.count("1") == ones


def test_random_admission_word_rejects_overfull():
    with pytest.raises(ValueError):
        random_admission_word(5, 6, 0)


def test_config_round_trip(tmp_path):
    data = {
        "mean_interarrival": 1.0,
        "service_time": 2.0,
        "horizon": 1234,
        "seed": 7,
        "admission": {"gamma": "1/3", "delta": "0"},
    }
    path = tmp_path / "queue.json"
    path.write_text(json.dumps(data))
    config = load_queue_config(str(path))
    assert config.horizon == 1234
    assert isinstance(config.admission, MechanicalSpec)
    assert config.admission.gamma == Fraction(1, 3)

    word_config = queue_config_from_dict({"admission": "0101"})
    assert word_config.admission == "0101"


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        queue_config_from_dict({"horizon": 0})
    with pytest.raises(ValueError):
        queue_config_from_dict({"admission": "01x"})


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=9))
def test_mean_cost_scales_with_admission_rate(numerator):
    gamma = Fraction(numerator, 10)
    summary = simulate_queue(mechanical_config(horizon=2000, gamma=gamma))
    assert summary.admitted_fraction == pytest.approx(float(gamma), abs=0.01)
    assert summary.mean_cost >= 0.0
