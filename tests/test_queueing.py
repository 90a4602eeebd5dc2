"""Seeded admission-control simulation and the shuffle competition."""

import math
import re
import tracemalloc
import weakref
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab import queueing, words
from sturmlab.queueing import (
    QueueConfig,
    QueueSummary,
    _arrival_times,
    _completions,
    _in_system,
    _workspace,
    admission_competition,
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


def _simulate_queue_loop(config, arrivals=None):
    """Per-customer event loop: pop departures, then admit and charge."""
    if arrivals is None:
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


def _completions_oracle(arrivals, service_time):
    """The sequential recursion c_j = max(c_{j-1}, a_j) + s in plain floats."""
    return np.fromiter(accumulate(
        np.asarray(arrivals, dtype=np.float64).tolist(),
        lambda c, a: max(c, a) + service_time, initial=0.0,
    ), dtype=np.float64)[1:]


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _start_flags(arrivals, completions):
    """Who starts a busy period, read from exact completions: a_j >= c_{j-1}."""
    return np.concatenate(([True], arrivals[1:] >= completions[:-1]))[:len(arrivals)]


def _heads_oracle(flags):
    """Each customer's busy-period head: the last start at or before it."""
    heads, head = [], 0
    for j, starts in enumerate(flags.tolist()):
        head = j if starts else head
        heads.append(head)
    return heads


def _assert_exact(arrivals, service_time):
    """``_completions`` equals the recursion bit for bit, and its heads are the true ones."""
    expected = _completions_oracle(arrivals, service_time)
    completions, heads = _completions(arrivals, service_time, _workspace(len(arrivals)))
    assert _same_bits(completions, expected)
    assert heads.tolist() == _heads_oracle(_start_flags(arrivals, expected))


# Service times: below the arrival resolution (c_j can equal a_j), an inexact
# float product, exact ties with integer arrivals, and one larger than any
# gap drawn below (one busy period).
SERVICE_TIMES = st.sampled_from([1e-300, 0.37 * 7, 2.0, 40.0])
float_gaps = st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=300)
integer_gaps = st.lists(st.integers(min_value=0, max_value=4), max_size=300)


@settings(max_examples=300)
@given(st.one_of(float_gaps, integer_gaps), SERVICE_TIMES, st.floats(min_value=0.0, max_value=1e6))
def test_completions_match_recursion_bitwise(gaps, service_time, start):
    arrivals = start + np.cumsum(np.asarray(gaps, dtype=np.float64))
    _assert_exact(arrivals, service_time)


@pytest.mark.parametrize("service_time", [1e-300, 0.37 * 7, 2.0, 40.0])
def test_completions_match_recursion_on_seeded_streams(service_time):
    rng = np.random.default_rng(7)
    for arrivals in (
        np.cumsum(rng.exponential(1.0, 2000)),
        np.floor(np.cumsum(rng.exponential(1.0, 2000))),  # integer arrivals: exact ties
        np.arange(500, dtype=np.float64),  # a_j = j: with s = 2, c_{j-1} > a_j throughout
    ):
        _assert_exact(arrivals, service_time)


@pytest.mark.parametrize("arrivals", [[], [3.5], [0.0, 2.0, 4.0, 6.0], [1.0, 1.0, 1.0]],
                         ids=["empty", "one", "touching", "simultaneous"])
def test_completions_small_cases(arrivals):
    # The in-system counts too: at n = 1 no gather may read past the only completion.
    arrivals = np.asarray(arrivals, dtype=np.float64)
    for service_time in (1e-300, 2.0):
        _assert_exact(arrivals, service_time)
        expected = _in_system_oracle(arrivals, _completions_oracle(arrivals, service_time))
        assert _in_system(arrivals, service_time, _workspace(len(arrivals))).tolist() == expected.tolist()


def _guess_is_wrong(arrivals, service_time, completions):
    """The closed-form guess of the starts (a_j - j*s at a new running maximum) misses."""
    offset_arrivals = arrivals - np.arange(len(arrivals)) * service_time
    guess = offset_arrivals >= np.maximum.accumulate(offset_arrivals)
    return not np.array_equal(guess, _start_flags(arrivals, completions))


# The busy periods of each load at horizon 100k, seed 11, against the
# 32-customer threshold between the in-place accumulate and the wavefront:
# light load has short periods only, overload one long period, and loads
# 0.7 and 1.0 both kinds.
@pytest.mark.parametrize("load, has_short, has_long",
                         [(0.3, True, False), (0.7, True, True), (1.0, True, True), (1.2, False, True)])
def test_completions_match_recursion_at_every_load(load, has_short, has_long):
    arrivals = np.cumsum(np.random.default_rng(11).exponential(1.0, 100_000))
    expected = _completions_oracle(arrivals, load)
    _assert_exact(arrivals, load)
    lengths = np.diff(np.flatnonzero(_start_flags(arrivals, expected)), append=len(arrivals))
    assert (bool((lengths <= 32).any()), bool((lengths > 32).any())) == (has_short, has_long)


# Arrivals on a 0.1 grid with s a multiple of 0.1: each customer arrives about
# when the one before leaves, so rounding decides the starts and the guess
# misses; past the miss the sequential recursion finishes.
@pytest.mark.parametrize("arrivals, service_time",
                         [(np.arange(20_000) * 0.1, 0.1)]
                         + [(np.cumsum(np.full(5000, k * 0.1)), k * 0.1) for k in (1, 3, 7, 9)],
                         ids=["arange-0.1", "cumsum-0.1", "cumsum-0.3", "cumsum-0.7", "cumsum-0.9"])
def test_completions_match_recursion_past_a_wrong_guess(arrivals, service_time):
    expected = _completions_oracle(arrivals, service_time)
    assert _guess_is_wrong(arrivals, service_time, expected)
    _assert_exact(arrivals, service_time)  # the heads come from the true start flags


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("arrivals", [[0.0, 1.0], [5.0, 5.0, 1e300],
                                      np.cumsum(np.random.default_rng(3).exponential(1.0, 1000))],
                         ids=["two", "three", "stream"])
def test_completions_overflow_to_infinity_like_the_recursion(arrivals):
    # j*s overflows inside the guess and c_j = c_{j-1} + s overflows to inf.
    arrivals = np.asarray(arrivals, dtype=np.float64)
    expected = _completions_oracle(arrivals, 1e308)
    assert np.isinf(expected[-1])
    _assert_exact(arrivals, 1e308)


def test_departure_at_an_arrival_instant_is_counted(monkeypatch):
    # Arrivals 1, 2, 3, ... with s = 1: every customer leaves exactly when the
    # next arrives, and the event loop pops a departure at the arrival instant
    # (pending[0] <= now), so each arrival finds only itself in the system.
    arrivals = np.arange(1.0, 51.0)
    monkeypatch.setattr(queueing, "_arrival_times", lambda seed, mean, horizon: arrivals[:horizon])
    config = QueueConfig(1.0, 1.0, 50, 0, "1")
    assert simulate_queue(config) == QueueSummary(0, Fraction(1), 50, 1.0, 1, 50)
    # Three customers arrive together at 10 with s = 0.1, and a fourth exactly when
    # the second leaves, at c_1 = (10 + 0.1) + 0.1.  Its estimate from the head,
    # floor((c_1 - c_0)/s), rounds to 0, one short of that departure; the check
    # c_1 <= a_3 must catch it and searchsorted count the tie.
    c_0 = 10.0 + 0.1
    arrivals = np.array([10.0, 10.0, 10.0, c_0 + 0.1])
    assert math.floor((arrivals[3] - c_0) / 0.1) == 0
    config = QueueConfig(1.0, 0.1, 4, 0, "1")
    expected = QueueSummary(0, Fraction(1), 4, (1 + 2 + 3 + 2) / 4, 3, 4)
    assert simulate_queue(config) == _simulate_queue_loop(config, arrivals) == expected


def _in_system_oracle(arrivals, completions):
    """Customers in the system at each arrival, by one searchsorted over all completions."""
    earlier = np.arange(len(arrivals))
    departed = np.minimum(np.searchsorted(completions, arrivals, side="right"), earlier)
    return earlier + 1 - departed


@settings(max_examples=300)
@given(st.one_of(float_gaps, integer_gaps),
       st.sampled_from([1e-300, 5e-324, 0.37 * 7, 1.7, 0.5, 2.0, 40.0, 1e308]),
       st.floats(min_value=0.0, max_value=1e6))
def test_in_system_matches_searchsorted_oracle(gaps, service_time, start):
    arrivals = start + np.cumsum(np.asarray(gaps, dtype=np.float64))
    expected = _in_system_oracle(arrivals, _completions_oracle(arrivals, service_time))
    assert _in_system(arrivals, service_time, _workspace(len(arrivals))).tolist() == expected.tolist()


# One workspace, two streams of the same length (exponential gaps, integer gaps with
# exact ties, or gaps on a 0.1 grid, where guessed starts miss), so the second
# stream can take another path through buffers the first one left written.
def _stream(kind, seed, n):
    rng = np.random.default_rng(seed)
    return np.cumsum((rng.exponential(1.0, n), rng.integers(0, 5, n) * 1.0, rng.integers(0, 4, n) * 0.1)[kind])


streams = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2**16))


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=400), st.lists(streams, min_size=2, max_size=2),
       st.sampled_from([1e-300, 0.1, 0.3, 0.37 * 7, 2.0, 1e308]))
def test_one_workspace_serves_streams_back_to_back(n, pair, service_time):
    workspace = _workspace(n)
    for kind, seed in pair:
        arrivals = _stream(kind, seed, n)
        fresh = _in_system(arrivals, service_time, _workspace(n)).tolist()
        assert _in_system(arrivals, service_time, workspace).tolist() == fresh


# The battery's race (100k arrivals, 1/3 admitted, 50 shuffles) and the long-word
# benchmark's (300k, 3/8, 10): every row through the shared workspace is the run
# of the same word on its own, which builds its own workspace.
@pytest.mark.parametrize("horizon, gamma, competitors", [(100_000, Fraction(1, 3), 50), (300_000, Fraction(3, 8), 10)],
                         ids=["battery", "long-word"])
def test_race_rows_equal_runs_without_a_shared_workspace(horizon, gamma, competitors):
    config = mechanical_config(horizon, gamma=gamma)
    rows = admission_competition(config, competitors)
    shuffles = [random_admission_word(horizon, rows[0].admitted, 10_000 + i) for i in range(competitors)]
    assert rows == [simulate_queue(config)] + [simulate_queue(replace(config, admission=w)) for w in shuffles]


def test_a_race_shares_one_workspace(monkeypatch):
    built = []
    monkeypatch.setattr(queueing, "_workspace", lambda n: built.append(n) or _workspace(n))
    rows = admission_competition(mechanical_config(3000), 6)
    assert built == [rows[0].admitted] * 2  # the reference run's own, then the one every shuffle shares


def test_a_race_holds_no_spent_mask(monkeypatch):
    masks, shuffle = [], queueing._shuffle

    def recorded(*args):
        assert [ref() for ref in masks if ref() is not None] == [], "a spent mask is alive at the next draw"
        mask = shuffle(*args)
        masks.append(weakref.ref(mask))
        return mask

    monkeypatch.setattr(queueing, "_shuffle", recorded)
    admission_competition(mechanical_config(3000), 6)
    assert len(masks) == 6 and all(ref() is None for ref in masks)


def test_a_race_builds_no_words(monkeypatch):
    config = mechanical_config(3000)
    expected = admission_competition(config, 6)
    calls, simulate = [], queueing.simulate_queue
    monkeypatch.setattr(queueing, "simulate_queue", lambda *a, **k: calls.append(a) or simulate(*a, **k))
    monkeypatch.setattr(queueing, "random_admission_word", lambda *a: pytest.fail("a race built a shuffled word"))
    assert admission_competition(config, 6) == expected
    assert len(calls) == 1  # the mechanical run alone; every shuffle runs as a mask


@pytest.mark.parametrize("horizon, ones", [(1, 0), (1, 1), (60, 0), (60, 60), (60, 23), (1000, 377)])
@pytest.mark.parametrize("seed", [0, 1, 10_000])
def test_random_admission_word_is_the_shuffle_mask_as_letters(horizon, ones, seed):
    mask = queueing._shuffle(horizon, ones, seed)
    assert mask.dtype == bool and int(mask.sum()) == ones
    assert random_admission_word(horizon, ones, seed) == "".join("01"[bit] for bit in mask.tolist())


# tracemalloc peaks of the long-word race, measured with numpy 2.4 on CPython 3.11:
# 8.95 MiB for the whole race, arrivals drawn inside it, met while a shuffle mask
# is sampled (rng.choice shuffles a full int64 range) next to the held workspace;
# 1.72 MiB for one shuffle mask's run through the shared workspace, the mask
# drawn beforehand, which allocates its admitted arrivals and np.take's intp copy
# of the int32 heads.  Each bound is that peak plus 0.25 MiB, so computing a step
# into a fresh array fails; test_a_race_holds_no_spent_mask catches a held mask.
RACE_PEAK_MIB, SHARED_RUN_PEAK_MIB = 8.95 + 0.25, 1.72 + 0.25


def test_race_memory_peak_is_bounded():
    admission_competition(mechanical_config(1000), 2)  # lazy imports and caches outside the measurement
    config = mechanical_config(300_000, gamma=Fraction(3, 8))
    _arrival_times.cache_clear()
    tracemalloc.start()
    try:
        rows = admission_competition(config, 10)
        race = tracemalloc.get_traced_memory()[1]
        workspace = _workspace(rows[0].admitted)
        mask = queueing._shuffle(config.horizon, rows[0].admitted, 10_000)
        gamma = Fraction(rows[0].admitted, config.horizon)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert queueing._run(config, mask, gamma, workspace) == rows[1]
        run = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert race / 2**20 <= RACE_PEAK_MIB, race / 2**20
    assert run / 2**20 <= SHARED_RUN_PEAK_MIB, run / 2**20


# Service times where the closed form c_j = (a_h + s) + (j - h)*s holds in every
# busy period (2.0 and 0.5 are exact in binary) and where it breaks in some.
@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.3, max_value=1.2),
       st.sampled_from([2.0, 0.5, 1.7, 0.37 * 7]),
       st.one_of(st.sampled_from(["1", "001", "01101"]),
                 st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=20).map(MechanicalSpec)),
       st.integers(min_value=0, max_value=2**16))
def test_simulation_matches_event_loop_over_loads(load, service_time, admission, seed):
    density = QueueConfig(admission=admission).admission_density
    config = QueueConfig(float(density) * service_time / load, service_time, 2000, seed, admission)
    assert simulate_queue(config) == _simulate_queue_loop(config)


@pytest.mark.parametrize("service_time, exact", [(2.0, True), (1.7, False)])
def test_closed_form_needs_the_refill_only_off_binary_service_times(service_time, exact):
    # The race's stream: 300k arrivals, 3/8 admitted.  At s = 2 the closed form
    # is the recursion everywhere; at s = 1.7 it is not, so only the refill of the
    # failing periods makes the completions exact.
    arrivals = _arrival_times(0, 1.0, 300_000)
    admitted = arrivals.compress(np.frombuffer(symbol_stream(MechanicalSpec(Fraction(3, 8)), 300_000).encode(),
                                               np.uint8) == ord("1"))
    expected = _completions_oracle(admitted, service_time)
    heads = np.asarray(_heads_oracle(_start_flags(admitted, expected)))
    closed_form = (admitted[heads] + service_time) + (np.arange(len(admitted)) - heads) * service_time
    assert _same_bits(closed_form, expected) == exact
    _assert_exact(admitted, service_time)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("service_time", [1e308, 5e-324])
def test_simulation_matches_event_loop_at_extreme_service_times(service_time):
    # 1e308: completions overflow to inf and nobody leaves; 5e-324 is subnormal,
    # so c_j == a_j and every customer finds only itself.
    for admission in ("1", "011", MechanicalSpec(Fraction(2, 5))):
        config = QueueConfig(1.0, service_time, 1000, 3, admission)
        summary = simulate_queue(config)
        assert summary == _simulate_queue_loop(config)
        if service_time < 1:
            assert (summary.mean_cost, summary.max_queue) == (summary.admitted / 1000, 1)
    assert simulate_queue(QueueConfig(1.0, 1e308, 10, 0, "1")) == QueueSummary(0, Fraction(1), 10, 5.5, 10, 10)


def test_rejecting_everyone_matches_event_loop():
    config = QueueConfig(horizon=50, admission="0")
    assert simulate_queue(config) == _simulate_queue_loop(config) == QueueSummary(0, Fraction(0), 50, 0.0, 0, 0)


def test_competition_matches_event_loop_runs():
    config = mechanical_config(horizon=6000, seed=3)
    expected = [_simulate_queue_loop(config)]
    for i in range(6):
        word = random_admission_word(config.horizon, expected[0].admitted, 10_000 + i)
        expected.append(_simulate_queue_loop(replace(config, admission=word)))
    assert admission_competition(config, 6) == expected


def test_overload_matches_event_loop():
    config = QueueConfig(horizon=100_000)  # service 2 per mean gap 1: rho = 2
    assert simulate_queue(config) == _simulate_queue_loop(config)


def test_arrivals_are_drawn_once_and_read_only():
    first = _arrival_times(5, 1.0, 1000)
    assert _arrival_times(5, 1.0, 1000) is first
    assert not first.flags.writeable
    assert np.array_equal(first, np.cumsum(np.random.default_rng(5).exponential(1.0, 1000)))


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


@given(st.text(alphabet="01", min_size=1, max_size=300))
def test_admission_density_counts_the_ones(w):
    assert QueueConfig(admission=w).admission_density == Fraction(w.count("1"), len(w))


def test_random_admission_word_rejects_overfull():
    with pytest.raises(ValueError):
        random_admission_word(5, 6, 0)


def test_config_round_trip():
    data = {
        "mean_interarrival": 1.0,
        "service_time": 2.0,
        "horizon": 1234,
        "seed": 7,
        "admission": {"gamma": "1/3", "delta": "0"},
    }
    config = queue_config_from_dict(data)
    assert config.horizon == 1234
    assert isinstance(config.admission, MechanicalSpec)
    assert config.admission.gamma == Fraction(1, 3)

    word_config = queue_config_from_dict({"admission": "0101"})
    assert word_config.admission == "0101"


def test_every_present_key_reaches_the_config():
    data = {"mean_interarrival": 1.5, "service_time": 2.5, "horizon": 77, "seed": 9,
            "admission": {"gamma": "2/5", "delta": "1/3"}}
    expected = QueueConfig(1.5, 2.5, 77, 9, MechanicalSpec(Fraction(2, 5), Fraction(1, 3)))
    assert queue_config_from_dict(data) == expected
    # A key left out keeps the dataclass default; an unknown key is ignored.
    assert queue_config_from_dict({"horizon": 77, "note": "x"}) == QueueConfig(horizon=77)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        queue_config_from_dict({"horizon": 0})
    with pytest.raises(ValueError):
        queue_config_from_dict({"admission": "01x"})
    for key in ("mean_interarrival", "service_time"):
        for value in ("nan", "inf", "-inf", "0", "-1"):
            with pytest.raises(ValueError, match=key):
                queue_config_from_dict({key: value})


def test_config_integers_are_not_truncated():
    config = queue_config_from_dict({"horizon": 7, "seed": 3, "admission": "01"})
    assert (config.horizon, config.seed) == (7, 3)
    for key, value in (("horizon", 2.7), ("horizon", 3.0), ("horizon", "5"), ("seed", 1.5), ("seed", True)):
        with pytest.raises(ValueError, match=f"^{key} must be an int, got {re.escape(repr(value))}$"):
            queue_config_from_dict({key: value, "admission": "01"})


def test_config_floats_are_json_numbers():
    config = queue_config_from_dict({"mean_interarrival": 2, "service_time": 1.5, "admission": "01"})
    assert (config.mean_interarrival, config.service_time) == (2.0, 1.5)
    assert type(config.mean_interarrival) is float
    for key in ("mean_interarrival", "service_time"):
        for value in ("1.5", "abc", True, None, [1.0], 10**400):
            with pytest.raises(ValueError, match=f"'{key}' must be a number in float range, got"):
                queue_config_from_dict({key: value, "admission": "01"})


def test_negative_seeds_are_named():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        queue_config_from_dict({"seed": -1, "admission": "01"})
    with pytest.raises(ValueError, match="competitor_seed must be >= 0, got -5"):
        admission_competition(QueueConfig(horizon=10, admission="01"), 2, competitor_seed=-5)


@pytest.mark.parametrize("key", ["horizon", "seed"])
@pytest.mark.parametrize("value", [True, False, 100.5, 0.5, 3.0, "5", None, Fraction(4)])
def test_config_integers_are_ints(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an int, got {re.escape(repr(value))}$"):
        QueueConfig(**{key: value})


def test_simulation_does_not_check_the_word_again(monkeypatch):
    # QueueConfig checks the word once; a run reads it as checked.
    config = QueueConfig(horizon=300, admission="0110")
    expected = _simulate_queue_loop(config)
    calls = []
    monkeypatch.setattr(words, "check_word", lambda w: calls.append(w) or w)
    assert simulate_queue(config) == expected
    assert calls == []


@pytest.mark.filterwarnings("error")
def test_overflowing_arrival_stream_is_rejected():
    config = QueueConfig(mean_interarrival=1e308, service_time=1e308, horizon=10)
    with pytest.raises(ValueError, match="mean_interarrival 1e[+]308 over horizon 10"):
        simulate_queue(config)


def test_missing_gamma_is_named():
    with pytest.raises(ValueError, match="'gamma'"):
        queue_config_from_dict({"admission": {"delta": "0"}})


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=9))
def test_mean_cost_scales_with_admission_rate(numerator):
    gamma = Fraction(numerator, 10)
    summary = simulate_queue(mechanical_config(horizon=2000, gamma=gamma))
    assert summary.admitted_fraction == pytest.approx(float(gamma), abs=0.01)
    assert summary.mean_cost >= 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: QueueConfig(admission=""), "admission word must be nonempty"),
        (lambda: admission_competition(QueueConfig(horizon=10), 0), "need at least one competitor"),
    ],
    ids=["empty-word", "no-competitors"],
)
def test_queue_guards_name_what_they_refuse(call, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)
