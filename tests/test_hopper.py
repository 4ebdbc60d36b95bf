import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaoslink.core import LogisticParams, iterate
from chaoslink.hopper import (
    ChannelEntry,
    ChannelTable,
    build_default_table,
    hop_session,
    hop_trigger,
    load_table_csv,
    save_table_csv,
    select_channel,
)


def _state(where, k):
    """A drawn float in units of k, or the state on channel edge j, or the
    float just below (-1) or above (+1) it."""
    if not isinstance(where, tuple):
        return where * k
    j, step = where
    edge = j * k / 100
    return float(np.nextafter(edge, step * np.inf)) if step else edge


@pytest.fixture(scope="module")
def table():
    return build_default_table()


class TestTable:
    def test_reference_rows(self, table):
        assert (table[1].f_low, table[1].f_high, table[1].f_center) == (60.0, 61.4, 60.7)
        assert (table[2].f_low, table[2].f_high, table[2].f_center) == (61.4, 62.8, 62.1)
        assert (table[99].f_low, table[99].f_high, table[99].f_center) == (197.2, 198.6, 197.9)
        assert (table[100].f_low, table[100].f_high, table[100].f_center) == (198.6, 200.0, 199.3)

    def test_geometry(self, table):
        assert len(table) == 100
        assert table[1].f_low == 60.0
        assert table[100].f_high == 200.0
        for p in range(1, 100):
            assert table[p].f_high == pytest.approx(table[p + 1].f_low, abs=1e-9)
        for entry in table.entries:
            assert entry.f_high - entry.f_low == pytest.approx(1.4, abs=1e-9)

    def test_rejects_gap(self):
        entries = (
            ChannelEntry(1, 60.0, 61.4, 60.7),
            ChannelEntry(2, 62.0, 63.4, 62.7),
        )
        with pytest.raises(ValueError):
            ChannelTable(entries=entries)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChannelTable(entries=())

    def test_csv_round_trip(self, table, tmp_path):
        path = tmp_path / "lut.csv"
        save_table_csv(table, path)
        loaded = load_table_csv(path)
        assert loaded == table


class TestSelect:
    def test_bottom_of_basin(self, table):
        assert select_channel(0.005, 1.0, table) == 1

    def test_top_of_basin(self, table):
        assert select_channel(0.995, 1.0, table) == 100

    def test_hand_floor(self, table):
        assert select_channel(0.607, 1.0, table) == 61

    def test_clamps_out_of_basin(self, table):
        assert select_channel(-1.0, 1.0, table) == 1
        assert select_channel(2.5, 1.0, table) == 100

    def test_synchronized_states_bin_identically(self, table):
        for state in np.linspace(0.001, 0.999, 97):
            assert select_channel(state, 1.0, table) == select_channel(state, 1.0, table)

    def test_scale_factor(self, table):
        assert select_channel(697.0, 1024.0, table) == select_channel(
            697.0 / 1024.0, 1.0, table
        )

    def test_rejects_a_scale_factor_at_or_below_zero(self, table):
        with pytest.raises(ValueError, match="scale factor k must be positive"):
            select_channel(0.5, 0.0, table)

    @given(
        k=st.sampled_from([1.0, 0.3, 3.7, 1024.0]),
        # channel edges C*state/k = j and their float neighbours, states
        # below 0 and at or above k, and the basin in between
        where=st.lists(st.one_of(
            st.tuples(st.integers(-3, 203), st.sampled_from([-1, 0, 1])),
            st.floats(-3.0, 3.0, allow_nan=False),
        ), min_size=1, max_size=20),
    )
    def test_matches_scalar_formula(self, table, k, where):
        states = [_state(p, k) for p in where]
        expected = [min(max(1 + int(100 * s // k), 1), 100) for s in states]
        got = select_channel(np.array(states), k, table)
        assert got.dtype == np.int64 and got.tolist() == expected
        scalars = [select_channel(s, k, table) for s in states]
        assert all(type(j) is int for j in scalars) and scalars == expected

    @given(
        k=st.sampled_from([1.0, 0.3, 3.7, 1024.0]),
        where=st.lists(st.one_of(
            st.tuples(st.integers(-3, 203), st.sampled_from([-1, 0, 1])),
            st.floats(-3.0, 3.0, allow_nan=False),
        ), min_size=1, max_size=20),
    )
    def test_bins_do_not_depend_on_a_power_of_two_scale(self, table, k, where):
        # Scaled so that 3k stays below 2**1023: C*state overflows on the
        # upper channels, yet every bin is the formula's at the small scale.
        states = [_state(p, k) for p in where]
        expected = [min(max(1 + int(100 * s // k), 1), 100) for s in states]
        scale = 2.0 ** (1023 - math.ceil(math.log2(3 * k)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = select_channel(np.array(states) * scale, k * scale, table)
        assert got.tolist() == expected

    def test_infinite_and_overflowing_states_clamp(self, table):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_channel(np.inf, 1.0, table) == 100
            assert select_channel(-np.inf, 1.0, table) == 1
            # C*state overflows
            assert select_channel(1e308, 1e-300, table) == 100
            assert select_channel(-1e308, 1e-300, table) == 1
            states = np.array([np.inf, -np.inf, 1e308, -1e308, 0.5e-300])
            assert select_channel(states, 1e-300, table).tolist() == [100, 1, 100, 1, 51]
            for state in (np.nan, np.array([0.5, np.nan])):
                with pytest.raises(ValueError, match="no channel for state"):
                    select_channel(state, 1.0, table)


class TestHopSession:
    def test_identical_states(self, table):
        assert hop_session(0.42, 0.42, 1.0, table) == (43, 43, 0)

    def test_synced_fixed_point_pair(self, table):
        j_tx, j_rx, err = hop_session(697 / 1024, 697 / 1024, 1.0, table)
        assert err == 0

    def test_presync_clamps_response(self, table):
        j_tx, j_rx, err = hop_session(0.1, -1.0, 1.0, table)
        assert j_rx == 1
        assert err >= 0

    def test_elementwise_on_arrays(self, table):
        x, y = np.array([0.42, 0.1, 0.995]), np.array([0.42, -1.0, 0.985])
        j_tx, j_rx, err = hop_session(x, y, 1.0, table)
        assert (j_tx.tolist(), j_rx.tolist(), err.tolist()) == ([43, 11, 100], [43, 1, 99],
                                                                 [0, 10, 1])


class TestTrigger:
    def test_all_zero_history(self):
        # the first full window ends at index window - 1
        assert hop_trigger(np.zeros(10), tol=1e-6, window=5) == 4

    def test_recent_excursion_blocks(self):
        assert hop_trigger([0.0, 0.0, 0.0, 0.0, 0.5], tol=1e-6, window=5) == -1
        # the run starts again after the excursion
        assert hop_trigger([0.0, 0.5] + [0.0] * 5, tol=1e-6, window=5) == 6
        assert hop_trigger([0.0] * 4 + [np.nan] + [0.0] * 5, tol=1e-6, window=5) == 9

    def test_fires_at_expected_decay_step(self):
        # rho = 0.5, e0 = -1.1: |e_n| < 1e-6 from n = 21, so the 5-wide
        # window first fills at n = 25
        history = [0.5**n * -1.1 for n in range(40)]
        assert hop_trigger(history, tol=1e-6, window=5) == 25
        assert hop_trigger(history[:25], tol=1e-6, window=5) == -1

    def test_insufficient_history(self):
        assert hop_trigger([0.0], tol=1e-6, window=5) == -1
        assert hop_trigger([], tol=1e-6, window=1) == -1
        with pytest.raises(ValueError, match="window must be >= 1"):
            hop_trigger([0.0], tol=1e-6, window=0)

    def test_window_longer_than_history_allocates_nothing(self):
        # a window the history cannot fill is no trigger, however large
        tracemalloc.start()
        try:
            assert hop_trigger(np.zeros(10), tol=1e-6, window=10**7) == -1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(
        epsilon=st.lists(st.sampled_from([0.0, -1e-7, 1e-6, 0.5, np.nan, -np.inf]),
                         max_size=30),
        window=st.integers(1, 8),
    )
    def test_matches_scalar_definition(self, epsilon, window):
        expected = next((n for n in range(window - 1, len(epsilon))
                         if all(abs(v) < 1e-6 for v in epsilon[n - window + 1:n + 1])),
                        -1)
        assert hop_trigger(np.array(epsilon), tol=1e-6, window=window) == expected


def test_empirical_channel_spread(table):
    # frozen from validation: a 1e4-step chaotic orbit selects 69
    # distinct channels, comfortably above the >= 60 requirement
    orbit = iterate(LogisticParams(3.7), 0.1, 9_999)
    indices = {select_channel(x, 1.0, table) for x in orbit}
    assert len(indices) >= 60
