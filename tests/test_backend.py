"""Unit tests for the back-end execution model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.uarch.backend import (
    BackendModel,
    port_activity_histogram,
    port_activity_histogram_columns,
)
from repro.uarch.spec import WindowSpec


@pytest.fixture
def backend(machine):
    return BackendModel(machine)


class TestPortPressure:
    def test_port_uops_cover_all_ports(self, backend, machine):
        spec = WindowSpec(frac_loads=0.3, frac_stores=0.1, frac_branches=0.1)
        result = backend.evaluate(spec, 11_000.0, 10_000.0, base_cycles=2_750.0)
        assert set(result.port_uops) == {p.name for p in machine.ports}

    def test_loads_split_across_load_ports(self, backend):
        spec = WindowSpec(frac_loads=0.4, frac_stores=0.0, frac_branches=0.0)
        result = backend.evaluate(spec, 10_000.0, 10_000.0, base_cycles=2_500.0)
        assert result.port_uops["p2"] == pytest.approx(result.port_uops["p3"])
        assert result.port_uops["p2"] > 0

    def test_high_ilp_no_port_stalls(self, backend):
        spec = WindowSpec(ilp=8.0, frac_loads=0.2, frac_stores=0.05)
        result = backend.evaluate(spec, 10_000.0, 10_000.0, base_cycles=2_500.0)
        assert result.port_stall_cycles == pytest.approx(0.0, abs=1e-6)

    def test_low_ilp_stalls(self, backend):
        spec = WindowSpec(ilp=1.0)
        result = backend.evaluate(spec, 10_000.0, 10_000.0, base_cycles=2_500.0)
        assert result.port_stall_cycles > 0

    def test_lower_ilp_costs_more(self, backend):
        costs = []
        for ilp in (4.0, 2.0, 1.0):
            result = backend.evaluate(
                WindowSpec(ilp=ilp), 10_000.0, 10_000.0, base_cycles=2_500.0
            )
            costs.append(result.port_stall_cycles)
        assert costs == sorted(costs)


class TestDivider:
    def test_divider_occupancy(self, backend, machine):
        spec = WindowSpec(frac_divides=0.01)  # default 1.1 uops/instruction
        result = backend.evaluate(spec, 11_000.0, 10_000.0, base_cycles=2_750.0)
        assert result.divides == pytest.approx(100.0)
        assert result.divider_active_cycles == pytest.approx(
            100.0 * machine.divider_latency
        )
        assert 0 < result.divider_stall_cycles < result.divider_active_cycles

    def test_no_divides_no_divider(self, backend):
        result = backend.evaluate(
            WindowSpec(frac_divides=0.0), 10_000.0, 10_000.0, base_cycles=2_500.0
        )
        assert result.divider_active_cycles == 0.0


class TestVectorWidth:
    def test_mixing_requires_both_widths(self, backend):
        only_512 = WindowSpec(frac_vector_512=0.3, vector_width_mix=0.8)
        result = backend.evaluate(only_512, 10_000.0, 10_000.0, base_cycles=2_500.0)
        assert result.vw_mismatch_events == 0.0

    def test_mixing_generates_events_and_stalls(self, backend):
        spec = WindowSpec(
            frac_vector_256=0.15, frac_vector_512=0.15, vector_width_mix=0.8
        )
        result = backend.evaluate(spec, 10_000.0, 10_000.0, base_cycles=2_500.0)
        assert result.vw_mismatch_events > 0
        assert result.vw_stall_cycles > 0

    def test_vector_counts_by_width(self, backend):
        spec = WindowSpec(
            frac_vector_128=0.1, frac_vector_256=0.2, frac_vector_512=0.05
        )  # default 1.1 uops/instruction
        result = backend.evaluate(spec, 11_000.0, 10_000.0, base_cycles=2_750.0)
        assert result.vector_uops_128 == pytest.approx(1_000.0)
        assert result.vector_uops_256 == pytest.approx(2_000.0)
        assert result.vector_uops_512 == pytest.approx(500.0)


class TestPortActivityHistogram:
    def test_zero_inputs(self):
        assert port_activity_histogram(0.0, 0.0, 8) == (0.0, 0.0, 0.0)

    def test_buckets_sum_to_active_cycles(self):
        c1, c2, c3 = port_activity_histogram(5_000.0, 2_000.0, 8)
        assert c1 + c2 + c3 == pytest.approx(2_000.0)

    def test_low_occupancy_favors_one_port(self):
        c1, c2, c3 = port_activity_histogram(1_100.0, 1_000.0, 8)
        assert c1 > c2 > c3

    def test_high_occupancy_favors_many_ports(self):
        c1, c2, c3 = port_activity_histogram(6_000.0, 1_000.0, 8)
        assert c3 > c1

    def test_mean_capped_by_port_count(self):
        c1, c2, c3 = port_activity_histogram(1e9, 10.0, 4)
        assert c1 + c2 + c3 == pytest.approx(10.0)


def _floats(low, high):
    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


# (uops_executed, active_cycles) rows, one strategy per branch of the
# scalar function.
_HISTOGRAM_ROWS = st.one_of(
    # active_cycles <= 0 or uops_executed <= 0: the early (0, 0, 0).
    st.tuples(_floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, -3.5])),
    st.tuples(st.sampled_from([0.0, -0.0, -3.5]), _floats(-1e6, 1e6)),
    # uops / active above any port count: mean_busy capped.
    st.tuples(_floats(1e3, 1e9), _floats(1e-3, 1.0)),
    # mean_busy so small that exp(-mean_busy) == 1.0: the second (0, 0, 0).
    st.tuples(_floats(1e-300, 1e-18), _floats(1.0, 1e6)),
    # Ordinary windows.
    st.tuples(_floats(1e-3, 1e6), _floats(1e-3, 1e6)),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(_HISTOGRAM_ROWS, min_size=1, max_size=40),
    port_count=st.integers(min_value=1, max_value=12),
)
@example(
    rows=[
        (5.0, 0.0),
        (5.0, -0.0),
        (0.0, 5.0),
        (1e9, 10.0),
        (1e-20, 1e3),
        (1_100.0, 1_000.0),
        # mean_busy values from paper-scale windows where x * x differs
        # from libm pow(x, 2).
        (2.7714175398839798, 1.0),
        (3.3706748845847754, 1.0),
    ],
    port_count=8,
)
def test_histogram_columns_match_scalar_bit_for_bit(rows, port_count):
    uops = np.array([u for u, _ in rows])
    active = np.array([a for _, a in rows])
    columns = np.column_stack(
        port_activity_histogram_columns(uops, active, port_count)
    )
    for got, (u, a) in zip(columns, rows):
        # tobytes, not ==: the sign of a zero bucket must match too.
        expected = np.array(port_activity_histogram(u, a, port_count))
        assert got.tobytes() == expected.tobytes(), (u, a)
