"""Property tests for the fleet power governor's watts table.

The governor prices a node from a table built once per dispatch
(:func:`repro.hw.energy.node_watts_table`), never from per-call
:meth:`~repro.hw.energy.DvfsState.node_watts`.  The ledger stays
bit-identical to per-call pricing only if every entry — and every
lookup, occupancies above capacity included — is the very float the
per-call path computes.  Swept over random power envelopes, ladders and
capacities (derandomized so tier-1 runs reproduce bit for bit).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (ComponentPower, PlatformPower, dvfs_ladder,
                      node_watts_table)
from repro.serve.fleet import FleetPowerConfig, NodeSpec
from repro.serve.fleet.power import _PowerGovernor

# (idle_w, dynamic_w, util_exponent) per component, plus board overhead.
envelopes = st.builds(
    lambda terms, overhead: PlatformPower(
        components=tuple(ComponentPower(f"c{i}", *term)
                         for i, term in enumerate(terms)),
        board_overhead_w=overhead),
    st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 30.0),
                       st.floats(0.3, 3.0)), min_size=1, max_size=4),
    st.floats(0.0, 5.0))

# Descending ladders that start at the nominal 1.0 state.
multipliers = st.lists(st.floats(0.05, 0.99), unique=True, max_size=3).map(
    lambda lower: (1.0, *sorted(lower, reverse=True)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(power=envelopes, steps=multipliers, capacity=st.integers(1, 12))
def test_table_matches_per_call_pricing(power, steps, capacity):
    """Every entry and every governor lookup, for all levels and all
    occupancies (``k > capacity`` clips), equals per-call pricing."""
    ladder = dvfs_ladder(power, steps)
    table = node_watts_table(ladder, capacity)
    governor = _PowerGovernor(FleetPowerConfig(ladders=(ladder,)),
                              [NodeSpec(name="n", capacity=capacity)], 60.0)
    assert len(table) == len(ladder)
    for level, state in enumerate(ladder):
        assert len(table[level]) == capacity + 1
        for k in range(capacity + 4):
            expected = state.node_watts(min(1.0, k / capacity))
            if k <= capacity:
                assert table[level][k].hex() == expected.hex()
            # Both governor lookups: the per-node one and the per-event
            # vector the ledger integrates.
            assert governor._watts(0, True, k, level).hex() \
                == expected.hex()
            assert governor._draw([table[level]], [capacity],
                                  [(True, k)])[0].hex() == expected.hex()
        assert governor._watts(0, False, capacity, level) == 0.0
