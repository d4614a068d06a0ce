"""Property: the memoised demand build and one-pass packing reproduce the
straightforward per-mapping reference bit for bit.

The production path builds each DNN's stage demands once per platform
and assignment and packs a whole batch in one vectorized pass
(:func:`repro.sim.compute_stage_demands`, ``repro.sim.backend._pack``).
The reference (``scalar_oracle.py``) builds every stage afresh and packs
element by element.  Every packed array must be ``==`` — not merely
close — because the compiled kernel's bit-compatibility starts here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import jetson_class, orange_pi_5
from repro.mapping import random_partition_mapping, uniform_block_mapping
from repro.sim import compute_stage_demands
from repro.sim.backend import _pack
from repro.zoo import get_model

from scalar_oracle import reference_pack, reference_stage_demands

PLATFORMS = {"orange_pi_5": orange_pi_5(), "jetson_class": jetson_class()}
POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet12", "googlenet",
        "inception_v4")


def _assert_packs_equal(got, want):
    assert got[0] == want[0]                      # packed_rows
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PLATFORMS)),
       st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True),
       st.integers(0, 2**31 - 1), st.integers(1, 6),
       st.lists(st.booleans(), min_size=6, max_size=6))
def test_pack_of_demands_matches_reference(platform_name, names, seed,
                                           batch_size, empties):
    platform = PLATFORMS[platform_name]
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mappings = [
        (random_partition_mapping if i % 2 == 0 else uniform_block_mapping)(
            workload, platform.num_components, rng)
        for i in range(batch_size)]
    # Build every mapping twice: the second pass answers from the memo.
    for _ in range(2):
        got_sets = [compute_stage_demands(workload, m, platform)
                    for m in mappings]
        want_sets = [reference_stage_demands(workload, m, platform)
                     for m in mappings]
        assert got_sets == want_sets
    # Empty elements mixed in, as the solver entry point may see them.
    got_sets = [[] if e else d for d, e in zip(got_sets, empties)]
    want_sets = [[] if e else d for d, e in zip(want_sets, empties)]
    _assert_packs_equal(_pack(got_sets, len(workload), platform),
                        reference_pack(want_sets, len(workload), platform))


def test_all_empty_batch_packs_to_nothing():
    platform = PLATFORMS["orange_pi_5"]
    _assert_packs_equal(_pack([[], []], 2, platform),
                        reference_pack([[], []], 2, platform))
