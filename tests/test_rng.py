import numpy as np
import pytest

from drpsim import run_replications
from drpsim.rng import substream


def test_same_path_same_stream():
    a = substream(42, 1, 3).standard_normal(8)
    b = substream(42, 1, 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    draws = {
        name: gen.standard_normal(4).tobytes()
        for name, gen in {
            "seed42-0": substream(42, 0),
            "seed42-1": substream(42, 1),
            "seed43-0": substream(43, 0),
            "seed42-0-0": substream(42, 0, 0),
            "seed42-root": substream(42),
        }.items()
    }
    assert len(set(draws.values())) == len(draws)


def test_path_is_not_flattened():
    # (1, 23) and (12, 3) must name different streams
    a = substream(7, 1, 23).standard_normal(4)
    b = substream(7, 12, 3).standard_normal(4)
    assert not np.array_equal(a, b)


def test_negative_path_components_allowed():
    a = substream(7, -1).standard_normal(4)
    b = substream(7, 1).standard_normal(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seeds_outside_u64_are_rejected(seed, unit_scenario):
    # masking to 64 bits would run seed 2**64 - 1's or seed 5's streams
    with pytest.raises(ValueError, match=r"master_seed must be in \[0, 2\*\*64\)"):
        substream(seed, 1, 0)
    with pytest.raises(ValueError, match="master_seed"):
        run_replications(unit_scenario, 1.0, 1, seed)


def test_u64_bounds_are_accepted():
    assert substream(0).standard_normal() != substream(2**64 - 1).standard_normal()
