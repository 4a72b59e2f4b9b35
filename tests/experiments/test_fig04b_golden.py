"""Fig. 4-(b) pinned to the output of the per-access scalar cache loop.

``run_fig04b`` drives the exact L1/L2/LLC hierarchy.  The values below
were produced by calling ``CacheHierarchy.access`` once per access; any
faster path through the hierarchy must reproduce the per-page TLB-access
and LLC-miss counts, and their correlation, bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.fig04 import run_fig04b

#: seed -> (SHA-256 of tlb_accesses, SHA-256 of llc_misses, pearson_r.hex())
GOLDEN = {
    7: (
        "22b69bdc2e40ca32adf4720074986211dd0b492c15f5b442774ebd7b01f408ac",
        "2de1c06690c8f5af090c1b7177a40ff8464f64624a29749b8b26c9ebf4fb0e39",
        "0x1.79412b6cc7880p-1",
    ),
    101: (
        "25a054c6d37ff76904e9670f2e3c16cb164cd837e87483a7c74a7339ed31aefb",
        "21330e69e536ae6b3957c60f3534d2c12e53b25eaae2771fc3b509d5af55a206",
        "0x1.78e9601b7b61fp-1",
    ),
}


def _sha256(counts: np.ndarray) -> str:
    assert counts.dtype == np.int64 and counts.ndim == 1
    return hashlib.sha256(counts.tobytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_fig04b_matches_scalar_golden(seed):
    result = run_fig04b(num_pages=1024, accesses=40_000, seed=seed)
    live = (_sha256(result.tlb_accesses), _sha256(result.llc_misses), result.pearson_r.hex())
    assert live == GOLDEN[seed]
