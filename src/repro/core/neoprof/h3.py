"""H3 universal hash family (Ramakrishna et al., Eq. 5 of the paper).

NeoProf's pipelined hash units compute, for an ``n``-bit input ``x`` and
an ``n x m``-bit seed matrix ``pi``::

    h_pi(x) = x(0)*pi(0) XOR x(1)*pi(1) ... XOR x(n-1)*pi(n-1)

i.e. the XOR of the seed rows selected by the set bits of ``x``.  In
hardware this is an AND-XOR reduction tree split into pipeline stages;
here the reduction is precomputed into byte-chunk lookup tables: the
input splits into ``ceil(n/8)`` bytes and each byte selects one
256-entry table holding the XOR of that chunk's seed rows for every
byte value.  XOR is associative and commutative, so the table-gather
formulation is bit-for-bit identical to the per-bit AND-XOR loop (the
scalar :meth:`H3HashFamily.hash_one` keeps the reference arithmetic).
"""
# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

import numpy as np


class H3HashFamily:
    """``num_hashes`` independent H3 hash functions onto ``[0, width)``.

    Args:
        input_bits: Number of address bits hashed (Table IV: 32).
        width: Output range; must be a power of two so the m-bit output
            maps directly onto sketch columns.
        num_hashes: Number of independent functions (sketch depth D).
        seed: RNG seed for the pi matrices; fixed by default so hardware
            and simulation agree run-to-run.
    """

    def __init__(self, input_bits: int, width: int, num_hashes: int, seed: int = 0xC0FFEE) -> None:
        if input_bits <= 0 or input_bits > 63:
            raise ValueError("input_bits must be in 1..63")
        if width <= 0 or width & (width - 1):
            raise ValueError("width must be a positive power of two")
        if num_hashes <= 0:
            raise ValueError("need at least one hash function")
        self.input_bits = int(input_bits)
        self.width = int(width)
        self.num_hashes = int(num_hashes)
        self.output_bits = int(width - 1).bit_length()
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        # pi[d, i] is the m-bit seed row for bit i of hash d.
        self._pi = rng.integers(0, width, size=(num_hashes, input_bits), dtype=np.uint64)
        # Byte-chunk tables: tables[c][d, b] is the XOR of the seed rows
        # of chunk c's bits selected by byte value b.  Built by doubling:
        # each new bit XORs its row into a copy of the table so far.
        self._input_mask = np.uint64((1 << self.input_bits) - 1)
        self._num_chunks = (self.input_bits + 7) // 8
        tables = np.zeros((self._num_chunks, num_hashes, 256), dtype=np.uint64)
        for chunk in range(self._num_chunks):
            filled = 1
            for j in range(min(8, self.input_bits - 8 * chunk)):  # repro: noqa HOT005 — one-time table construction at __init__, doubling fill is O(256) per chunk
                row = self._pi[:, 8 * chunk + j]
                tables[chunk, :, filled : 2 * filled] = (
                    tables[chunk, :, :filled] ^ row[:, None]
                )
                filled *= 2
        self._tables = tables

    def hash_one(self, value: int, which: int) -> int:
        """Hash a single value with function ``which`` (reference path)."""
        acc = np.uint64(0)
        v = int(value)
        for bit in range(self.input_bits):  # repro: noqa HOT005 — scalar reference implementation kept to cross-check the table gather
            if (v >> bit) & 1:
                acc ^= self._pi[which, bit]
        return int(acc)

    def hash_batch(self, values: np.ndarray) -> np.ndarray:
        """Hash a batch with every function.

        Returns an array of shape ``(num_hashes, len(values))`` of column
        indices in ``[0, width)``.
        """
        values = np.asarray(values, dtype=np.uint64) & self._input_mask
        byte = (values & np.uint64(0xFF)).astype(np.intp)
        out = self._tables[0][:, byte]  # fancy gather copies: (D, n)
        for chunk in range(1, self._num_chunks):  # repro: noqa HOT005 — loop over <=8 byte chunks (table count), not over elements
            byte = ((values >> np.uint64(8 * chunk)) & np.uint64(0xFF)).astype(np.intp)
            out ^= self._tables[chunk][:, byte]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"H3HashFamily(n={self.input_bits}, width={self.width}, "
            f"D={self.num_hashes})"
        )
