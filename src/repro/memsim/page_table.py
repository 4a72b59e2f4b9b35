"""Page-table model: placement, accessed bits, poison bits, page flags.

The simulator keeps a flat array mapping each virtual page of the
workload's address space to the NUMA node currently backing it, plus the
per-page bits the profiling techniques and policies manipulate:

* ``accessed`` — the hardware Accessed bit PTE-scan clears and re-reads,
* ``poisoned`` — the protection bit hint-fault monitoring sets so the
  next TLB-missing access faults (Thermostat/TPP/AutoNUMA substrate),
* ``PG_demoted`` — the page flag NeoMem adds to the kernel to count
  ping-pong promotions (Section V-A).

Everything is numpy-backed so the epoch engine can update bits for a
whole access batch at once.
"""

from __future__ import annotations

import numpy as np


class PageFlags:
    """Bit positions inside the per-page flags byte."""

    ACCESSED = np.uint8(1 << 0)
    POISONED = np.uint8(1 << 1)
    DEMOTED = np.uint8(1 << 2)  # the paper's PG_demoted flag


class PageTable:
    """Flat page table for a single simulated address space.

    Args:
        num_pages: Size of the workload's resident set, in base pages.
            Virtual page numbers are ``0 .. num_pages - 1``.
    """

    def __init__(self, num_pages: int) -> None:
        if num_pages <= 0:
            raise ValueError("address space must contain at least one page")
        self.num_pages = int(num_pages)
        #: NUMA node id backing each page; -1 means not yet allocated.
        self.node_of_page = np.full(self.num_pages, -1, dtype=np.int16)
        self.flags = np.zeros(self.num_pages, dtype=np.uint8)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def map_pages(self, pages: np.ndarray, node_id: int) -> None:
        """Back ``pages`` with memory on ``node_id``."""
        self.node_of_page[np.asarray(pages, dtype=np.int64)] = np.int16(node_id)

    def nodes_of(self, pages: np.ndarray) -> np.ndarray:
        """Node id per page (int16 array; -1 for unmapped)."""
        return self.node_of_page[np.asarray(pages, dtype=np.int64)]

    def pages_on_node(self, node_id: int) -> np.ndarray:
        """All pages currently backed by ``node_id``."""
        return np.nonzero(self.node_of_page == np.int16(node_id))[0]

    def unmapped_pages(self, pages: np.ndarray) -> np.ndarray:
        """Subset of ``pages`` that have no backing node yet."""
        pages = np.asarray(pages, dtype=np.int64)
        return pages[self.node_of_page[pages] == -1]

    def occupancy(self) -> dict[int, int]:
        """Pages per node id (excluding unmapped)."""
        nodes, counts = np.unique(self.node_of_page, return_counts=True)
        return {int(n): int(c) for n, c in zip(nodes, counts) if n >= 0}

    # ------------------------------------------------------------------
    # accessed bits (PTE-scan substrate)
    # ------------------------------------------------------------------
    def set_accessed(self, pages: np.ndarray) -> None:
        """Hardware sets Accessed on the page walk after a TLB miss."""
        idx = np.asarray(pages, dtype=np.int64)
        self.flags[idx] |= PageFlags.ACCESSED

    def clear_accessed_all(self) -> None:
        """Daemon clears every Accessed bit at the start of a scan epoch."""
        self.flags &= ~PageFlags.ACCESSED

    def clear_accessed(self, pages: np.ndarray) -> None:
        idx = np.asarray(pages, dtype=np.int64)
        self.flags[idx] &= ~PageFlags.ACCESSED

    def accessed_pages(self) -> np.ndarray:
        """Pages whose Accessed bit is currently set."""
        return np.nonzero(self.flags & PageFlags.ACCESSED)[0]

    # ------------------------------------------------------------------
    # poison bits (hint-fault substrate)
    # ------------------------------------------------------------------
    def poison(self, pages: np.ndarray) -> None:
        idx = np.asarray(pages, dtype=np.int64)
        self.flags[idx] |= PageFlags.POISONED

    def unpoison(self, pages: np.ndarray) -> None:
        idx = np.asarray(pages, dtype=np.int64)
        self.flags[idx] &= ~PageFlags.POISONED

    def poisoned_mask(self, pages: np.ndarray) -> np.ndarray:
        """Boolean mask over ``pages``: True where the PTE is poisoned."""
        idx = np.asarray(pages, dtype=np.int64)
        return (self.flags[idx] & PageFlags.POISONED) != 0

    # ------------------------------------------------------------------
    # PG_demoted (ping-pong accounting, Section V-A)
    # ------------------------------------------------------------------
    def mark_demoted(self, pages: np.ndarray) -> None:
        idx = np.asarray(pages, dtype=np.int64)
        self.flags[idx] |= PageFlags.DEMOTED

    def demoted_mask(self, pages: np.ndarray) -> np.ndarray:
        idx = np.asarray(pages, dtype=np.int64)
        return (self.flags[idx] & PageFlags.DEMOTED) != 0

    def clear_demoted(self, pages: np.ndarray) -> None:
        idx = np.asarray(pages, dtype=np.int64)
        self.flags[idx] &= ~PageFlags.DEMOTED
