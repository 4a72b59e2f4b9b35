"""Page-table model: placement, accessed bits, poison bits, PG_demoted.

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


class PageTable:
    """Flat page table for a single simulated address space.

    Each per-page bit is its own bool array, so setting or clearing a
    batch's bits is one scatter.

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
        self.accessed = np.zeros(self.num_pages, dtype=bool)
        self.poisoned = np.zeros(self.num_pages, dtype=bool)
        #: the paper's PG_demoted flag
        self.demoted = np.zeros(self.num_pages, dtype=bool)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def map_pages(self, pages: np.ndarray, node_id: int) -> None:
        """Back ``pages`` with memory on ``node_id``."""
        self.node_of_page[pages] = node_id

    def nodes_of(self, pages: np.ndarray) -> np.ndarray:
        """Node id per page (int16 array; -1 for unmapped)."""
        return self.node_of_page[pages]

    def pages_on_node(self, node_id: int) -> np.ndarray:
        """All pages currently backed by ``node_id``."""
        return (self.node_of_page == node_id).nonzero()[0]

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
        self.accessed[pages] = True

    def clear_accessed_all(self) -> None:
        """Daemon clears every Accessed bit at the start of a scan epoch."""
        self.accessed.fill(False)

    def clear_accessed(self, pages: np.ndarray) -> None:
        self.accessed[pages] = False

    def accessed_mask(self, pages: np.ndarray) -> np.ndarray:
        """Boolean mask over ``pages``: True where Accessed is set."""
        return self.accessed[pages]

    def accessed_pages(self) -> np.ndarray:
        """Pages whose Accessed bit is currently set."""
        return self.accessed.nonzero()[0]

    # ------------------------------------------------------------------
    # poison bits (hint-fault substrate)
    # ------------------------------------------------------------------
    def poison(self, pages: np.ndarray) -> None:
        self.poisoned[pages] = True

    def unpoison(self, pages: np.ndarray) -> None:
        self.poisoned[pages] = False

    def poisoned_mask(self, pages: np.ndarray) -> np.ndarray:
        """Boolean mask over ``pages``: True where the PTE is poisoned."""
        return self.poisoned[pages]

    # ------------------------------------------------------------------
    # PG_demoted (ping-pong accounting, Section V-A)
    # ------------------------------------------------------------------
    def mark_demoted(self, pages: np.ndarray) -> None:
        self.demoted[pages] = True

    def demoted_mask(self, pages: np.ndarray) -> np.ndarray:
        return self.demoted[pages]

    def clear_demoted(self, pages: np.ndarray) -> None:
        self.demoted[pages] = False
