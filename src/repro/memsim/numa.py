"""NUMA topology: tiers exposed as CPU-less nodes, first-touch allocation.

Figure 1 of the paper: CXL memories appear to the OS as CPU-less NUMA
nodes mapped into the physical address space; node 0 is the CPU-attached
fast tier.  The topology owns the :class:`~repro.memsim.tiers.MemoryTier`
instances and implements the kernel's default *first-touch* placement:
new pages land on the fastest node with free capacity, spilling to slower
nodes once it fills — exactly the "First-touch NUMA" baseline when no
migration runs on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim.page_table import PageTable
from repro.memsim.pageset import first_occurrence
from repro.memsim.tiers import MemoryTier, TierSpec

#: Fig. 1-(b): the CPU-attached fast tier is node 0 and every CXL expander
#: a CPU-less node after it; the topology builds no other layout.
FAST_NODE = 0


@dataclass
class NumaNode:
    """One NUMA node: an id, a tier, and whether CPUs are attached."""

    node_id: int
    tier: MemoryTier
    has_cpu: bool

    @property
    def name(self) -> str:
        return f"node{self.node_id}({self.tier.spec.name})"


class NumaTopology:
    """Ordered collection of NUMA nodes, fastest first.

    Args:
        specs_and_capacities: ``(TierSpec, capacity_pages)`` per node, in
            node-id order.  Node 0 is assumed CPU-attached (fast tier);
            the rest are CPU-less CXL nodes, matching Fig. 1-(b).
    """

    def __init__(self, specs_and_capacities: list[tuple[TierSpec, int]]) -> None:
        if not specs_and_capacities:
            raise ValueError("topology needs at least one node")
        self.nodes: list[NumaNode] = []
        for node_id, (spec, capacity) in enumerate(specs_and_capacities):
            tier = MemoryTier(spec, capacity, node_id)
            self.nodes.append(NumaNode(node_id, tier, has_cpu=node_id == FAST_NODE))

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, node_id: int) -> NumaNode:
        return self.nodes[node_id]

    @property
    def fast_node(self) -> NumaNode:
        return self.nodes[FAST_NODE]

    @property
    def slow_nodes(self) -> list[NumaNode]:
        return self.nodes[1:]

    def total_capacity_pages(self) -> int:
        return sum(node.tier.capacity_pages for node in self.nodes)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def first_touch_allocate(self, page_table: PageTable, pages: np.ndarray) -> int:
        """Allocate unmapped ``pages`` fastest-node-first, in touch order.

        Returns the number of pages newly mapped.  Raises ``MemoryError``
        if the whole topology is out of capacity (the simulator sizes
        capacities so the resident set always fits, as the paper does by
        reserving host memory).
        """
        unmapped = page_table.unmapped_pages(pages)
        if unmapped.size == 0:
            return 0
        # Deduplicate while preserving *touch order* — a sorted dedupe
        # would turn first-touch into lowest-page-number-first.
        todo = first_occurrence(unmapped, page_table.num_pages)
        mapped = 0
        cursor = 0
        for node in self.nodes:
            free = node.tier.free_pages
            if free <= 0:
                continue
            take = min(free, todo.size - cursor)
            if take <= 0:
                break
            chunk = todo[cursor : cursor + take]
            node.tier.reserve(take)
            page_table.map_pages(chunk, node.node_id)
            cursor += take
            mapped += take
            if cursor >= todo.size:
                break
        if cursor < todo.size:
            raise MemoryError(f"out of memory: {todo.size - cursor} pages could not be placed")
        return mapped

    def end_epoch(self) -> None:
        """Roll every tier's bandwidth accounting to the next epoch."""
        for node in self.nodes:
            node.tier.end_epoch()
