"""Exact set-associative cache and cache-hierarchy models.

These models are used where per-access fidelity matters: the Fig. 4-(b)
experiment (TLB-access vs LLC-access dispersion, which the paper produced
with the KCacheSim simulator) and the unit/property tests of the LLC
filter.  End-to-end simulations use the faster page-granularity
:class:`~repro.memsim.cachefilter.PageCacheFilter` instead.

The replacement policy is true LRU, implemented with a per-line timestamp
so that lookups are O(associativity).  The scalar ``access`` methods are
the reference.  The ``access_batch`` methods replay a whole address array
with array operations and leave statistics, tags, timestamps and clocks
exactly as a loop of ``access`` calls would, so the two can be mixed.
"""

# repro: hot-path — the batched replay drives Fig. 4-(b); per-access python loops are regressions

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim.address import CACHE_LINE_SIZE


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys`` below ``bound``.

    Keys that fit 16 bits are sorted as such, which lets numpy use its
    radix sort: about 10x faster than its stable sort of int64 keys on
    the 8,192-access batches of Fig. 4-(b).
    """
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0


class Cache:
    """One level of a set-associative, write-allocate, LRU cache.

    Addresses are byte addresses; the cache indexes them by line.
    ``access`` returns ``True`` on hit.  Misses insert the line and evict
    the LRU way when the set is full.
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        line_size: int = CACHE_LINE_SIZE,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or line_size <= 0:
            raise ValueError("cache geometry must be positive")
        num_lines = size_bytes // line_size
        if num_lines % associativity != 0:
            raise ValueError(
                f"{name}: {num_lines} lines not divisible by associativity {associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.num_sets = num_lines // associativity
        # tags[set, way]; -1 means invalid.  lru[set, way] is a logical
        # timestamp; larger means more recently used.  The clock stamps
        # from 1, so a way is invalid exactly when its timestamp is 0.
        self._tags = np.full((self.num_sets, associativity), -1, dtype=np.int64)
        self._lru = np.zeros((self.num_sets, associativity), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_size
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int) -> bool:
        """Access byte address ``addr``; return True on hit."""
        set_idx, tag = self._locate(addr)
        self._clock += 1
        self.stats.accesses += 1
        ways = self._tags[set_idx]
        hit_ways = np.nonzero(ways == tag)[0]
        if hit_ways.size:
            self._lru[set_idx, hit_ways[0]] = self._clock
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        empty = np.nonzero(ways == -1)[0]
        if empty.size:
            way = int(empty[0])
        else:
            way = int(np.argmin(self._lru[set_idx]))
            self.stats.evictions += 1
        self._tags[set_idx, way] = tag
        self._lru[set_idx, way] = self._clock
        return False

    def access_batch(self, addrs) -> np.ndarray:
        """Access each byte address of ``addrs`` in order; return the hit mask.

        The hits, the statistics and the final tags, timestamps and clock
        are those of ``[self.access(a) for a in addrs]``.  Sets never
        interact, so the batch is split by set and replayed in lockstep
        rounds: round k applies every set's k-th access at once.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        n = addrs.size
        lines = addrs // self.line_size
        sets = lines % self.num_sets
        # an access's round is the number of earlier accesses to its set
        per_set = np.bincount(sets, minlength=self.num_sets)
        starts = np.cumsum(per_set) - per_set
        rank = np.empty(n, dtype=np.int64)
        rank[_stable_order(sets, self.num_sets)] = np.arange(n) - np.repeat(starts, per_set)
        order = _stable_order(rank, n)
        ends = np.cumsum(np.bincount(rank)).tolist()
        set_of = sets[order]
        tag_of = lines[order] // self.num_sets
        way0_of = set_of * self.associativity
        # access i gets the stamp the scalar path would give it
        stamp_of = order + (self._clock + 1)
        flat_tags, flat_lru = self._tags.reshape(-1), self._lru.reshape(-1)
        rows = np.arange(self.num_sets)
        # Keying the hit way -1 lets one argmin choose as ``access`` does:
        # the hit way, else the first invalid way (stamp 0), else the LRU
        # way.  The chosen key is -1 for a hit, 0 for a fill into an
        # invalid way and the victim's stamp for an eviction.
        chosen = np.empty(n, dtype=np.int64)
        lo = 0
        for r in range(len(ends)):  # repro: noqa HOT001 — rounds are sequential: round k reads the set state round k-1 wrote, and each round is vectorized across sets
            hi = ends[r]
            s = set_of[lo:hi]
            key = np.where(self._tags[s] == tag_of[lo:hi, None], -1, self._lru[s])
            way = key.argmin(axis=1)
            chosen[lo:hi] = key[rows[: hi - lo], way]
            slot = way0_of[lo:hi] + way
            flat_tags[slot] = tag_of[lo:hi]
            flat_lru[slot] = stamp_of[lo:hi]
            lo = hi
        hits = np.empty(n, dtype=bool)
        hits[order] = chosen < 0
        hit_count = int(np.count_nonzero(hits))
        self._clock += n
        self.stats.accesses += n
        self.stats.hits += hit_count
        self.stats.misses += n - hit_count
        self.stats.evictions += int(np.count_nonzero(chosen > 0))
        return hits

    def _retouch(self, clock0: int, refilled: np.ndarray) -> None:
        """Apply a hierarchy's fills on hit to the batch stamped from ``clock0``.

        ``refilled[i]`` marks a miss of that batch's access i which a
        slower level then hit.  ``CacheHierarchy.access`` follows such a
        miss with ``insert``, which re-touches the line the miss just
        allocated one tick later, so every later stamp moves up a tick.
        The LRU order, and with it every replacement decision, stays the
        same.
        """
        shift = np.cumsum(refilled, dtype=np.int64)
        if shift.size == 0 or shift[-1] == 0:
            return
        fresh = self._lru > clock0
        stamps = self._lru[fresh]
        self._lru[fresh] = stamps + shift[stamps - clock0 - 1]
        self._clock += int(shift[-1])

    def contains(self, addr: int) -> bool:
        """Probe without updating LRU or statistics."""
        set_idx, tag = self._locate(addr)
        return bool(np.any(self._tags[set_idx] == tag))

    def insert(self, addr: int) -> None:
        """Fill a line without touching hit/miss statistics.

        Used by the hierarchy to install lines into faster levels when a
        slower level hits, so counters reflect demand accesses only.
        """
        set_idx, tag = self._locate(addr)
        self._clock += 1
        ways = self._tags[set_idx]
        hit_ways = np.nonzero(ways == tag)[0]
        if hit_ways.size:
            self._lru[set_idx, hit_ways[0]] = self._clock
            return
        empty = np.nonzero(ways == -1)[0]
        way = int(empty[0]) if empty.size else int(np.argmin(self._lru[set_idx]))
        self._tags[set_idx, way] = tag
        self._lru[set_idx, way] = self._clock

    def flush(self) -> None:
        """Invalidate every line."""
        self._tags.fill(-1)
        self._lru.fill(0)
        self._clock = 0


class CacheHierarchy:
    """A non-inclusive multi-level cache hierarchy (L1 -> L2 -> LLC).

    ``access`` walks the levels in order and returns the index of the
    level that hit, or ``None`` for a memory access (LLC miss).  Every
    level that misses allocates the line, and a hit at a slower level
    also fills it into every faster level.  Nothing back-invalidates, so
    a faster level can keep a line that a slower level has evicted.  The
    default geometry mirrors the paper's Fig. 4-(b) methodology: 32 KB
    L1D, 2 MB L2 per core, and a shared LLC.
    """

    def __init__(self, levels: list[Cache] | None = None) -> None:
        if levels is None:
            levels = [
                Cache(32 * 1024, 8, name="l1d"),
                Cache(2 * 1024 * 1024, 16, name="l2"),
                Cache(60 * 1024 * 1024, 12, name="llc"),
            ]
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        self.levels = levels

    def access(self, addr: int) -> int | None:
        """Access ``addr``; return hit level index or None for memory."""
        for idx, level in enumerate(self.levels):
            if level.access(addr):
                # Fill the line into every faster level.
                for upper in self.levels[:idx]:
                    upper.insert(addr)
                return idx
        # A miss at every level already installed the line at each level
        # (Cache.access allocates on miss), so nothing more to fill.
        return None

    def access_batch(self, addrs) -> np.ndarray:
        """Access each address of ``addrs`` in order; return the hit levels.

        The result is int8, ``-1`` for memory.  It, the statistics and
        every level's final state are those of a loop of ``access``.  Each
        level replays the previous level's miss stream.  That is exact
        because no level back-invalidates another, and a fill on hit only
        re-touches a line the faster level allocated on that access's miss
        (see ``Cache._retouch``).
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        hit_level = np.full(addrs.size, -1, dtype=np.int8)
        clocks = [level._clock for level in self.levels]
        reached = np.arange(addrs.size)
        for idx, level in enumerate(self.levels):
            hit = level.access_batch(addrs[reached])
            hit_level[reached[hit]] = idx
            reached = reached[~hit]
        for idx, level in enumerate(self.levels[:-1]):
            stream = (hit_level < 0) | (hit_level >= idx)
            level._retouch(clocks[idx], hit_level[stream] > idx)
        return hit_level

    def is_llc_miss(self, addr: int) -> bool:
        """Access ``addr`` and report whether it reached memory."""
        return self.access(addr) is None

    def flush(self) -> None:
        for level in self.levels:
            level.flush()

    @property
    def llc(self) -> Cache:
        return self.levels[-1]
