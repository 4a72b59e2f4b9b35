"""Address-space constants.

The simulator works almost entirely at page granularity: workloads emit
streams of *page numbers* rather than byte addresses, because every
decision the NeoMem paper studies (hot-page detection, promotion,
demotion) is made per 4 KB page.  The byte sizes below serve the few
places that need them (cache indexing, bandwidth accounting).
"""

from __future__ import annotations

#: Base page size used throughout the paper (4 KB pages).
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: Transparent-huge-page size (2 MB), used by the Table VI experiment.
HUGE_PAGE_SHIFT = 21
HUGE_PAGE_SIZE = 1 << HUGE_PAGE_SHIFT

#: Pages per 2 MB huge page.
PAGES_PER_HUGE_PAGE = HUGE_PAGE_SIZE // PAGE_SIZE

#: Cache-line size of the modelled Sapphire Rapids host.
CACHE_LINE_SIZE = 64
