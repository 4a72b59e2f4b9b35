"""Tiering policies: NeoMem plus every baseline the paper compares.

``make_policy`` is the registry used by the experiment harness; names
match the labels in Figs. 11-13 and 17.  Every policy runs on
:class:`BaseTieringPolicy`'s loop; NeoMem's daemon lives in
:mod:`repro.core.daemon` and is built here on demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.policies.autonuma import AutoNumaPolicy
from repro.policies.base import BaseTieringPolicy
from repro.policies.first_touch import FirstTouchPolicy
from repro.policies.lookahead import LookAheadPolicy
from repro.policies.memtis import MemtisPolicy
from repro.policies.pebs_policy import PebsPolicy
from repro.policies.pte_scan_policy import PteScanPolicy
from repro.policies.tpp import TppPolicy

if TYPE_CHECKING:
    from repro.core.daemon import NeoMemConfig
    from repro.core.neoprof.device import NeoProfConfig

__all__ = [
    "BaseTieringPolicy",
    "FirstTouchPolicy",
    "PteScanPolicy",
    "AutoNumaPolicy",
    "TppPolicy",
    "PebsPolicy",
    "MemtisPolicy",
    "LookAheadPolicy",
    "make_policy",
    "POLICY_NAMES",
]

#: the six systems of Fig. 11, plus Memtis (Fig. 17).  Deliberately
#: excludes "lookahead": it is a workload-structure oracle for the
#: kvcache family, not one of the paper's figure baselines, so grids
#: that enumerate POLICY_NAMES stay the paper's.
POLICY_NAMES = (
    "neomem",
    "pebs",
    "pte-scan",
    "autonuma",
    "tpp",
    "first-touch",
    "memtis",
)


def make_policy(
    name: str,
    num_pages: int,
    *,
    neomem_config: NeoMemConfig | None = None,
    neoprof_config: NeoProfConfig | None = None,
    **kwargs,
):
    """Build a policy by its figure label.

    Args:
        name: One of :data:`POLICY_NAMES` (or ``neomem-fixed-<theta>``).
        num_pages: Workload resident-set size (profilers size arrays
            from it; NeoMem's sketch reads its slot table over it).
        neomem_config / neoprof_config: NeoMem-specific configuration.
        kwargs: Forwarded to the policy constructor.
    """
    # deferred: repro.core.daemon imports repro.policies.base, so a load-time import is circular
    from repro.core.daemon import NeoMemDaemon

    if name == "neomem":
        return NeoMemDaemon(num_pages, neomem_config, neoprof_config, **kwargs)
    if name.startswith("neomem-fixed-"):
        theta = float(name.rsplit("-", 1)[1])
        return NeoMemDaemon(
            num_pages, neomem_config, neoprof_config, fixed_threshold=theta, **kwargs
        )
    if name == "pebs":
        return PebsPolicy(num_pages, **kwargs)
    if name == "pte-scan":
        return PteScanPolicy(num_pages, **kwargs)
    if name == "autonuma":
        return AutoNumaPolicy(num_pages, **kwargs)
    if name == "tpp":
        return TppPolicy(num_pages, **kwargs)
    if name == "first-touch":
        return FirstTouchPolicy(**kwargs)
    if name == "memtis":
        return MemtisPolicy(num_pages, **kwargs)
    if name == "lookahead":
        return LookAheadPolicy(num_pages, **kwargs)
    raise ValueError(
        f"unknown policy {name!r}; expected one of {POLICY_NAMES + ('lookahead',)}"
    )
