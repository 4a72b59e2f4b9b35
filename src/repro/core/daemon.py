"""NeoMem kernel daemon: the tiering control loop (Sections III & V).

The daemon is the engine-facing policy object for full NeoMem, and runs
on the same loop as every baseline (:class:`BaseTieringPolicy`): the
NeoProf device takes the profiler's place.  Each epoch the device snoops
the CXL request stream; on its configured intervals (Table V) the daemon

* every ``migration_interval`` (10 ms): drains the hot-page FIFO through
  the driver and hands those pages to the kernel migration path (the
  migration engine applies the quota and, in THP mode, coalesces them
  into 2 MB pages);
* every ``thr_update_interval`` (1 s): reads the histogram and state
  monitor and runs Algorithm 1 to retune the hotness threshold;
* every ``clear_interval`` (5 s): resets NeoProf's counters so stale
  history does not saturate the sketch;
* keeps the fast tier's free headroom above a watermark: the migration
  engine demotes the coldest LRU-2Q pages (cold detection stays in
  software, Sec. III-A).

CPU overhead charged to the workload is exactly the driver's MMIO time
plus a per-migrated-page syscall cost — there is no scan, fault or
sample processing, which is the point of the co-design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.driver import NeoProfDriver
from repro.core.neoprof.device import NeoProfConfig, NeoProfDevice
from repro.core.neoprof.histogram import tight_error_bound
from repro.core.policy import DynamicThresholdPolicy, FixedThresholdPolicy, ThresholdPolicyConfig
from repro.policies.base import BaseTieringPolicy


@dataclass
class NeoMemConfig:
    """Software parameters (Table V defaults)."""

    migration_interval_s: float = 0.010
    clear_interval_s: float = 5.0
    thr_update_interval_s: float = 1.0
    #: sketch confidence parameter for the tight error bound.
    delta: float = 0.25
    #: fast-node free-page fraction below which the daemon demotes.
    demotion_watermark: float = 0.01
    #: free fraction the demotion pass restores.
    demotion_target: float = 0.03
    #: host CPU cost of migrating one page via move_pages (ns).
    syscall_ns_per_page: float = 300.0
    #: Transparent Huge Pages (Table VI): when True, hot 4 KB reports
    #: are coalesced and whole 2 MB pages migrate together, "provided
    #: the profiled hot 4KB pages are part of huge pages".
    thp: bool = False
    threshold_policy: ThresholdPolicyConfig = field(default_factory=ThresholdPolicyConfig)


@dataclass
class _PeriodCounters:
    """Promotion accounting between threshold updates."""

    promoted: int = 0
    ping_pong: int = 0

    def reset(self) -> None:
        self.promoted = 0
        self.ping_pong = 0


class NeoMemDaemon(BaseTieringPolicy):
    """Full NeoMem: NeoProf device + driver + Algorithm 1 + daemon loop.

    The migration interval, watermark, demotion target and syscall cost
    are copied from :class:`NeoMemConfig` at construction; the sysfs
    knobs write the daemon's attributes.  ``num_pages`` is the page space
    the device profiles (see :class:`NeoProfDevice`).
    """

    name = "neomem"
    candidates_counter = "daemon.hot_page_reports"

    def __init__(
        self,
        num_pages: int,
        config: NeoMemConfig | None = None,
        device_config: NeoProfConfig | None = None,
        fixed_threshold: float | None = None,
    ) -> None:
        self.config = config or NeoMemConfig()
        super().__init__(
            migration_interval_s=self.config.migration_interval_s,
            demotion_watermark=self.config.demotion_watermark,
            demotion_target=self.config.demotion_target,
            syscall_ns_per_page=self.config.syscall_ns_per_page,
        )
        self.thp = self.config.thp
        self.device = NeoProfDevice(num_pages, device_config)
        self.driver = NeoProfDriver(self.device)
        if fixed_threshold is None:
            self.threshold_policy = DynamicThresholdPolicy(self.config.threshold_policy)
            self.name = "neomem-thp" if self.thp else "neomem"
            self.current_threshold = float(self.device.detector.threshold)
        else:
            self.threshold_policy = FixedThresholdPolicy(fixed_threshold)
            self.name = f"neomem-fixed-{int(fixed_threshold)}"
            # programmed once; the first epoch is billed for the MMIO write
            self.current_threshold = self.threshold_policy.threshold
            self.driver.set_threshold(int(self.current_threshold))
        self._next_thr_update_ns = 0.0
        self._next_clear_ns = 0.0
        self._period = _PeriodCounters()
        # telemetry for the Fig. 14 timelines
        self.threshold_timeline: list[tuple[float, float]] = []
        self.bandwidth_timeline: list[tuple[float, float, float]] = []
        self.histogram_timeline: list[tuple[float, np.ndarray]] = []

    # ------------------------------------------------------------------
    def on_epoch(self, view) -> float:
        cfg = self.config
        now_ns = view.sim_time_ns + view.duration_ns

        # 1. the device snoops the CXL channel (hardware, no CPU cost)
        with view.telemetry.span("profile"):
            self.device.snoop(*view.slow_miss_stream(), view.duration_ns)

        # 2. hot-page promotion at migration_interval, then 3. watermark
        # demotion keeps promotion headroom available
        promotion = self._promote_due(view)
        overhead_ns = self._syscall_ns(promotion) + self._watermark_demotion(view)

        # period accounting: this epoch's promotions
        self._period.promoted += promotion.pages
        self._period.ping_pong += promotion.ping_pong

        # 4. threshold update at thr_update_interval (Algorithm 1)
        if now_ns >= self._next_thr_update_ns:
            self._next_thr_update_ns = now_ns + cfg.thr_update_interval_s * 1e9
            self._run_threshold_update(now_ns)

        # 5. periodic NeoProf reset at clear_interval
        if now_ns >= self._next_clear_ns:
            self._next_clear_ns = now_ns + cfg.clear_interval_s * 1e9
            self.driver.reset()

        overhead_ns += self.driver.drain_cpu_overhead_ns()
        return overhead_ns

    def _select_promotions(self, view) -> np.ndarray:
        """Drain the hot-page FIFO through the driver."""
        return self.driver.read_hot_pages()

    # ------------------------------------------------------------------
    def _run_threshold_update(self, now_ns: float) -> None:
        histogram = self.driver.read_histogram()
        state = self.driver.read_state()
        error = tight_error_bound(
            histogram, depth=self.device.config.sketch_depth, delta=self.config.delta
        )
        promoted = max(self._period.promoted, 1)
        ping_pong_ratio = self._period.ping_pong / promoted
        decision = self.threshold_policy.update(
            histogram=histogram,
            bandwidth_util=state.bandwidth_utilization,
            ping_pong_ratio=ping_pong_ratio,
            error_bound=error,
            migrated_pages=self._period.promoted,
        )
        self.current_threshold = max(decision.threshold, 1.0)
        self.driver.set_threshold(int(self.current_threshold))
        self._period.reset()

        now_s = now_ns * 1e-9
        self.threshold_timeline.append((now_s, self.current_threshold))
        self.bandwidth_timeline.append((now_s, state.bandwidth_utilization, state.read_fraction))
        self.histogram_timeline.append((now_s, histogram.counts.copy()))
