"""User-space interface emulation: ``/sys/kernel/mm/neomem`` (Sec. V-B).

The paper exposes NeoMem's runtime knobs through sysfs so the migration
policy can live in user space.  This module provides the same surface:
string-keyed read/write access to daemon parameters plus read-only
statistics, with the kernel-style convention that everything is text.

>>> sysfs = NeoMemSysfs(daemon)
>>> sysfs.write("migration_interval_ms", "20")
>>> sysfs.read("hot_threshold")
'64'
"""

from __future__ import annotations

from typing import Callable

from repro.core.daemon import NeoMemDaemon


class SysfsError(KeyError):
    """Raised for unknown attributes or writes to read-only files."""


class NeoMemSysfs:
    """Dictionary-of-files view over a :class:`NeoMemDaemon`."""

    def __init__(self, daemon: NeoMemDaemon) -> None:
        self._daemon = daemon
        cfg = daemon.config
        tp = daemon.config.threshold_policy
        self._getters: dict[str, Callable[[], object]] = {
            "hot_threshold": lambda: int(daemon.current_threshold),
            "migration_interval_ms": lambda: daemon.migration_interval_s * 1e3,
            "clear_interval_s": lambda: cfg.clear_interval_s,
            "thr_update_interval_s": lambda: cfg.thr_update_interval_s,
            "demotion_watermark": lambda: daemon.demotion_watermark,
            "p_min": lambda: tp.p_min,
            "p_max": lambda: tp.p_max,
            "alpha": lambda: tp.alpha,
            "beta": lambda: tp.beta,
            "nr_hot_pending": lambda: daemon.device.detector.pending,
            "nr_snooped": lambda: daemon.device.snooped_requests,
            "nr_dropped_reports": lambda: daemon.device.detector.dropped_reports,
        }
        self._setters: dict[str, Callable[[str], None]] = {
            "hot_threshold": self._set_threshold,
            "migration_interval_ms": lambda v: setattr(
                daemon, "migration_interval_s", float(v) * 1e-3
            ),
            "clear_interval_s": lambda v: setattr(cfg, "clear_interval_s", float(v)),
            "thr_update_interval_s": lambda v: setattr(
                cfg, "thr_update_interval_s", float(v)
            ),
            "demotion_watermark": lambda v: setattr(daemon, "demotion_watermark", float(v)),
            "alpha": lambda v: setattr(tp, "alpha", float(v)),
            "beta": lambda v: setattr(tp, "beta", float(v)),
        }

    # ------------------------------------------------------------------
    def _set_threshold(self, value: str) -> None:
        threshold = int(float(value))
        if threshold < 0:
            raise ValueError("hot_threshold must be non-negative")
        self._daemon.current_threshold = float(threshold)
        self._daemon.driver.set_threshold(threshold)

    # ------------------------------------------------------------------
    def list(self) -> list[str]:
        """All visible file names, sorted (like ``ls``)."""
        return sorted(self._getters)

    def read(self, name: str) -> str:
        """Read one file; values are rendered as text, like sysfs."""
        try:
            getter = self._getters[name]
        except KeyError as exc:
            raise SysfsError(f"no such attribute: {name}") from exc
        value = getter()
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    def write(self, name: str, value: str) -> None:
        """Write one file; read-only files raise :class:`SysfsError`."""
        if name not in self._getters:
            raise SysfsError(f"no such attribute: {name}")
        try:
            setter = self._setters[name]
        except KeyError as exc:
            raise SysfsError(f"attribute is read-only: {name}") from exc
        setter(value)
