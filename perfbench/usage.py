"""CPU time and peak memory of one job run.

Both are read around the engine call only: from the moment the
``Environment`` starts to be built until ``execute()`` returns.  The
harness's own work -- making inputs, parsing outputs, the reference
checks -- falls outside the window.

Peak memory is Linux's resident high-water mark (``VmHWM``).  The
parent's mark is reset when a job starts (``/proc/self/clear_refs``), so
it is the highest resident size the parent reached during the job.  That
figure still holds what was resident when the job began: the
interpreter, the engine's code and the workload's generated inputs and
expected rows, which are the same for every job run of a seed.  A forked
worker resets its own mark on entry and reports how far it grew beyond
its resident size at that moment, so the pages it inherited from the
parent are counted once, in the parent's figure.  The job's peak is the
parent's peak plus the largest worker's growth.
"""

from __future__ import annotations

import glob
import os
import resource
from typing import Any, Callable, Optional

_WORKER_FILE = "rss-worker-%d.txt"
_WORKER_FILES = "rss-worker-*.txt"


def cpu_seconds() -> float:
    """User plus system time of this process and every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reset_peak() -> None:
    """Reset this process's resident high-water mark to its current
    resident size."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def status_kib(field: str) -> int:
    """A ``kB`` field of ``/proc/self/status``, such as ``VmHWM``."""
    with open("/proc/self/status", "r") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError("no %s in /proc/self/status" % field)


def job_peak_mb(report_dir: str) -> float:
    """Peak resident memory of the job that is ending: this process's
    high-water mark since :func:`reset_peak` plus the largest growth any
    worker reported into ``report_dir`` (the files are consumed)."""
    growth = 0
    for path in glob.glob(os.path.join(report_dir, _WORKER_FILES)):
        with open(path, "r") as handle:
            growth = max(growth, int(handle.read()))
        os.remove(path)
    return (status_kib("VmHWM") + growth) / 1024.0


class WorkerPeaks:
    """Wraps the multiprocess backend's worker entry point so that each
    worker resets its high-water mark on entry and, on its way out,
    writes how far it grew into ``report_dir``.

    The parent joins every worker before ``execute()`` returns, so the
    files are complete when :func:`job_peak_mb` reads them.
    """

    def __init__(self, report_dir: str) -> None:
        self.report_dir = report_dir
        self._original: Optional[Callable[..., Any]] = None

    def install(self) -> None:
        from repro.runtime import multiprocess

        entry = self._original = multiprocess._worker_main
        report_dir = self.report_dir

        def measured_entry(*args: Any, **kwargs: Any) -> Any:
            reset_peak()
            at_entry = status_kib("VmRSS")
            try:
                return entry(*args, **kwargs)
            finally:
                path = os.path.join(report_dir, _WORKER_FILE % os.getpid())
                with open(path, "w") as handle:
                    handle.write(str(status_kib("VmHWM") - at_entry))

        multiprocess._worker_main = measured_entry  # type: ignore

    def uninstall(self) -> None:
        from repro.runtime import multiprocess

        if self._original is not None:
            multiprocess._worker_main = self._original  # type: ignore
            self._original = None
