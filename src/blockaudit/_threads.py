"""The worker-count rule shared by the row filter, the Welch spectrum and the
CNN's chunk loops."""
from __future__ import annotations

import os


def worker_threads() -> int:
    """Up to 2 threads, never more than the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)
