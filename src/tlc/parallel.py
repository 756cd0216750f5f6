"""The one process pool behind every ``--jobs`` scan."""

from __future__ import annotations

import os


def chunked_map(worker, total: int, jobs: int, piece) -> list:
    """[worker(piece(lo, hi)) ...] over [0, total) cut into one contiguous
    range per job.

    jobs is clamped to [1, os.cpu_count()]; one job runs in this process,
    more run in a single pool of that many processes.
    """
    jobs = max(1, min(int(jobs), os.cpu_count() or 1))
    size = max(1, -(-total // jobs))
    pieces = [piece(lo, min(lo + size, total)) for lo in range(0, total, size)]
    if jobs == 1:
        return [worker(p) for p in pieces]
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        return pool.map(worker, pieces)
