"""One function over many items, striped over forked processes.

The CV fold trees and the study's replications are independent CPU work
in Python and numpy, which threads would not run in parallel.  A forked
child starts with its parent's memory, so the data and the row table
reach it without pickling; only each item's result comes back, pickled
through a pipe.  ``multiprocessing`` is not used: its import costs every
CLI call start-up time, and these one-shot maps keep no pool.
"""

from __future__ import annotations

import os
import pickle
import sys

from .errors import CopulaTreeError

__all__ = ["cpus", "Forked", "fork_map"]


def cpus() -> int:
    """How many processes a map may use: the CPUs of this process's
    affinity mask (``taskset`` sets it), all CPUs where the platform has
    ``fork`` but no affinity mask (macOS), or 1 without ``fork``."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stripe(fn, items, indices) -> list[tuple]:
    """(index, fn(item), None) for the items at ``indices`` in order, ending
    at the first item that raises, which gives (index, None, exception)."""
    out = []
    for i in indices:
        try:
            out.append((i, fn(items[i]), None))
        except Exception as exc:
            out.append((i, None, exc))
            break
    return out


def _reply(pid: int, fd: int) -> tuple[bytes, int]:
    """All that child ``pid`` wrote to ``fd`` and its wait status; the
    child is reaped whatever happens."""
    try:
        with os.fdopen(fd, "rb") as fh:
            data = fh.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return data, status


class Forked:
    """``fn`` over ``items``, striped over this process and forked children.

    Child j (1 <= j < jobs) starts on items[j::jobs] when this is made; a
    fork that fails leaves its stripe to this process.  ``jobs`` is capped
    at the item count, and at 1 nothing is forked.  The caller runs item 0
    itself (``first``) while the children work, then ``gather`` runs the
    rest of this process's stripe and returns the results of items[1:] in
    item order.  When items raise, the one with the lowest index is
    raised, as the serial loop would raise it; a child that ends without
    sending its results raises CopulaTreeError.  Leaving the ``with``
    block reaps every child not gathered, however the block ends.
    """

    def __init__(self, fn, items, jobs: int):
        self.fn, self.items = fn, list(items)
        n = len(self.items)
        jobs = max(1, min(jobs, n))
        self.here = [range(jobs, n, jobs)]  # this process's stripe after item 0
        self.kids: list[tuple[int, int]] = []  # (pid, read end of its pipe)
        for stream in (sys.stdout, sys.stderr):  # a child must not write this process's buffered output
            stream.flush()
        try:
            for j in range(1, jobs):
                self._fork(range(j, n, jobs))
        except BaseException:
            self.close()
            raise

    def _fork(self, stripe: range) -> None:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory
            os.close(r)
            os.close(w)
            self.here.append(stripe)
            return
        if pid == 0:
            code = 1  # unless the whole reply is written
            try:
                os.close(r)
                with os.fdopen(w, "wb") as fh:
                    pickle.dump(_stripe(self.fn, self.items, stripe), fh)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self.kids.append((pid, r))

    def first(self):
        return self.fn(self.items[0])

    def gather(self) -> list:
        try:
            done = [t for stripe in self.here for t in _stripe(self.fn, self.items, stripe)]
        finally:
            replies = self.close()
        for pid, data, status in replies:
            if status != 0:  # 0 only after the whole reply was written
                raise CopulaTreeError(
                    f"worker process {pid} ended without its results (exit code {os.waitstatus_to_exitcode(status)})"
                )
            done += pickle.loads(data)
        done.sort(key=lambda t: t[0])
        failed = next((exc for _, _, exc in done if exc is not None), None)
        if failed is not None:
            raise failed
        return [value for _, value, _ in done]

    def close(self) -> list[tuple[int, bytes, int]]:
        """Read and reap every child not reaped yet: (pid, bytes, status) of
        each.  A child leaves the list once reaped, so when a read raises,
        ``__exit__`` reaps the rest."""
        replies = []
        while self.kids:
            pid, r = self.kids.pop(0)
            replies.append((pid, *_reply(pid, r)))
        return replies

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def fork_map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]``, striped over ``jobs`` processes as
    ``Forked`` stripes it; item 0 runs in this process."""
    items = list(items)
    if not items:
        return []
    with Forked(fn, items, jobs) as work:
        return [work.first()] + work.gather()
