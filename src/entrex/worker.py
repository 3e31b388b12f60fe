"""The process's one worker thread, which stands for its second CPU.

``_WORKER.run(top, bottom)`` runs ``top`` on the caller and ``bottom`` on
the worker, or both inline, with the same results, when it is busy or the
process has one CPU.  Its one user is the long inference forward
(``model.RelationModel.encode`` has the rule).  It starts on first use
and again after ``fork``.  An exception from either half is raised once
both have finished; the worker lives on.
"""

import os
import queue
import threading

import numpy as np


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _serve(tasks: queue.SimpleQueue) -> None:
    """The worker's loop: run each task under its caller's error state and reply with its result or exception."""
    while True:
        fn, err, reply = tasks.get()
        try:
            with np.errstate(**err):
                out = True, fn()
        except BaseException as e:  # anything, so that the caller always gets a reply
            out = False, e
        reply.put(out)
        del fn, reply, out  # hold no arrays while idle


class _RowWorker:
    """One daemon thread that runs the second half of a caller's work; see the module docstring."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pid: int | None = None
        self._tasks: queue.SimpleQueue | None = None

    def run(self, top, bottom):
        if _cpu_count() < 2 or not self._lock.acquire(blocking=False):
            return top(), bottom()
        try:
            if self._pid != os.getpid():
                self._tasks = queue.SimpleQueue()
                threading.Thread(target=_serve, args=(self._tasks,), name="entrex-worker", daemon=True).start()
                self._pid = os.getpid()
            reply = queue.SimpleQueue()
            self._tasks.put((bottom, np.geterr(), reply))
            try:
                first = top()
            finally:
                ok, second = reply.get()
            if not ok:
                raise second
            return first, second
        finally:
            self._lock.release()


_WORKER = _RowWorker()  # one per process: it stands for the second CPU, which every caller shares
