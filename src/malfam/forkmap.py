"""One map for large, independent work, run on forked worker processes.

`fork_map(fn, items)` yields `fn(item)` for every item, in item order.  Item
i goes to worker i % n, a child forked from the caller: `fn` and the items
reach it copy-on-write, with no pickling, and it sends `(ok, result or
exception)` for each of its items, in order, pickled onto a pipe of its own,
then exits.  The parent reads on the calling thread, from the pipe of the
worker that owes the next item only, and yields each result as it arrives.
It starts no thread and imports no `multiprocessing` module, both of which
raise its peak memory, and it unpickles no result before it is due: a
worker that is ahead waits on its full pipe.  An exception is raised at its
item's position, and a worker stops at its first one.  A worker that ends
before it has sent all of its items raises `WorkerError` at the first item
it owed, naming its exit code or signal.  However the caller leaves the map
(every result taken, an exception, the iterator closed), every worker still
running is killed and every worker reaped before control returns.

The map runs inline, the plain loop on the calling thread, when one worker
would do (`cpu_count()` or the item count is 1), off Linux, when the
process has a thread besides the calling one, and from Python 3.12, which
warns on a fork from a process with more than one OS thread (numpy's
OpenBLAS pool is one, whatever the threading module counts).
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from typing import TypeVar

from .errors import WorkerError

T = TypeVar("T")
R = TypeVar("R")


def cpu_count() -> int:
    """The CPUs this process may run on; the one place tests set the count."""
    return len(os.sched_getaffinity(0))


def workers(n_items: int) -> int:
    """How many processes `fork_map` runs `n_items` items on; 1 is inline."""
    if sys.platform != "linux" or sys.version_info >= (3, 12) or threading.active_count() > 1:
        return 1
    return max(1, min(cpu_count(), n_items))


def fork_map(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """`fn(item)` for each item, in order; see the module docstring."""
    n = workers(len(items))
    if n == 1:
        for item in items:
            yield fn(item)
        return
    pipes = []  # worker -> the read end of its pipe
    pids: dict[int, int] = {}  # worker -> its pid, until reaped
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()  # else every worker holds the same buffered text
    try:
        for first in range(n):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        _serve(fn, items, first, n, os.fdopen(write_fd, "wb"))
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(write_fd)  # so the pipe ends when its worker does
            pids[first] = pid
        for index in range(len(items)):
            try:
                ok, value = pickle.load(pipes[index % n])
            except (EOFError, pickle.UnpicklingError):  # no message, or a cut one
                raise _ended(pids.pop(index % n), index) from None
            if not ok:
                raise value
            yield value
    finally:
        for pid in pids.values():
            _reap(pid)
        for pipe in pipes:
            pipe.close()


def _serve(fn, items, first: int, step: int, out) -> None:
    """A worker's loop: send each of its items' results, stopping at an error."""
    for index in range(first, len(items), step):
        try:
            ok, message = True, pickle.dumps((True, fn(items[index])), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # the result, or its pickling, failed
            ok, message = False, pickle.dumps((False, _portable(exc)), pickle.HIGHEST_PROTOCOL)
        out.write(message)
        out.flush()
        if not ok:
            return


def _portable(exc: BaseException) -> BaseException:
    """`exc`, or a RuntimeError naming it when it would not unpickle as itself."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _reap(pid: int) -> int:
    """Kill a worker if it still runs, wait for it, and return its exit code.

    A worker that has exited keeps its status: the signal reaches a zombie
    and changes nothing."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _ended(pid: int, index: int) -> WorkerError:
    """Reap a worker whose pipe ended early; the error names how it ended."""
    code = _reap(pid)
    how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with code {code}"
    return WorkerError(f"worker process {pid} {how} before it sent item {index}")
