"""A forked helper: a child process that does part of a command's work on a
second CPU and sends its results down a pipe as float64 arrays.

The parse (datasets.read_chunks) and the fit (core.train_ref) fork helpers
under one rule, may_fork(). A helper runs with warnings turned into errors,
calls no BLAS, and ends at its first error or warning, sending nothing more.
Its caller reads each array at a shape it knows, and where an array does not
come whole it does that work itself, so a failed or killed helper costs
speed alone, and every error and warning is the caller's own.
"""

from __future__ import annotations

import os
import sys
import warnings

import numpy as np

# whether a helper may be forked at all: fork exists, and Python is older than
# 3.12, from which fork warns in a process with threads (numpy's BLAS pool is one)
MAY_FORK = sys.version_info < (3, 12) and hasattr(os, "fork")


def may_fork() -> bool:
    """The fork rule: MAY_FORK holds, and this process may run on two CPUs
    or more."""
    return (MAY_FORK and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def send(out, a: np.ndarray) -> None:
    """Write the C-ordered float64 array a down a helper's pipe: its byte
    count, then its bytes, flushed at once."""
    out.write(a.nbytes.to_bytes(8, "little"))
    out.write(a)
    out.flush()


class Helper:
    """One forked child and the read end of its pipe.

    Until start() forks one, and where no pipe or process can be made, there
    is no helper, and read() returns None. close() kills and reaps it.
    """

    pid = pipe = None

    def start(self, work, *args) -> None:
        """Fork a child that runs work(out, *args), out being its pipe's
        write end, with warnings turned into errors; the caller checks
        may_fork() first."""
        parent = os.getpid()
        try:
            r, w = os.pipe()
        except OSError:
            return
        try:
            self.pid = os.fork()
            if self.pid == 0:
                # the read end closed, a helper whose parent died gets EPIPE
                os.close(r)
                warnings.simplefilter("error")
                with open(w, "wb") as out:
                    work(out, *args)
        except OSError:
            pass  # no process: the caller does the work itself
        finally:
            if os.getpid() != parent:
                os._exit(0)  # the helper's one way out, whatever it raised
            os.close(w)
        if self.pid:
            self.pipe = open(r, "rb")
        else:
            os.close(r)

    def read(self, shape) -> np.ndarray | None:
        """The next array the helper sent, as a float64 array of the given
        shape, or None: it sent no whole array of that size, and is
        stopped."""
        if self.pipe is None:
            return None
        a = np.empty(shape)
        if (self.pipe.read(8) == a.nbytes.to_bytes(8, "little")
                and self.pipe.readinto(a) == a.nbytes):
            return a
        self.close()  # done, gone, failed, or out of step with the caller
        return None

    def close(self) -> None:
        """Kill and reap the helper, in whatever state it is."""
        if self.pid:
            import signal  # paid for only by a command that forked

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pipe.close()
            self.pid = self.pipe = None
