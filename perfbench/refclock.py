"""Reference clock: how fast this machine runs plain Python right now.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass can take 40 % longer a few seconds later, and a fixed pure-Python
loop slows down with it.  Raw seconds from two sets of runs made minutes
apart therefore differ by more than a library change worth catching.

A timed pass is interleaved with a fixed pure-Python chunk of work: a
wall-clock interval timer interrupts the pass every ``INTERVAL_S`` and runs
one chunk in the signal handler, between two bytecodes of whatever the
library is doing.  The median chunk time is the machine's speed during that
very pass.  The pass time, less the chunks, is then scaled to the speed at
which one chunk takes ``NOMINAL_CHUNK_S``, a round figure between the
0.44 ms a chunk took on a quiet and the 0.9 ms on a busy core of a 2-core
virtual machine with Python 3.11.7.  The chunk never touches the library,
so a change to the library moves the scaled time as much as the raw time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
NOMINAL_CHUNK_S = 0.0005
SETUP_BURST = 20   # chunks timed right before and right after a set-up probe


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


_BUFFER_MASK = (1 << 24) - 1
_buffer = None      # 16 MiB, made on first use
_cursor = 12345     # where the reads go on; carried from chunk to chunk


def chunk() -> int:
    """A fixed mix of what the library does most: small objects, tuples,
    hashing, dict reads and writes and integer arithmetic, then reads at
    pseudo-random places of a 16 MiB buffer, which miss the per-core caches
    as reads across the library's heap do."""
    global _buffer, _cursor
    if _buffer is None:
        _buffer = bytearray(range(256)) * ((_BUFFER_MASK + 1) // 256)
    table = {}
    for i in range(350):
        item = _Item((i, i ^ 5), i & 7)
        table[item.key] = table.get(item.key, 0) + item.weight
    total = sum(table.values())
    at = _cursor
    for _ in range(1000):
        at = (at * 1103515245 + 12345) & _BUFFER_MASK
        total += _buffer[at]
    _cursor = at
    return total


def _timed_chunk():
    w0, c0 = time.perf_counter(), time.process_time()
    chunk()
    return time.perf_counter() - w0, time.process_time() - c0


def burst(count: int):
    """Time ``count`` chunks in a row; return their (wall, cpu) times."""
    return [_timed_chunk() for _ in range(count)]


class Interleaved:
    """Context manager: run one chunk every ``INTERVAL_S`` of wall time
    while the body runs, and keep each chunk's (wall, cpu) time."""

    def __init__(self):
        self.chunks = []

    def _tick(self, signum, frame):
        self.chunks.append(_timed_chunk())

    def __enter__(self):
        self.chunks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, wall: float, cpu: float):
        """(wall, cpu) of the body, less its chunks, at nominal speed."""
        if not self.chunks:
            raise RuntimeError("the body ended before the first chunk ran")
        return scale(wall, cpu, self.chunks)


def scale(wall: float, cpu: float, chunks, inside: bool = True):
    """Scale (wall, cpu) seconds by the median chunk times of ``chunks``.

    With ``inside`` the chunks ran within the timed span and their median
    times are taken off first.  Medians keep a chunk that a collection or a
    preemption happened to hit from moving the result.
    """
    chunk_wall = statistics.median(w for w, _ in chunks)
    chunk_cpu = statistics.median(c for _, c in chunks)
    if inside:
        wall -= len(chunks) * chunk_wall
        cpu -= len(chunks) * chunk_cpu
    return (wall * NOMINAL_CHUNK_S / chunk_wall,
            cpu * NOMINAL_CHUNK_S / chunk_cpu)
