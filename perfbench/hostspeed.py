"""Host-speed reference: a fixed kernel timed between the ops.

The development host is a slice of a shared machine whose speed drifts by
itself: in quiet and busy minutes the same op, and this kernel alike, take
up to 1.9 times as long, for minutes at a time, with CPU time tracking wall
time (contention for the physical core and its caches, not descheduling).
No run length averages that out, so every gated timing is read against this
kernel, timed before every op and once after the last, and expressed in
seconds of a host on which the kernel takes :data:`NOMINAL_SECONDS` (its
median on the quiet development host).  A change to the program moves the
op and not the kernel, so it shows in full; the host's drift moves both and
cancels.

The kernel mixes what the program spends its time on: NumPy vector maths,
an FFT and a sort on freshly allocated 2 MB arrays, interpreted Python with
a dictionary, and many NumPy calls on 256-sample rows.  Probes on the
development host chose the mix by how each op's time scaled with a
candidate's as the host drifted (the power fitted to log op time against
log kernel time; 1 is ideal): the large arrays and Python gave 0.9 for
``paper-bist`` runs, where JSON decoding or pure Python alone gave 0.55 to
0.8 and over-corrected.  The host also has minutes in which
``drift-monitor`` sessions, which stream 256-sample Welch segments and
small per-block arrays, take twice as long while large-array work slows by
a third; the small-row calls slow with the sessions there.  The kernel uses
only NumPy and the standard library, never the program, so no change to
the program can change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median time of :func:`kernel_seconds` on the quiet development host
#: (2-vCPU Intel Xeon slice, Python 3.11, NumPy 2.4).
NOMINAL_SECONDS = 0.031

#: Kernel readings taken on each side of an op that its host speed is read from.
NEIGHBOURS = 2

_VECTOR = np.random.default_rng(2014).standard_normal(1 << 18)
_ROWS = np.random.default_rng(2014).standard_normal((64, 256))


def _vector_maths() -> float:
    product = np.sin(_VECTOR) * np.cos(_VECTOR)
    spectrum = np.fft.fft(product + 1j * _VECTOR)
    return float((spectrum.real**2 + spectrum.imag**2).sum()) + float(np.sort(product)[0])


def _interpreted() -> int:
    accumulator = 0
    table = {}
    for index in range(40_000):
        accumulator += (index * 7) % 13
        table[index & 1023] = accumulator
    return accumulator


def _small_rows() -> float:
    total = 0.0
    for _ in range(8):
        for row in _ROWS:
            total += float(np.abs(np.fft.rfft(row * 0.5)).sum()) + float(np.mean(row))
    return total


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    _vector_maths()
    _interpreted()
    _small_rows()
    return time.perf_counter() - start


def settled_kernel_seconds(passes: int = 3) -> float:
    """Median of a few passes, after one discarded pass that warms the caches."""
    kernel_seconds()
    return statistics.median(kernel_seconds() for _ in range(passes))


def local_reading(readings, index: int) -> float:
    """Kernel time around op ``index``: the median of the :data:`NEIGHBOURS`
    readings on either side of it.

    ``readings[i]`` was taken just before op ``i`` and the last one just
    after the last op, so there is one reading more than there are ops.  A
    single 31 ms pass is noisy; the median also keeps a reading caught by a
    momentary stall from moving the op.
    """
    if not 0 <= index < len(readings) - 1:
        raise IndexError("op index outside the readings")
    low = max(0, index + 1 - NEIGHBOURS)
    return float(statistics.median(readings[low : index + 1 + NEIGHBOURS]))


def normalised(wall: float, reading: float) -> float:
    """``wall`` in seconds of the nominal host, given the kernel time around it."""
    if reading <= 0.0:
        raise ValueError("reference kernel times are positive")
    return wall * NOMINAL_SECONDS / reading
