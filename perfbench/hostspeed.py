"""A fixed kernel that measures the host's current speed.

The shared host's speed drifts by up to 1.8x within seconds, and a
process's CPU time drifts with it, so neither another clock nor a longer
run removes the drift. The benchmark divides each timed item by this
kernel's time measured next to it, in the same process, and multiplies by
REF_S: the drift cancels, while a change to the program moves the item
alone. The kernel does not touch cellray.
"""

import time

import numpy as np

# Seconds the kernel took on the baseline host; ratios times REF_S read as
# seconds at that host's speed.
REF_S = 0.015


def kernel() -> float:
    """Seconds for a fixed mix of interpreter loop and numpy FFT/convolution."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    a = np.sin(np.arange(100_000) * 0.001)
    for _ in range(5):
        np.fft.rfft(a)
        a = np.convolve(a[:3000], a[:300])
    return time.perf_counter() - start
