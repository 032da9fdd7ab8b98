"""CPU-speed calibration for a shared, noisy machine.

On a shared host, other tenants can slow the CPU by 30% and more for
minutes at a time, which moves a plain wall-clock median by more than any
bound the benchmark could set. A Sampler runs a fixed chunk of Python work (float
arithmetic, small calls, dict stores, like the program's own mix) every
PERIOD_S of wall time from a SIGALRM handler, so the calibration is
interleaved with the program at a fine grain and sees the same
interference. The handler's time is subtracted from the program's, and
the chunk rate over a window of work rescales the program's figures in
that window to REFERENCE_RATE: they then read as wall-clock figures on a
CPU that runs REFERENCE_RATE chunks a second. A window holds at least
MIN_CHUNKS chunks, so its rate is not one or two samples; a stretch in
which no chunk ran cannot be rescaled and is an error, never a raw figure.

    python3 perfbench/calibrate.py     # chunk rate of the CPU, 15 windows

Imports nothing heavy, so worker.py can start a Sampler before it imports
numpy and qubeam and calibrate its own set-up.
"""
import math
import signal
import time

# A fixed scale, not a figure to re-measure: changing it rescales every
# figure and breaks comparisons across commits. It was set near the median
# rate, 4120 chunks/s (range 2666-4591 over 15 one-second windows), that
# `python3 perfbench/calibrate.py` printed on the 2-vCPU x86-64 machine the
# benchmark was defined on, under Python 3.11.7.
REFERENCE_RATE = 4000.0
PERIOD_S = 0.01
# Fewest chunks behind one window's speed factor (0.2 s at PERIOD_S).
MIN_CHUNKS = 20


def _step(x, y):
    return (x * 1.000001 + y) / (1.0 + abs(y))


def chunk():
    """One unit of calibration work; returns a value so it is not skipped."""
    acc = 0.0
    slots = {}
    for i in range(1200):
        acc = _step(acc, math.sqrt(i + 1.0))
        slots[i & 63] = acc
    return acc


def speed_factor(cal_time, chunks):
    """How much faster the reference CPU is than the one that ran `chunks`
    calibration chunks in `cal_time` seconds."""
    if chunks < 1 or cal_time <= 0.0:
        raise ValueError("no calibration chunk ran, so the speed is unknown")
    return REFERENCE_RATE * cal_time / chunks


class Sampler:
    """Calibration chunks interleaved with the main thread by SIGALRM.

    time and chunks accumulate while the sampler runs; take a mark before
    a stretch of work and call since() after it to get the calibration
    time spent inside the stretch and the chunks run there.
    """

    def __init__(self):
        self.time = 0.0
        self.chunks = 0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        chunk()
        self.time += time.perf_counter() - t0
        self.chunks += 1
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        return self.time, self.chunks

    def since(self, mark):
        """(calibration seconds, chunks) since mark."""
        return self.time - mark[0], self.chunks - mark[1]


def main(windows=15, window_s=1.0):
    """Print the rate of back-to-back chunks in one-second windows."""
    rates = []
    for _ in range(windows):
        busy, n = 0.0, 0
        end = time.perf_counter() + window_s
        while time.perf_counter() < end:
            t0 = time.perf_counter()
            chunk()
            busy += time.perf_counter() - t0
            n += 1
        rates.append(n / busy)
    rates.sort()
    print(f"chunks/s over {windows} windows: median {rates[windows // 2]:.0f}, "
          f"range {rates[0]:.0f}-{rates[-1]:.0f}; REFERENCE_RATE {REFERENCE_RATE:.0f}")


if __name__ == "__main__":
    main()
