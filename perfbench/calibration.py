"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed available to one process drifts by up to
a factor of two, within seconds as well as over minutes, so raw times of
identical work spread by more than the bound a regression check can use.
The child therefore times a fixed calibration kernel alongside the
program and rescales the program's times to a reference speed:

    t_ref = t * REFERENCE_MATRIX_S / (mean kernel time per matrix)

During a pass the kernel runs on SAMPLE_MATRICES matrices once at the
start, and then from a signal handler whenever a timer interrupts the
program, every SAMPLE_INTERVAL_S seconds, so the speed is sampled evenly
over the whole pass, however short; the time spent in the handler is
taken off the program's time.  A set-up probe
runs in another process, so blocks of the kernel run just before and
just after it instead.

The kernel mimics liouvdyn's hot path (small non-Hermitian
eigendecompositions with left vectors, a Python-level sort and an
overlap product), so it slows down with the machine the way the program
does.  It is part of the benchmark and never changes with the program
under test.
"""

import signal
import statistics
import time

import numpy as np
import scipy.linalg

MATRICES_PER_BLOCK = 1000
SAMPLE_MATRICES = 100
SAMPLE_INTERVAL_S = 0.1
# Kernel time per matrix that defines the reference speed; close to the
# typical speed of the 2-core machine the baseline was measured on.
REFERENCE_MATRIX_S = 6e-5


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrices = [
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for _ in range(MATRICES_PER_BLOCK)
        ]

    def kernel(self, count: int) -> float:
        """Seconds taken by the kernel on the first ``count`` matrices."""
        start = time.perf_counter()
        for M in self.matrices[:count]:
            lam, vl, vr = scipy.linalg.eig(M, left=True, right=True)
            order = sorted(range(lam.size), key=lambda k: (lam[k].real, lam[k].imag))
            np.abs(vl[:, order].conj().T @ vr[:, order]).max()
        return time.perf_counter() - start

    def run(self, blocks: int) -> list:
        """Seconds taken by each of ``blocks`` whole blocks."""
        return [self.kernel(MATRICES_PER_BLOCK) for _ in range(blocks)]

    @staticmethod
    def speed(times: list, matrices: int = MATRICES_PER_BLOCK) -> float:
        """Factor that rescales a time measured alongside these kernel times."""
        return REFERENCE_MATRIX_S * matrices / statistics.mean(times)


class Sampler:
    """Samples the kernel on entry and from a SIGALRM timer while the ``with`` body runs.

    A sampler that is not ``enabled`` sets no timer and takes no samples.
    """

    def __init__(self, calibrator: Calibrator, enabled: bool = True):
        self.calibrator = calibrator
        self.enabled = enabled
        self.times = []
        self.spent = 0.0  # seconds spent sampling

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.times.append(self.calibrator.kernel(SAMPLE_MATRICES))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.enabled:
            self._tick(None, None)
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        return Calibrator.speed(self.times, SAMPLE_MATRICES)
