"""The host's speed, read from a fixed reference loop.

The benchmark runs on shared virtual machines whose speed moves while it
runs: on a 2-vCPU x86_64 guest the same 35 ms chunk of pure Python took
anywhere from 18 to 62 ms, and its median over 2-second windows moved by
a quarter, in process CPU time exactly as in wall time (other tenants
slow the shared cores rather than take the vCPU away, so CPU time is no
escape). Ten seeds of `spot` ran at 55 to 84 purchases/s for that reason.

So the timings a run reports are scaled to a nominal host. The run times
`reference()`, which calls no bandx code, after every step of its timed
phase and, from a timer signal, every `EVERY_S` during its set-up and
warm-up. A rate measured in a 2-second window is multiplied by m /
NOMINAL_S, where m is the median reference time in that window; an op's
latency is multiplied by NOMINAL_S / m, with m the median reference
time within `LOCAL_S` of the op's end; set-up time by NOMINAL_S over
the median of the set-up samples. A change to the program moves the
scaled figures as much as the raw ones, since the reference does not
run it; a change of host speed that slows the reference and the
program alike cancels. (A change that leaves the caches colder for the
reference, which runs right after each step, would be partly hidden.)
Each run prints its raw figures and reference medians beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Reference time the reported figures are scaled to: about the median
# of `reference()` between steps on the 2-vCPU guest described above.
NOMINAL_S = 0.0012
EVERY_S = 0.02  # where a phase has no steps, the reference runs this often
LOCAL_S = 1.0  # an op's time is scaled by the samples this close to its end

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"perfbench reference"
_SIGNATURE = _KEY.sign(_MESSAGE)


def reference() -> None:
    """Fixed work of the two kinds the program does: interpreted Python
    that formats, splits, hashes and sorts small strings and tuples, and
    Ed25519 verification in the `cryptography` library."""
    table = {}
    for i in range(500):
        text = f"k{i}:{i * 7919 % 1000}"
        table[text] = (text.split(":"), len(text))
    sorted(table.items())
    for _ in range(2):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)


reference()  # first-call costs stay out of the samples


class HostSpeed:
    """Reference times sampled through one phase of a run, each with the
    point of the phase's clock at which it was taken."""

    def __init__(self) -> None:
        self.at: list[float] = []  # ascending
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent in the reference

    def sample(self, at: float) -> None:
        t0 = time.perf_counter()
        reference()
        took = time.perf_counter() - t0
        self.at.append(at)
        self.samples.append(took)
        self.spent += took

    @contextmanager
    def sampling(self):
        """Sample every `EVERY_S` seconds while the block runs, from a
        timer signal, so the samples fall between pieces of work the
        benchmark cannot step through (set-up, warm-up). `spent` grows
        by the time the samples took."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample(time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def median_s(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Median reference time of the samples taken in [start, end);
        of all samples if there are none there."""
        window = self.samples[bisect.bisect_left(self.at, start):bisect.bisect_left(self.at, end)]
        return statistics.median(window or self.samples)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Factor that turns a time measured in [start, end) into the
        time at nominal speed."""
        return NOMINAL_S / self.median_s(start, end)

    def scaled(self, durations: list[float], ends: list[float]) -> list[float]:
        """Each duration scaled by the host's speed within `LOCAL_S` of
        the point where it ended."""
        return [d * self.scale(t - LOCAL_S, t + LOCAL_S) for d, t in zip(durations, ends)]
