"""Fixed computations timed between the program's instances.

The benchmark's host is shared: other tenants slow the program by 1.2x to
1.6x for minutes at a time, and CPU time slows with wall time.  Each pass's
times are therefore scaled by how fast a reference ran in the same pass:

    scaled time = raw time x nominal / median(reference times in the pass)

which expresses them in the units of a machine on which the reference takes
its nominal time.  The references are the benchmark's own code and never
call varncode, so a change to the program moves the scaled times exactly as
it moves the raw ones; only the machine's momentary speed divides out.

The slow stretches do not slow everything alike, so there are two references:

- `reference()`, in process, for the library workloads: an interpreter loop
  of list, array, dict and bisect operations (like `build_code`), small numpy
  calls (like audit-small's per-instance set-up) and JSON serialisation.
- a child process that imports numpy and runs `reference()` CHILD_CALLS
  times, for what starts processes (codebook-cli's children, and set-up,
  which is mostly a fresh interpreter's imports).  Some stretches slow
  process start-up by 1.4x and leave the in-process reference unchanged.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from array import array
from bisect import bisect_left
from time import perf_counter

import numpy as np

# Median times on the 2-core VM (Python 3.11, numpy 2.4) the benchmark was
# tuned on, in a quiet stretch.
REF_S = 0.020
CHILD_REF_S = 0.30
CHILD_CALLS = 10

_KEYS = sorted(float((i * 2654435761) % 1_000_003) for i in range(20_000))
_ROWS = [{"index": i, "letters": [1, 2, 1], "cost": i * 0.5} for i in range(400)]
_ARR = np.linspace(1.0, 0.0, 2_000)


def reference() -> int:
    out = array("q")
    seen: dict[int, int] = {}
    m = len(_KEYS)
    for i in range(24_000):
        k = bisect_left(_KEYS, _KEYS[(i * 7919) % m])
        out.append(k)
        seen[k & 1023] = seen.get(k & 1023, 0) + 1
    for _ in range(40):
        np.cumsum(np.sort(_ARR))
    return len(out) + len(seen) + len(json.dumps(_ROWS))


def reference_child() -> None:
    subprocess.run([sys.executable, __file__], check=True, timeout=120,
                   stdout=subprocess.DEVNULL,
                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))


class Clock:
    """Reference samples of the current pass, and the scale they give."""

    def __init__(self, child: bool = False):
        self.run = reference_child if child else reference
        self.nominal = CHILD_REF_S if child else REF_S
        self.samples: list[float] = []

    def tick(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            self.run()
            self.samples.append(perf_counter() - t0)

    def take_scale(self) -> float:
        """nominal / the pass's median reference time; starts the next pass."""
        scale = self.nominal / statistics.median(self.samples)
        self.samples = []
        return scale


if __name__ == "__main__":
    for _ in range(CHILD_CALLS):
        reference()
