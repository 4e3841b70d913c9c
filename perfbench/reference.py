"""Fixed reference loads that do not call revealtrack.

The shared virtual machines this benchmark runs on change speed by up to two
times, for seconds to minutes at a time, and their memory bandwidth varies
by as much on its own. run.py therefore times a reference load just before
and just after every sample (a pass of a workload, or an interpreter's
set-up) and scales the sample by the reference's speed at that moment;
README.md gives the measurements behind this.
"""

from __future__ import annotations

import gc
import json
import time

# Reference times of a quiet period on the machine README.md describes: a
# scaled metric equals the measured one in a sample taken at these times.
QUIET_S = {"cpu": 0.0024, "stream": 0.007}
# The stream load sums a block of this many float64 values (64 MB).
STREAM_VALUES = 8_000_000


class Reference:
    """The CPU load: three kernels of about a millisecond each, arithmetic
    and small numpy products in a loop, dict inserts over a megabyte of
    tuples, and a JSON round trip. Their inputs are built once; the garbage
    collector is off while they run, so the program's heap does not change
    their cost. With ``stream``, also the stream load: a numpy sum over a
    64 MB block, bound by memory bandwidth."""

    KERNELS = ("loop", "objects", "json")

    def __init__(self, stream: bool = False) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = np.arange(64.0).reshape(8, 8)
        self.rows = [(int(x), str(x), float(x)) for x in rng.integers(0, 10**9, size=8_000)]
        self.doc = {"items": [{"id": i, "name": f"n{i}", "v": [i, 2 * i, 3 * i]} for i in range(600)]}
        self.block = np.ones(STREAM_VALUES) if stream else None

    def loop(self) -> None:
        table: dict[str, int] = {}
        for i in range(300):
            key = f"k{i % 37}"
            table[key] = table.get(key, 0) + i
            float((self.small @ self.small[i % 8]).sum())

    def objects(self) -> None:
        rows, index = self.rows, {}
        for i in range(0, len(rows), 2):
            row = rows[(i * 7919) % len(rows)]
            index[row[1]] = row

    def json(self) -> None:
        json.loads(json.dumps(self.doc))

    def time(self, rounds: int = 2) -> dict[str, float]:
        """The reference times now. ``cpu``: after one untimed round that
        brings the kernels back into the caches, the sum over kernels of each
        kernel's fastest time in ``rounds`` timed rounds. ``stream`` (if
        enabled): the fastest of ``rounds`` sums over the block."""
        clock = time.perf_counter
        kernels = [getattr(self, name) for name in self.KERNELS]
        fastest = [float("inf")] * len(kernels)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for kernel in kernels:
                kernel()
            for _ in range(rounds):
                for index, kernel in enumerate(kernels):
                    start = clock()
                    kernel()
                    fastest[index] = min(fastest[index], clock() - start)
        finally:
            if enabled:
                gc.enable()
        times = {"cpu": sum(fastest)}
        if self.block is not None:
            stream = float("inf")
            for _ in range(rounds):
                start = clock()
                self.block.sum()
                stream = min(stream, clock() - start)
            times["stream"] = stream
        return times


def speed(bracket: list[dict[str, float]], load: str) -> float:
    """The factor that scales a sample to the quiet speed of ``load``, from
    the reference times just before and just after the sample: the quiet
    time over the slower of the two."""
    return QUIET_S[load] / max(times[load] for times in bracket)
