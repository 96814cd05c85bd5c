"""Fixed CPU work that tracks how fast the shared machine runs right now.

``run.py`` times this script as a child process before every pass and
divides the program's timings by the run's median calibration time (see
``CALIB_REF_S`` there).  The work mixes what the pipeline spends its time
on: row DP over small numpy arrays (title matching), byte-level hashing
into a dict (n-gram hashing) and a JSON round trip (corpus persistence).
It imports nothing from the program, so no program change can move it.
"""

import json

import numpy as np


def work(rounds: int = 120) -> int:
    rng = np.random.default_rng(12345)
    words = ["".join(chr(97 + c) for c in rng.integers(0, 26, size=8)) for _ in range(400)]
    acc = 0
    for _ in range(rounds):
        b = rng.integers(0, 26, size=20)
        idx = np.arange(b.size + 1)
        prev = idx.copy()
        for ch in rng.integers(0, 26, size=60):
            t = np.empty(b.size + 1, dtype=np.int64)
            t[0] = prev[0] + 1
            t[1:] = np.minimum(prev[1:] + 1, prev[:-1] + (b != ch))
            prev = idx + np.minimum.accumulate(t - idx)
        acc += int(prev[-1])
        counts: dict = {}
        for w in words:
            h = 0xCBF29CE484222325
            for byte in w.encode():
                h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            counts[h % 4096] = counts.get(h % 4096, 0) + 1
        acc += len(json.loads(json.dumps(counts)))
    return acc


if __name__ == "__main__":
    print(work())
