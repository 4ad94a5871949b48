"""A fixed block of work that measures how fast the machine is right now.

On a shared machine the same estimate can take 1.1 s in one minute and
1.9 s in the next, because other tenants slow the CPU. The benchmark runs
this block, which uses no aglkit code and depends on no seed, next to
every timed call and scales each call by ``REFERENCE_S`` over the block's
time, so a slow minute slows both and largely cancels out: on a shared
2-core machine this cut the spread of ten run medians (interquartile range
over median) from about 0.2 to under 0.08.

The block mixes what ``aglkit estimate`` spends its time on: JSON parsing,
a Python loop per record and small numpy reductions.
"""

import json
import math
import time

import numpy as np

# Time of one block on the 2-core machine the benchmark was defined on, at
# its faster speed (blocks there took 0.2 to 0.3 s); scaled times read as
# seconds on that machine at that speed.
REFERENCE_S = 0.2

_LINES = [json.dumps({"gold": i % 4, "predicted": (7 * i) % 4,
                      "logits": [math.sin(i * k) for k in range(1, 9)]}, sort_keys=True)
          for i in range(3000)]
_REPS = 6


def block_s():
    """Wall time of one calibration block, in seconds."""
    start = time.perf_counter()
    for _ in range(_REPS):
        rows, hits = [], 0
        for line in _LINES:
            rec = json.loads(line)
            hits += rec["gold"] == rec["predicted"]
            rows.append([float(v) for v in rec["logits"]])
        logits = np.array(rows)
        for t in np.linspace(-2.0, 2.0, 24):
            scaled = logits * math.exp(t)
            shifted = scaled - scaled.max(axis=1, keepdims=True)
            np.log(np.exp(shifted).sum(axis=1)).mean()
    return time.perf_counter() - start


def scaled(times, blocks):
    """Each time in ``times`` scaled by ``REFERENCE_S`` over the mean of the
    blocks timed just before and just after it (``len(times) + 1`` blocks)."""
    return [t * REFERENCE_S * 2.0 / (before + after)
            for t, before, after in zip(times, blocks, blocks[1:])]
