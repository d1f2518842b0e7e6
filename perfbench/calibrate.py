"""A fixed computation that measures how fast the host runs right now.

``run.py`` times this script, in a fresh interpreter, before and after
every pipeline. Its work never changes and uses no ``kgtyper`` code: an
interpreter start and a numpy import, fresh pages filled with random
numbers, a Python loop of small array operations and a few batched matrix
products, the same kinds of work a pipeline does. On a shared host the
time it takes rises and falls with the pipeline's, so run.py divides each
pipeline's wall time by it.

    python3 perfbench/calibrate.py
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    fresh = rng.uniform(-0.5, 0.5, size=(300_000, 100))  # 240 MB of new pages
    total = float(fresh.sum())
    del fresh
    table = rng.standard_normal((500, 100))
    offset = rng.standard_normal(100)
    for step in range(10_000):
        row = step % 500
        hidden = table[row] * 0.5 + offset
        total += float((table[(row * 7) % 494 : (row * 7) % 494 + 6] @ hidden).sum())
    batch = rng.standard_normal((32, 3000))
    weights = rng.standard_normal((3000, 100))
    for _ in range(150):
        total += float((batch @ weights)[0, 0])
    if not np.isfinite(total):
        raise SystemExit("calibration produced a non-finite value")


if __name__ == "__main__":
    main()
