"""Reference task of the benchmark: a fixed amount of work that is not refold's.

    python3 perfbench/reference.py

The runner times this script as a subprocess next to every refold command,
and reports a pass's wall time as a multiple of this script's wall time. The
shared host the benchmark runs on changes speed by tens of percent over
minutes; a refold command and the reference task run a few seconds apart see
the same speed, so the ratio cancels most of the drift. The work mixes what
refold spends its time on: interpreter start and numpy import, float
formatting and parsing in Python, passes over a 100,000 x 20 array, and
thousands of numpy calls on tiny arrays. It never changes with refold, so the
ratio moves only when refold does.

It prints one checksum line, so that no result goes unused.
"""

import sys

import numpy as np


def main() -> int:
    values = [i * 1.000001 + 0.1 for i in range(60_000)]
    text = ["%.17g" % v for v in values]
    total = sum(float(t) for t in text)
    index = {t: i for i, t in enumerate(text)}
    total += len(index)

    rng = np.random.default_rng(1)
    X = rng.standard_normal((100_000, 20))
    for _ in range(6):
        Z = np.abs((X - X.mean(axis=0)) / X.std(axis=0))
        total += float(Z.sum(axis=1).max())

    small = X[:35]
    for _ in range(3_000):
        total += float(np.abs(small - small.mean(axis=0)).sum()) * 1e-6

    print(f"reference {total:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
