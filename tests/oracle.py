"""Straight-line reference implementation used as an independent oracle.

Deliberately primitive: Python lists, the math module, explicit loops, no
numpy and no imports from the package under test. Training standardizes,
then alternates element-wise folding with re-standardization; testing
replays the recorded (mean, std) pairs and thresholds the distance to the
origin. Sums accumulate left to right; std uses the N-1 divisor; a zero or
non-finite std is replaced by 1.
"""

import math


def fold_value(op, v):
    if op == "abs":
        return abs(v)
    if op == "sqr":
        return v * v
    if op == "cos_abs":
        return math.cos(v) if -1.0 <= v <= 1.0 else abs(v)
    if op == "cos":
        return math.cos(v)
    if op == "sin":
        return math.sin(v)
    if op == "tanh":
        return math.tanh(v)
    raise ValueError(op)


def train(X, iterations, op):
    """Returns (mus, sigmas, working) as plain lists of lists."""
    work = [[float(v) for v in row] for row in X]
    n = len(work)
    d = len(work[0])
    mus, sigmas = [], []
    for i in range(1, iterations + 1):
        if i > 1:
            for row in work:
                for j in range(d):
                    row[j] = fold_value(op, row[j])
        mu = []
        for j in range(d):
            s = 0.0
            for row in work:
                s += row[j]
            mu.append(s / n)
        sigma = []
        for j in range(d):
            s = 0.0
            for row in work:
                dev = row[j] - mu[j]
                s += dev * dev
            sig = math.sqrt(s / (n - 1))
            if math.isnan(sig) or math.isinf(sig) or sig <= 0.0:
                sig = 1.0
            sigma.append(sig)
        for row in work:
            for j in range(d):
                row[j] = (row[j] - mu[j]) / sigma[j]
        mus.append(mu)
        sigmas.append(sigma)
    return mus, sigmas, work


def transform(y, mus, sigmas, op):
    z = [float(v) for v in y]
    d = len(z)
    for k in range(len(mus)):
        if k > 0:
            for j in range(d):
                z[j] = fold_value(op, z[j])
        for j in range(d):
            z[j] = (z[j] - mus[k][j]) / sigmas[k][j]
    return z


def distance(z, dist):
    d = len(z)
    if dist == "l1":
        s = 0.0
        for v in z:
            s += abs(v)
        return s / d
    if dist == "l2":
        s = 0.0
        for v in z:
            s += v * v
        return math.sqrt(s) / d
    raise ValueError(dist)


def score(y, mus, sigmas, op, dist):
    return distance(transform(y, mus, sigmas, op), dist)


def label(y, mus, sigmas, op, dist, threshold):
    return "target" if score(y, mus, sigmas, op, dist) <= threshold else "outlier"


# ------------------------------------------------------------- splitmix64
# One stream at a time, with Python ints masked to 64 bits: the reference
# for the vectorized streams, split plans and CV folds.

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(state):
    z = (state + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class Stream:
    """Output k of the stream seeded with s is mix64(s + k * GOLDEN)."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        out = mix64(self.state)
        self.state = (self.state + GOLDEN) & MASK64
        return out

    def below(self, n, highest=None):
        """Uniform in [0, n): draws above highest(n), by default
        2**64 - (2**64 mod n) - 1, are rejected and drawn again."""
        top = (1 << 64) - (1 << 64) % n - 1 if highest is None else highest(n)
        while True:
            r = self.next()
            if r <= top:
                return r % n

    def shuffle(self, items, highest=None):
        """Fisher-Yates, highest index first, in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1, highest)
            items[i], items[j] = items[j], items[i]
        return items


def derive_seed(seed, *path):
    s = seed & MASK64
    for component in path:
        s = mix64((s + component) & MASK64)
    return s


def split_plan(labels, target, fraction, repetitions, seed):
    """(split seed, sorted train rows, sorted test rows) per repetition:
    targets shuffled, then outliers, on the repetition's stream."""
    targets = [i for i, lab in enumerate(labels) if lab == target]
    outliers = [i for i, lab in enumerate(labels) if lab != target]
    plan = []
    for rep in range(repetitions):
        split_seed = derive_seed(seed, rep)
        stream = Stream(split_seed)
        tgt = stream.shuffle(list(targets))
        out = stream.shuffle(list(outliers))
        n_t = int(fraction * len(tgt))
        n_o = int(fraction * len(out))
        plan.append((split_seed, sorted(tgt[:n_t] + out[:n_o]), sorted(tgt[n_t:] + out[n_o:])))
    return plan


def kfold(items, k, seed):
    """(training, validation) lists per fold of the shuffled items; the
    first len(items) mod k folds hold one extra item."""
    items = Stream(seed).shuffle(list(items))
    base, extra = divmod(len(items), k)
    folds, start = [], 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        folds.append(items[start:start + size])
        start += size
    return [([x for g in range(k) if g != f for x in folds[g]], folds[f]) for f in range(k)]
