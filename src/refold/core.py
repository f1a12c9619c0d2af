"""Core one-class classifier: repeated per-dimension standardize-and-fold.

Training standardizes the target-class matrix, then alternates an
element-wise folding operation (absolute value by default) with
re-standardization for a fixed number of iterations. Only the per-iteration
(mean, std) vectors are kept; replaying them maps any sample into the final
representation, where classification thresholds the sample's distance to the
origin (L1 or L2 norm divided by the dimension count). A single iteration,
with no folding ever applied, is the plain standardize-and-threshold baseline.
The three settings (fold, iterations, distance) are plain arguments with the
paper's defaults, held to their rules by check_settings. Every fold works in
place on the working values.

Numeric conventions, fixed as part of the model format:
  - 64-bit floats throughout.
  - Standard deviation uses the N-1 (sample) divisor.
  - A dimension whose std comes out zero or non-finite gets std 1, so the
    centered training values stay 0 there while test deviations still count.
  - Column reductions accumulate strictly left to right (running total), so
    results are bit-reproducible and match a plain loop transcription.

Column totals of a C-ordered block of 256 rows or more and 2 to 64 columns
come from einsum, whose one-operand loop keeps that running-total order at a
third of add.reduce's cost on 20-wide rows. A total that comes out exactly
zero, whose sign einsum may get wrong, and the re-sum that reports an
overflowing total (einsum raises no floating-point warnings) go through the
strict add.reduce. Both orders are numpy's implementation, not its contract,
so a known-answer probe checks each once per process, on its first use:
where einsum fails it, totals take add.reduce, and where add.reduce fails
too, the last row of a cumsum, which is a running total by definition.
transform_ref replays on a feature-major (D, M) copy of the samples, so each
step subtracts and divides whole contiguous rows by one scalar each.

Every step of a fit acts on one dimension at a time; only the final distance
mixes dimensions. So where a helper may be forked (helper.may_fork: two
CPUs or more), train_ref fits a matrix of _SCRATCH_ROWS rows or more and two
columns or more as its two column halves, in two forked helpers at once,
whose steps side by side are the bits of a whole fit. It writes nothing of
the matrix meanwhile, and on any failure of a half it fits the matrix whole.

fit_stack fits R models on index arrays into one matrix at once, rows-outer:
their rows sit side by side as one (N, R * D) matrix, so each numpy call of a
step spans all R * D columns. Non-finite working values show in the column
totals, which a step computes anyway; only a non-finite total leads to a scan.
It fits, then replays: the fit returns the step rows, and the rows to score
are gathered once the fit rows are let go, and replayed through those steps.
Its memory budget counts the step rows beside the gathered rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    NumericError,
    ShapeError,
)
from .helper import Helper, may_fork, send
from .textio import check, check_int

FOLD_OPS = ("abs", "sqr", "cos_abs", "cos", "sin", "tanh")
DISTANCES = ("l1", "l2")

DEFAULT_FOLD = "abs"
DEFAULT_DISTANCE = "l1"
DEFAULT_ITERATIONS = 101
DEFAULT_THRESHOLD = 1.0

# float64 cells gathered into one kernel call (8 MB), so that memory stays
# bounded however many fits a large dataset stacks
_STACK_CELLS = 1 << 20

# rows of the squared deviations held at once: a fit's scratch stays one
# cache-sized block however many rows it has
_SCRATCH_ROWS = 8192

TARGET = "target"
OUTLIER = "outlier"


def _column_totals(a: np.ndarray) -> np.ndarray:
    """Strict left-to-right column sums of an (N, D) matrix."""
    # Over the rows of a C-contiguous (N, D) block with D >= 2, einsum's
    # unbuffered one-operand loop adds one row at a time into the output row:
    # the running-total order, at about a third of add.reduce's cost on
    # 20-wide rows. Its call and the zero check below cost about 2 us more,
    # and add.reduce keeps up on wide rows, so einsum takes only blocks of
    # 256 rows or more, of at most 64 columns. It starts from +0.0, so a
    # total that comes out zero may carry the wrong sign: any zero total is
    # summed again strictly.
    if (a.ndim == 2 and 2 <= a.shape[1] <= 64 and len(a) >= 256 and a.flags.c_contiguous
            and _sums_in_order("einsum")):
        totals = np.einsum("ij->j", a)
        if np.count_nonzero(totals) == len(totals):
            return totals
    return _strict_totals(a)


def _strict_totals(a: np.ndarray) -> np.ndarray:
    """_column_totals by numpy's reductions, which raise floating-point
    warnings (einsum never does); also sums stacks of matrices."""
    # add.reduce over the rows of a C-contiguous block with D >= 2 takes the
    # same running-total order. Starting from -0.0 keeps the first row's
    # bits, signed zeros included. A single column is the contiguous axis,
    # which add.reduce sums pairwise, so it (like any other layout) takes the
    # last row of a cumsum, which carries one running total in index order.
    if a.shape[-1] > 1 and a.flags.c_contiguous and _sums_in_order("add.reduce"):
        return np.add.reduce(a, axis=-2, initial=-0.0)
    return np.cumsum(a, axis=-2)[..., -1, :]


_SUMS = {"einsum": lambda a: np.einsum("ij->j", a),
         "add.reduce": lambda a: np.add.reduce(a, axis=0, initial=-0.0)}


@functools.cache
def _sums_in_order(name: str) -> bool:
    """Whether the named sum of _SUMS adds a block's rows in the
    running-total order on this numpy: probed once per process, on the
    sum's first use."""
    return _adds_in_order(_SUMS[name])


def _adds_in_order(total) -> bool:
    """Whether total(a) gives, bit for bit, the running totals of the
    columns of a (256, 3) block of magnitudes from 1e-8 to 1e8, which a
    pairwise sum or a sum split into partial totals does not."""
    # built by Python's arithmetic, so that the probe pages in no numpy code
    # beyond the sum it checks
    a = np.array([((k * 7919) % 997 - 498.5) * 10.0 ** (k % 17 - 8)
                  for k in range(768)]).reshape(256, 3)
    running = [functools.reduce(float.__add__, column) for column in a.T.tolist()]
    return total(a).tobytes() == np.array(running).tobytes()


def _square_totals(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """_column_totals(z * z), bit for bit, squaring a block of at most
    len(scratch) rows of the (N, D) matrix z at a time into scratch.

    Each block's first row takes the running total of the blocks before it,
    so the block's own total continues that total in index order: a sum
    from -0.0 or a cumsum adds its first row exactly, and so does einsum's
    sum from +0.0, since a square is never -0.0.
    """
    totals = None
    for a in range(0, len(z), len(scratch)):
        blk = scratch[:len(z) - a]
        np.multiply(z[a:a + len(blk)], z[a:a + len(blk)], out=blk)
        if totals is not None:
            blk[0] = totals + blk[0]
        totals = _column_totals(blk)
    return totals


def _fold_matrix(op: str, z: np.ndarray) -> np.ndarray:
    """Fold the float64 array z in place; returns z."""
    if op == "sqr":
        # far outliers may overflow to inf here; that is meaningful (the
        # sample scores infinitely far out), not an error
        with np.errstate(over="ignore"):
            return np.multiply(z, z, out=z)
    if op == "cos_abs":
        # cos on the closed interval [-1, 1], absolute value outside;
        # discontinuous at +/-1 by construction. Where cos runs its value is
        # at least cos(1) > 0, so the absolute value leaves it as it is.
        np.cos(z, out=z, where=(z >= -1.0) & (z <= 1.0))
        return np.abs(z, out=z)
    _check_fold(op)
    # abs, cos, sin and tanh: each the numpy ufunc of its name
    return getattr(np, op)(z, out=z)


def _check_fold(op: str) -> None:
    if op not in FOLD_OPS:
        raise ConfigError(f"unknown fold operation {op!r}; expected one of {FOLD_OPS}")


def _check_distance(dist: str) -> None:
    if dist not in DISTANCES:
        raise ConfigError(f"unknown distance {dist!r}; expected one of {DISTANCES}")


def check_settings(fold: str, iterations: int, dist: str = DEFAULT_DISTANCE) -> None:
    """Hold the classifier's three settings to their rules, in this order:
    the fold, the distance, then the iteration count; else a ConfigError."""
    _check_fold(fold)
    _check_distance(dist)
    check("iterations", iterations)


# eq=False: a generated __eq__ would compare the arrays element-wise and
# raise on their ambiguous truth value; models compare by identity instead
@dataclass(frozen=True, eq=False)
class RefModel:
    """Trained classifier: the per-step (mean, std) rows plus the fold name.

    mu[i] and sigma[i] are the vectors of step i + 1, stored as read-only
    float64 (J, D) copies of the arguments; sigma entries are finite and > 0. iterations == 1
    encodes the baseline; no folding is ever applied then. Instances are
    immutable and safe to score from concurrently.
    """

    mu: np.ndarray
    sigma: np.ndarray
    fold: str

    def __post_init__(self):
        _check_fold(self.fold)
        mu = np.array(self.mu, dtype=np.float64)
        sigma = np.array(self.sigma, dtype=np.float64)
        if mu.ndim != 2 or mu.shape != sigma.shape:
            raise ShapeError("mu and sigma must be (J, D) matrices of equal shape")
        if mu.shape[0] == 0:
            raise ConfigError("model needs at least one step")
        if mu.shape[1] == 0:
            raise ShapeError("model needs at least one dimension")
        bad_mu = ~np.isfinite(mu).all(axis=1)
        bad_sigma = ~(np.isfinite(sigma) & (sigma > 0.0)).all(axis=1)
        bad = bad_mu | bad_sigma
        if bad.any():
            i = int(bad.argmax())
            what = ("mu contains non-finite values" if bad_mu[i]
                    else "sigma entries must be finite and > 0")
            raise InvalidInputError(f"step {i + 1}: {what}")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.shape[1]

    @property
    def iterations(self) -> int:
        return self.mu.shape[0]

    def truncated(self, iterations: int) -> "RefModel":
        """Model replaying only the first `iterations` steps.

        Valid because step i of training depends only on steps before it.
        """
        check_int("truncation depth", iterations, 1, self.iterations)
        return RefModel(self.mu[:iterations], self.sigma[:iterations], self.fold)


def _as_samples(
    x, what: str = "input", allow_nonfinite: bool = False
) -> tuple[np.ndarray, bool]:
    """Coerce to a float64 (N, D) matrix; returns (matrix, was_single_row)."""
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[np.newaxis, :]
    if a.ndim != 2:
        raise ShapeError(f"{what} must be a vector or a 2-D matrix, got ndim={a.ndim}")
    if a.shape[1] == 0:
        raise ShapeError(f"{what} needs at least one feature dimension")
    if not allow_nonfinite and not np.isfinite(a).all():
        raise InvalidInputError(f"{what} contains non-finite values")
    return a, single


def _replay_step(z: np.ndarray, mu, sigma, fold: str, i: int) -> None:
    """Apply step i (0-based) of a model to the working samples z in place."""
    if i > 0:
        _fold_matrix(fold, z)
    np.subtract(z, mu, out=z)
    np.divide(z, sigma, out=z)


def fit_stack(X: np.ndarray, fit, iterations: int, fold: str, rows, depths,
              dist: str) -> dict[int, np.ndarray]:
    """Fit one model on the rows fit[r] of X for each r, then score the rows
    rows[r] of X with model r by replaying its steps.

    X is an (N, D) float64 matrix of finite rows, and is only read: each
    block of fits works on its own gathered copy of their rows. fit and rows
    hold one index array per fit, for one fit or more. The index arrays may
    differ in length and hold any rows of 0..N-1 in any order (anything else
    is a ConfigError); every fit needs 2 or more. Returns,
    for every depth in `depths` (each in 1..iterations), an (R, M) array, M
    being the longest rows[r], whose row r starts with
    score(X[rows[r]], model_r.truncated(depth), dist), bit for bit.

    The fits run in blocks of at most _STACK_CELLS cells: the gathered fit
    rows and score rows, padding included, and each fit's step rows. A block
    is fitted, its fit rows are let go, and then its score rows are gathered
    and replayed. Each fit gets the arithmetic of a lone fit, and a
    NumericError names the first iteration at which a fit of the failing
    block goes non-finite or overflows a column total.
    """
    check_settings(fold, iterations, dist)
    wanted = set(depths)
    for depth in wanted:
        check_int("scoring depth", depth, 1, iterations)
    if X.shape[1] == 0:
        raise ShapeError("training data needs at least one feature dimension")
    if len(fit) == 0 or len(rows) != len(fit):
        raise ConfigError(f"need one rows array per fit and at least one fit: "
                          f"got {len(rows)} rows arrays for {len(fit)} fits")
    counts = [len(a) for a in fit]
    if min(counts) < 2:
        raise InsufficientDataError(f"need at least 2 training samples, got {min(counts)}")
    fit = _padded([_check_rows("fit", a, len(X)) for a in fit])
    rows = _padded([_check_rows("rows", a, len(X)) for a in rows])
    n, m, d = fit.shape[1], rows.shape[1], X.shape[1]
    step = max(1, _STACK_CELLS // ((n + m + 2 * iterations) * d))
    parts = []
    for a in range(0, len(fit), step):
        b = slice(a, a + step)
        r = len(fit[b])
        # X[fit.T] is (n, r, D): the block's rows gathered as one (n, r * D)
        # matrix, freed when the fit returns
        mu, sigma = _fit_block(X[fit[b].T].reshape(n, r * d), counts[b], iterations, fold)
        Y = X[rows[b].T].reshape(m, r * d)
        scores = {}
        # overflow to inf is a legitimate outcome for samples far outside
        # the training data, as in transform_ref
        with np.errstate(over="ignore"):
            for i in range(max(wanted, default=0)):
                _replay_step(Y, mu[i], sigma[i], fold, i)
                if i + 1 in wanted:
                    scores[i + 1] = np.ascontiguousarray(_distances(Y.reshape(m, r, d), dist).T)
        parts.append(scores)
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _fit_block(Z, counts, iterations, fold):
    """Fit one block of R fits in place on their working values; returns
    the (iterations, R * D) mean and std rows, row i holding step i + 1.

    Z is the block's (n, R * D) C-ordered float64 matrix, rows-outer: row k
    holds row k of every fit, fit r in columns r * D .. r * D + D - 1, so each
    numpy call of a step spans all R * D columns, and Z is overwritten. Rows
    of fit r past counts[r] are padding: they are set to -0.0 after each fold
    and after each subtraction of the mean, since adding -0.0 to a running
    total returns it unchanged, and totals divide by each fit's row count. A
    step proves its values finite through its column totals: a non-finite
    entry leaves its total non-finite, and a finite total of squared
    deviations bounds every standardized value by sqrt(n - 1). Only a
    non-finite total leads to a scan.
    """
    r, (n, rd) = len(counts), Z.shape
    d = rd // r
    # the working values are updated in place, and the squared deviations go
    # through a scratch block of at most _SCRATCH_ROWS rows, so no iteration
    # allocates and time stays linear in N beyond the CPU cache
    scratch = np.empty((min(n, _SCRATCH_ROWS), rd))
    # per-column row counts, and the mask of padding cells, of a ragged block
    count, pad = n, None
    if min(counts) < n:
        count = np.repeat(np.asarray(counts, dtype=np.float64), d)
        pad = np.arange(n)[:, np.newaxis] >= count
    mus = np.empty((iterations, rd))
    sigmas = np.empty_like(mus)
    for i, (mu, sigma) in enumerate(zip(mus, sigmas)):
        # the working values are finite before the fold, so only sqr's
        # overflow can be suppressed here, and the totals catch it
        with np.errstate(all="ignore"):
            if i > 0:
                _fold_matrix(fold, Z)
            if pad is not None:
                np.copyto(Z, -0.0, where=pad)  # cos and cos_abs map -0.0 to 1
            totals = _column_totals(Z)
        if not np.isfinite(totals).all():
            _check_finite(Z, i)
            # finite values whose total overflows: sum again, so that the
            # overflow warns as it would unsuppressed, and name the total
            j = int(np.flatnonzero(~np.isfinite(_strict_totals(Z)))[0]) % d
            raise NumericError(f"column total of dimension {j + 1} overflows "
                               f"at iteration {i + 1}")
        np.divide(totals, count, out=mu)
        np.subtract(Z, mu, out=Z)
        if pad is not None:
            np.copyto(Z, -0.0, where=pad)
        # squared deviations may overflow for extreme magnitudes; the resulting
        # non-finite std is sanitized to 1 just like the zero-variance case.
        # Z / sigma cannot overflow.
        with np.errstate(over="ignore"):
            np.sqrt(_square_totals(Z, scratch) / (count - 1), out=sigma)
            bounded = np.isfinite(sigma).all()
            if not (bounded and sigma.all()):
                sigma[~np.isfinite(sigma) | (sigma <= 0.0)] = 1.0
            np.divide(Z, sigma, out=Z)
            if not bounded:
                _check_finite(Z, i)
    return mus, sigmas


def _check_finite(z: np.ndarray, i: int) -> None:
    if not np.isfinite(z).all():
        raise NumericError(f"non-finite working values at iteration {i + 1}")


def _check_rows(name: str, index, n: int) -> np.ndarray:
    """The index array or sequence as an integer array; rejects one that
    holds a non-integer (bool included) or a row outside 0..n-1 of an n-row
    matrix. An empty one passes."""
    a = np.asarray(index)
    if not a.size:
        return a.astype(np.intp)
    if not np.issubdtype(a.dtype, np.integer) or a.min() < 0 or a.max() >= n:
        raise ConfigError(f"{name} must hold integer row indices in 0..{n - 1}")
    return a


def _padded(index) -> np.ndarray:
    """(R, longest) array of R index arrays, each padded at its tail by
    repeating its last entry."""
    sizes = np.array([len(a) for a in index])[:, np.newaxis]
    starts = np.cumsum(sizes)[:, np.newaxis] - sizes
    return np.concatenate(index)[starts + np.minimum(np.arange(sizes.max()), sizes - 1)]


def train_ref(X, iterations: int = DEFAULT_ITERATIONS, fold: str = DEFAULT_FOLD, *,
              overwrite: bool = False) -> RefModel:
    """Fit the folding classifier on the target-class rows X.

    Standardizes them, then repeats fold-and-standardize for iterations-1 more
    rounds, recording each (mean, std) pair. The fit works in place on one
    C-ordered float64 copy of X, which it then discards. With overwrite=True,
    as with scipy's overwrite_a, a writable C-ordered float64 X is that copy
    itself, and is left holding working values; any other X is still copied,
    and never written. Work is linear in N * D per iteration, and memory
    beyond the copy is a scratch block; the model itself stores only the J
    step vectors.

    Each step acts on one dimension at a time, so X of _SCRATCH_ROWS rows or
    more and 2 columns or more is fitted, where a helper may be forked, as
    two column halves, each copied and fitted in a forked helper, to the
    same bits. That split fit leaves X unwritten, overwrite=True or not. A
    half that fails in any way (an error, a warning, a lost helper) sends no
    steps, and X is then fitted whole as above, which raises and warns as a
    fit in one process does.
    """
    check_settings(fold, iterations)
    x, _ = _as_samples(X, "training data")
    if len(x) < 2:
        raise InsufficientDataError(f"need at least 2 training samples, got {len(x)}")
    steps = None
    if len(x) >= _SCRATCH_ROWS and x.shape[1] >= 2 and may_fork():
        steps = _split_fit(x, iterations, fold)
    if steps is None:
        if not (overwrite and x.flags.writeable and x.flags.c_contiguous):
            x = np.array(x, order="C")
        steps = _fit_block(x, [len(x)], iterations, fold)
    return RefModel(*steps, fold)


def _split_fit(x, iterations, fold):
    """The step rows of the (N, D) matrix x, fitted as the column halves
    [:D // 2] and [D // 2:] in two forked helpers, or None where either sends
    no whole steps. Both helpers are killed and reaped before it returns,
    and x is only read."""
    d = x.shape[1]
    halves = (slice(0, d // 2), slice(d // 2, d))
    helpers = (Helper(), Helper())
    steps = []
    try:
        for helper, cols in zip(helpers, halves):
            helper.start(_send_half, x, cols, iterations, fold)
        for helper, cols in zip(helpers, halves):
            for _ in "mu", "sigma":
                steps.append(helper.read((iterations, cols.stop - cols.start)))
                if steps[-1] is None:
                    return None
    finally:
        for helper in helpers:
            helper.close()
    mu0, sigma0, mu1, sigma1 = steps
    return np.hstack((mu0, mu1)), np.hstack((sigma0, sigma1))


def _send_half(out, x, cols, iterations, fold) -> None:
    """A helper's work: fit a C-ordered copy of the columns cols of x, and
    send its mu rows, then its sigma rows."""
    for a in _fit_block(np.array(x[:, cols], order="C"), [len(x)], iterations, fold):
        send(out, a)


def transform_ref(y, model: RefModel) -> np.ndarray:
    """Replay the model's standardize/fold sequence on new samples.

    Accepts a single D-vector or an (M, D) matrix; the arithmetic per sample
    is identical to the training-time working copy, element for element.
    One feature-major copy of the samples, a C-ordered (D, M) matrix, is
    updated in place, so no step allocates (M, D) float temporaries, each
    step's subtract and divide run along contiguous rows with one scalar per
    row, and the caller's array is never written. An (M, D) matrix is
    returned as the transposed view of that copy.
    """
    a, single = _as_samples(y, "sample")
    if a.shape[1] != model.dim:
        raise ShapeError(f"sample has {a.shape[1]} dimensions, model has {model.dim}")
    z = np.array(a.T, order="C")
    # overflow to inf is a legitimate outcome for samples far outside the
    # training data (tiny stds amplify them every iteration); inf scores
    # simply classify as outliers
    with np.errstate(over="ignore"):
        for i, (mu, sigma) in enumerate(zip(model.mu, model.sigma)):
            _replay_step(z, mu[:, np.newaxis], sigma[:, np.newaxis], model.fold, i)
    return z[:, 0] if single else z.T


def _distances(a: np.ndarray, dist: str) -> np.ndarray:
    """distance_to_origin over the last axis of a matrix or stack."""
    # one column at a time, left to right: the running-total order, with
    # (..., M) temporaries only
    term = np.abs if dist == "l1" else np.square
    with np.errstate(over="ignore"):  # inf in means inf out, by design
        total = term(a[..., 0])
        col = np.empty_like(total)
        for j in range(1, a.shape[-1]):
            total += term(a[..., j], out=col)
        if dist == "l2":
            np.sqrt(total, out=total)
    total /= a.shape[-1]
    return total


def distance_to_origin(z, dist: str = DEFAULT_DISTANCE) -> np.ndarray | float:
    """L1 or L2 norm of already-transformed samples, divided by the dimension.

    Accepts non-finite entries: a sample driven to infinity by an explosive
    fold (sqr on a far outlier) simply scores infinitely far out.
    """
    _check_distance(dist)
    a, single = _as_samples(z, "transformed sample", allow_nonfinite=True)
    out = _distances(a, dist)
    return float(out[0]) if single else out


def score(y, model: RefModel, dist: str = DEFAULT_DISTANCE) -> np.ndarray | float:
    """Distance to the origin of the transformed sample(s); always >= 0.

    A sample is a target iff its score <= the decision threshold."""
    _check_distance(dist)
    return distance_to_origin(transform_ref(y, model), dist)

