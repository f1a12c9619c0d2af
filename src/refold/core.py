"""Core one-class classifier: repeated per-dimension standardize-and-fold.

Training standardizes the target-class matrix, then alternates an
element-wise folding operation (absolute value by default) with
re-standardization for a fixed number of iterations. Only the per-iteration
(mean, std) vectors are kept; replaying them maps any sample into the final
representation, where classification thresholds the sample's distance to the
origin (L1 or L2 norm divided by the dimension count). A single iteration,
with no folding ever applied, is the plain standardize-and-threshold baseline.

Numeric conventions, fixed as part of the model format:
  - 64-bit floats throughout.
  - Standard deviation uses the N-1 (sample) divisor.
  - A dimension whose std comes out zero or non-finite gets std 1, so the
    centered training values stay 0 there while test deviations still count.
  - Column reductions accumulate strictly left to right (running total), so
    results are bit-reproducible and match a plain loop transcription.

fit_stack fits R models on index arrays into one matrix at once, rows-outer:
their rows sit side by side as one (N, R * D) matrix, so each numpy call of a
step spans all R * D columns. Non-finite working values show in the column
totals, which a step computes anyway; only a non-finite total leads to a scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    NumericError,
    ShapeError,
)
from .rng import check_integer

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
    # Over the rows of a C-contiguous block with D >= 2, add.reduce adds one
    # row at a time into the accumulator row: the running-total order without
    # materializing an (N, D) cumsum. Starting from -0.0 keeps the first
    # row's bits, signed zeros included. A single column is the contiguous
    # axis, which add.reduce sums pairwise, so it (like any other layout)
    # takes the last row of a cumsum, which carries one running total in
    # index order.
    if a.shape[-1] > 1 and a.flags.c_contiguous:
        return np.add.reduce(a, axis=-2, initial=-0.0)
    return np.cumsum(a, axis=-2)[..., -1, :]


def _square_totals(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """_column_totals(z * z), bit for bit, squaring a block of at most
    len(scratch) rows of the (N, D) matrix z at a time into scratch.

    Each block's first row takes the running total of the blocks before it,
    so the block's own total continues that total in index order: a sum
    from -0.0 or a cumsum adds its first row exactly.
    """
    totals = None
    for a in range(0, len(z), len(scratch)):
        blk = scratch[:len(z) - a]
        np.multiply(z[a:a + len(blk)], z[a:a + len(blk)], out=blk)
        if totals is not None:
            blk[0] = totals + blk[0]
        totals = _column_totals(blk)
    return totals


def _fold_matrix(op: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # `out` lets the ufunc folds work in place; cos_abs ignores it, so
    # callers always use the returned array
    if op == "abs":
        return np.abs(z, out=out)
    if op == "sqr":
        # far outliers may overflow to inf here; that is meaningful (the
        # sample scores infinitely far out), not an error
        with np.errstate(over="ignore"):
            return np.multiply(z, z, out=out)
    if op == "cos_abs":
        # cos on the closed interval [-1, 1], absolute value outside;
        # discontinuous at +/-1 by construction. errstate: where() evaluates
        # cos on the discarded branch too, which is invalid for inf inputs.
        with np.errstate(invalid="ignore"):
            return np.where(np.abs(z) <= 1.0, np.cos(z), np.abs(z))
    if op == "cos":
        return np.cos(z, out=out)
    if op == "sin":
        return np.sin(z, out=out)
    if op == "tanh":
        return np.tanh(z, out=out)
    _check_fold(op)  # raises: no other name is a fold


def _check_fold(op: str) -> None:
    if op not in FOLD_OPS:
        raise ConfigError(f"unknown fold operation {op!r}; expected one of {FOLD_OPS}")


def _check_distance(dist: str) -> None:
    if dist not in DISTANCES:
        raise ConfigError(f"unknown distance {dist!r}; expected one of {DISTANCES}")


def check_threshold(threshold: float) -> None:
    """Reject a decision threshold that is not > 0, NaN included."""
    if not threshold > 0:
        raise ConfigError(f"threshold must be > 0, got {threshold}")


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
        check_integer("truncation depth", iterations)
        if not 1 <= iterations <= self.iterations:
            raise ConfigError(
                f"truncation depth {iterations} outside 1..{self.iterations}"
            )
        return RefModel(self.mu[:iterations], self.sigma[:iterations], self.fold)


@dataclass(frozen=True)
class ClassifierConfig:
    """Hyperparameters defining one classifier variant."""

    fold: str = DEFAULT_FOLD
    iterations: int = DEFAULT_ITERATIONS
    dist: str = DEFAULT_DISTANCE

    def __post_init__(self):
        _check_fold(self.fold)
        _check_distance(self.dist)
        check_integer("iterations", self.iterations)
        if self.iterations < 1:
            raise ConfigError("iterations must be an integer >= 1")


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


def _replay_step(z: np.ndarray, mu, sigma, fold: str, i: int) -> np.ndarray:
    """Apply step i (0-based) of a model to the working samples z in place;
    cos_abs alone returns a new array, so callers use the returned one."""
    if i > 0:
        z = _fold_matrix(fold, z, out=z)
    np.subtract(z, mu, out=z)
    np.divide(z, sigma, out=z)
    return z


def fit_stack(
    X: np.ndarray,
    fit,
    iterations: int,
    fold: str,
    rows=None,
    depths=(),
    dist: str = DEFAULT_DISTANCE,
    params: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[int, np.ndarray]:
    """Fit one model on the rows fit[r] of X for each r, and score the rows
    rows[r] of X with model r.

    X is an (N, D) float64 matrix of finite rows, and is only read. The index
    arrays may differ in length and hold any rows in any order; every fit
    needs 2 or more. Returns, for every depth in `depths` (each in
    1..iterations), an (R, M) array, M being the longest rows[r], whose row r
    starts with score(X[rows[r]], model_r.truncated(depth), dist), bit for
    bit. With params = (mu, sigma), two (iterations, R, D) arrays, mu[i, r]
    and sigma[i, r] receive step i + 1 of fit r.

    The fits run in blocks of at most _STACK_CELLS gathered cells, padding
    included. Each fit gets the arithmetic of a lone fit, and a NumericError
    names the first iteration at which a fit of the failing block goes
    non-finite.
    """
    _check_fold(fold)
    _check_distance(dist)
    wanted = set(depths)
    if not wanted <= set(range(1, iterations + 1)):
        raise ConfigError(f"scoring depths must lie in 1..{iterations}")
    if X.shape[1] == 0:
        raise ShapeError("training data needs at least one feature dimension")
    counts = [len(a) for a in fit]
    if min(counts) < 2:
        raise InsufficientDataError(f"need at least 2 training samples, got {min(counts)}")
    fit = _padded(fit)
    rows = fit[:, :0] if rows is None else _padded(rows)  # (R, 0): nothing to score
    step = max(1, _STACK_CELLS // ((fit.shape[1] + rows.shape[1]) * X.shape[1]))
    parts = []
    for a in range(0, len(fit), step):
        b = slice(a, a + step)
        kept = None if params is None else (params[0][:, b], params[1][:, b])
        parts.append(_fit_block(X, fit[b], counts[b], rows[b], iterations, fold, wanted, dist,
                                kept))
    return {d: np.concatenate([p[d] for p in parts]) for d in parts[0]}


def _fit_block(X, fit, counts, rows, iterations, fold, wanted, dist, params):
    """fit_stack on one block of padded (R, n) fit and (R, m) score indices.

    X[fit.T] is (n, R, D), so the block is gathered rows-outer as one
    (n, R * D) matrix, and each numpy call of a step spans all R * D columns.
    Rows of fit r past counts[r] are padding: they are set to -0.0 after each
    fold and after each subtraction of the mean, since adding -0.0 to a
    running total returns it unchanged, and totals divide by each fit's row
    count. A step proves its values finite through its column totals: a
    non-finite entry leaves its total non-finite, and a finite total of
    squared deviations bounds every standardized value by sqrt(n - 1). Only
    a non-finite total leads to a scan.
    """
    r, n = fit.shape
    m, d = rows.shape[1], X.shape[1]
    # the working values and the scores' rows are updated in place, and the
    # squared deviations go through a scratch block of at most _SCRATCH_ROWS
    # rows, so no iteration allocates and time stays linear in N beyond the
    # CPU cache
    Z = X[fit.T].reshape(n, r * d)
    scratch = np.empty((min(n, _SCRATCH_ROWS), r * d))
    last = max(wanted, default=0) if m else 0
    if last:
        Y = X[rows.T].reshape(m, r * d)
    # per-column row counts, and the mask of padding cells, of a ragged block
    count, pad = n, None
    if min(counts) < n:
        count = np.repeat(np.asarray(counts, dtype=np.float64), d)
        pad = np.arange(n)[:, np.newaxis] >= count
    mu = np.empty(r * d)
    sigma = np.empty_like(mu)
    scores = {}
    for i in range(iterations):
        # the working values are finite before the fold, so only sqr's
        # overflow can be suppressed here, and the totals catch it
        with np.errstate(all="ignore"):
            if i > 0:
                Z = _fold_matrix(fold, Z, out=Z)
            if pad is not None:
                np.copyto(Z, -0.0, where=pad)  # cos and cos_abs map -0.0 to 1
            totals = _column_totals(Z)
        if not np.isfinite(totals).all():
            _check_finite(Z, i)
            # finite values whose total overflows: sum again, so that the
            # overflow warns as it would unsuppressed
            totals = _column_totals(Z)
        np.divide(totals, count, out=mu)
        np.subtract(Z, mu, out=Z)
        if pad is not None:
            np.copyto(Z, -0.0, where=pad)
        # squared deviations may overflow for extreme magnitudes; the resulting
        # non-finite std is sanitized to 1 just like the zero-variance case.
        # Z / sigma cannot overflow. In Y, overflow to inf is a legitimate
        # outcome for samples far outside the training data, as in
        # transform_ref.
        with np.errstate(over="ignore"):
            np.sqrt(_square_totals(Z, scratch) / (count - 1), out=sigma)
            bounded = np.isfinite(sigma).all()
            if not (bounded and sigma.all()):
                sigma[~np.isfinite(sigma) | (sigma <= 0.0)] = 1.0
            np.divide(Z, sigma, out=Z)
            if not bounded:
                _check_finite(Z, i)
            if params is not None:
                params[0][i] = mu.reshape(r, d)
                params[1][i] = sigma.reshape(r, d)
            if i < last:
                Y = _replay_step(Y, mu, sigma, fold, i)
                if i + 1 in wanted:
                    scores[i + 1] = np.ascontiguousarray(
                        _distances(Y.reshape(m, r, d), dist).T)
    return scores


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


def train_ref(X, iterations: int = DEFAULT_ITERATIONS, fold: str = DEFAULT_FOLD,
              rows=None) -> RefModel:
    """Fit the folding classifier on target-class rows: all of X, or the rows
    that the index array `rows` names.

    Standardizes them, then repeats fold-and-standardize for iterations-1 more
    rounds, recording each (mean, std) pair. The caller's X is not mutated.
    Work and memory are linear in N * D per iteration; the model itself
    stores only the J step vectors. This is fit_stack with one fit.
    """
    ClassifierConfig(fold, iterations)  # validates
    z, _ = _as_samples(X, "training data")
    mu = np.empty((iterations, 1, z.shape[1]))
    sigma = np.empty_like(mu)
    fit = np.arange(len(z)) if rows is None else rows
    _check_rows("rows", fit, len(z))
    fit_stack(z, [fit], iterations, fold, params=(mu, sigma))
    return RefModel(mu[:, 0], sigma[:, 0], fold)


def transform_ref(y, model: RefModel) -> np.ndarray:
    """Replay the model's standardize/fold sequence on new samples.

    Accepts a single D-vector or an (M, D) matrix; the arithmetic per sample
    is identical to the training-time working copy, element for element.
    One C-ordered copy of the samples is updated in place, so no step
    allocates (M, D) temporaries and the caller's array is never written.
    """
    a, single = _as_samples(y, "sample")
    if a.shape[1] != model.dim:
        raise ShapeError(f"sample has {a.shape[1]} dimensions, model has {model.dim}")
    z = np.array(a, dtype=np.float64, order="C")
    # overflow to inf is a legitimate outcome for samples far outside the
    # training data (tiny stds amplify them every iteration); inf scores
    # simply classify as outliers
    with np.errstate(over="ignore"):
        for i, (mu, sigma) in enumerate(zip(model.mu, model.sigma)):
            z = _replay_step(z, mu, sigma, model.fold, i)
    return z[0] if single else z


def _distances(a: np.ndarray, dist: str) -> np.ndarray:
    """distance_to_origin over the last axis of a matrix or stack."""
    # one column at a time, left to right: the running-total order, with
    # (..., M) temporaries only
    term = np.abs if dist == "l1" else np.square
    with np.errstate(over="ignore"):  # inf in means inf out, by design
        out = term(a[..., 0])
        col = np.empty_like(out)
        for j in range(1, a.shape[-1]):
            out += term(a[..., j], out=col)
        if dist == "l2":
            np.sqrt(out, out=out)
    out /= a.shape[-1]
    return out


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

