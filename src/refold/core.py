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

FOLD_OPS = ("abs", "sqr", "cos_abs", "cos", "sin", "tanh")
DISTANCES = ("l1", "l2")

DEFAULT_FOLD = "abs"
DEFAULT_DISTANCE = "l1"
DEFAULT_ITERATIONS = 101
DEFAULT_THRESHOLD = 1.0

TARGET = "target"
OUTLIER = "outlier"


def _running_total(a: np.ndarray, axis: int) -> np.ndarray:
    # cumsum carries one running total in index order, unlike np.sum's
    # pairwise blocking; the last slice is the strict left-to-right sum.
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def _column_totals(a: np.ndarray) -> np.ndarray:
    """Strict left-to-right column sums of an (N, D) matrix."""
    # Over the rows of a C-contiguous matrix with D >= 2, add.reduce adds one
    # row at a time into the accumulator row: the running-total order without
    # materializing an (N, D) cumsum. Starting from -0.0 keeps the first
    # row's bits, signed zeros included. A single column is the contiguous
    # axis, which add.reduce sums pairwise, so it (like any other layout)
    # keeps the running total.
    if a.shape[1] > 1 and a.flags.c_contiguous:
        return np.add.reduce(a, axis=0, initial=-0.0)
    return _running_total(a, 0)


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
    raise ConfigError(f"unknown fold operation {op!r}; expected one of {FOLD_OPS}")


def _check_fold(op: str) -> None:
    if op not in FOLD_OPS:
        raise ConfigError(f"unknown fold operation {op!r}; expected one of {FOLD_OPS}")


def _check_distance(dist: str) -> None:
    if dist not in DISTANCES:
        raise ConfigError(f"unknown distance {dist!r}; expected one of {DISTANCES}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StandardizerStep:
    """Per-dimension (mean, std) pair; std entries are finite and > 0."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = _readonly(self.mu)
        sigma = _readonly(self.sigma)
        if mu.ndim != 1 or sigma.ndim != 1 or mu.shape != sigma.shape:
            raise ShapeError("mu and sigma must be 1-D vectors of equal length")
        if mu.size == 0:
            raise ShapeError("standardizer needs at least one dimension")
        if not np.isfinite(mu).all():
            raise InvalidInputError("mu contains non-finite values")
        if not (np.isfinite(sigma).all() and (sigma > 0.0).all()):
            raise InvalidInputError("sigma entries must be finite and > 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class RefModel:
    """Trained classifier: ordered standardizer steps plus the fold name.

    iterations == 1 encodes the baseline; no folding is ever applied then.
    Instances are immutable and safe to score from concurrently.
    """

    steps: tuple[StandardizerStep, ...]
    fold: str

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ConfigError("model needs at least one standardizer step")
        _check_fold(self.fold)
        dim = steps[0].dim
        if any(s.dim != dim for s in steps):
            raise ShapeError("all standardizer steps must share one dimensionality")
        object.__setattr__(self, "steps", steps)

    @property
    def dim(self) -> int:
        return self.steps[0].dim

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def truncated(self, iterations: int) -> "RefModel":
        """Model replaying only the first `iterations` steps.

        Valid because step i of training depends only on steps before it.
        """
        if not 1 <= iterations <= len(self.steps):
            raise ConfigError(
                f"truncation depth {iterations} outside 1..{len(self.steps)}"
            )
        return RefModel(steps=self.steps[:iterations], fold=self.fold)


@dataclass(frozen=True)
class ClassifierConfig:
    """Hyperparameters defining one classifier variant."""

    fold: str = DEFAULT_FOLD
    iterations: int = DEFAULT_ITERATIONS
    dist: str = DEFAULT_DISTANCE

    def __post_init__(self):
        _check_fold(self.fold)
        _check_distance(self.dist)
        if not (isinstance(self.iterations, int) and self.iterations >= 1):
            raise ConfigError("iterations must be an integer >= 1")


@dataclass(frozen=True)
class Prediction:
    """Score plus thresholded label; target iff score <= threshold."""

    score: float
    label: str
    threshold: float


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


def fold_apply(op: str, x) -> np.ndarray:
    """Apply the named fold element-wise to a finite vector or matrix."""
    _check_fold(op)
    a, single = _as_samples(x)
    out = _fold_matrix(op, a)
    return out[0] if single else out


def fit_standardizer(X) -> StandardizerStep:
    """Column means and sample standard deviations (N-1 divisor) of X.

    Degenerate dimensions (std zero or non-finite) get std 1. Requires at
    least two rows.
    """
    a, _ = _as_samples(X, "training data")
    if a.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 samples to fit a standardizer, got {a.shape[0]}"
        )
    return _fit_step(a)


def _fit_step(a: np.ndarray, scratch: np.ndarray | None = None) -> StandardizerStep:
    # scratch: optional buffer shaped like `a` for the squared deviations
    n = a.shape[0]
    mu = _column_totals(a) / n
    dev = np.subtract(a, mu, out=scratch)
    # squared deviations may overflow for extreme magnitudes; the resulting
    # non-finite std is sanitized to 1 just like the zero-variance case
    with np.errstate(over="ignore"):
        np.multiply(dev, dev, out=dev)
        sigma = np.sqrt(_column_totals(dev) / (n - 1))
    sigma = np.where(~np.isfinite(sigma) | (sigma <= 0.0), 1.0, sigma)
    return StandardizerStep(mu=mu, sigma=sigma)


def apply_standardizer(x, step: StandardizerStep) -> np.ndarray:
    """Per-dimension (x - mu) / sigma."""
    a, single = _as_samples(x)
    if a.shape[1] != step.dim:
        raise ShapeError(f"sample has {a.shape[1]} dimensions, standardizer has {step.dim}")
    out = (a - step.mu) / step.sigma
    return out[0] if single else out


def train_ref(X, iterations: int = DEFAULT_ITERATIONS, fold: str = DEFAULT_FOLD) -> RefModel:
    """Fit the folding classifier on target-class rows.

    Standardizes X, then repeats fold-and-standardize for iterations-1 more
    rounds, recording each (mean, std) pair. The caller's X is not mutated.
    Work and memory are linear in N * D per iteration; the model itself
    stores only the J step vectors.
    """
    if not (isinstance(iterations, int) and iterations >= 1):
        raise ConfigError("iterations must be an integer >= 1")
    _check_fold(fold)
    z, _ = _as_samples(X, "training data")
    if z.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 training samples, got {z.shape[0]}"
        )
    # one C-ordered working copy and one scratch buffer, updated in place, so
    # no iteration allocates (N, D) temporaries and time stays linear in N
    # after the matrix outgrows the CPU cache
    z = z.copy()
    scratch = np.empty_like(z)
    steps = []
    for i in range(1, iterations + 1):
        if i > 1:
            z = _fold_matrix(fold, z, out=z)
            if not np.isfinite(z).all():
                raise NumericError(f"non-finite working values at iteration {i}")
        step = _fit_step(z, scratch)
        np.subtract(z, step.mu, out=z)
        np.divide(z, step.sigma, out=z)
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite working values at iteration {i}")
        steps.append(step)
    return RefModel(steps=tuple(steps), fold=fold)


def train_base(X) -> RefModel:
    """Baseline: one standardization, distance thresholding, no folding."""
    return train_ref(X, iterations=1, fold=DEFAULT_FOLD)


def transform_ref(y, model: RefModel) -> np.ndarray:
    """Replay the model's standardize/fold sequence on new samples.

    Accepts a single D-vector or an (M, D) matrix; the arithmetic per sample
    is identical to the training-time working copy, element for element.
    """
    a, single = _as_samples(y, "sample")
    if a.shape[1] != model.dim:
        raise ShapeError(f"sample has {a.shape[1]} dimensions, model has {model.dim}")
    # overflow to inf is a legitimate outcome for samples far outside the
    # training data (tiny stds amplify them every iteration); inf scores
    # simply classify as outliers
    with np.errstate(over="ignore"):
        for z in _replay(a, model):
            pass
    return z[0] if single else z


def _replay(a: np.ndarray, model: RefModel):
    """Yield the working matrix after each model step; callers set errstate.

    One C-ordered copy of `a` is updated in place (cos_abs alone allocates a
    new one), so no step allocates (M, D) temporaries and `a` itself is never
    written. Each step yields the same buffer: a caller must finish with it
    before advancing the generator, as transform_ref (which keeps the last)
    and learning_curve (which takes its distance at once) do.
    """
    z = np.array(a, dtype=np.float64, order="C")
    for i, step in enumerate(model.steps):
        if i > 0:
            z = _fold_matrix(model.fold, z, out=z)
        np.subtract(z, step.mu, out=z)
        np.divide(z, step.sigma, out=z)
        yield z


def distance_to_origin(z, dist: str = DEFAULT_DISTANCE) -> np.ndarray | float:
    """L1 or L2 norm of already-transformed samples, divided by the dimension.

    Accepts non-finite entries: a sample driven to infinity by an explosive
    fold (sqr on a far outlier) simply scores infinitely far out.
    """
    _check_distance(dist)
    a, single = _as_samples(z, "transformed sample", allow_nonfinite=True)
    d = a.shape[1]
    if dist == "l1":
        out = _running_total(np.abs(a), 1) / d
    else:
        with np.errstate(over="ignore"):  # inf in means inf out, by design
            out = np.sqrt(_running_total(a * a, 1)) / d
    return float(out[0]) if single else out


def score(y, model: RefModel, dist: str = DEFAULT_DISTANCE) -> np.ndarray | float:
    """Distance to the origin of the transformed sample(s); always >= 0."""
    _check_distance(dist)
    a, single = _as_samples(y, "sample")
    z = transform_ref(a, model)
    out = distance_to_origin(z, dist)
    return float(out[0]) if single else out


def classify(
    y,
    model: RefModel,
    dist: str = DEFAULT_DISTANCE,
    threshold: float = DEFAULT_THRESHOLD,
) -> Prediction:
    """Label one sample: target iff score <= threshold (inclusive)."""
    threshold = float(threshold)
    if not (threshold > 0.0):
        raise ConfigError(f"threshold must be > 0, got {threshold}")
    s = score(y, model, dist)
    if not np.isscalar(s):
        raise ShapeError("classify takes a single sample; use score() for batches")
    label = TARGET if s <= threshold else OUTLIER
    return Prediction(score=float(s), label=label, threshold=threshold)
