"""Task construction, splitting, metrics, and threshold selection.

One one-class task is built per class of a labeled dataset: that class is
the target, everything else counts as outliers. Tasks are evaluated over
seeded, stratified 70/30 train/test splits repeated several times, reporting
Gmean = sqrt(TPR * TNR). When outlier rows are present in the training pool
they are never used to fit the classifier, only to pick the decision
threshold by k-fold cross-validation over a fixed candidate grid.

Metrics run on count arrays: confusion_counts gives (tp, fn, tn, fp) along a
mask's last axis and gmeans holds the one Gmean rule, exact below 2**53.
select_thresholds is the one threshold-selection entry: it cross-validates
any number of training pools, and a single pool is the one-element case. It
takes the classifier's settings as keywords with train_ref's defaults.

All randomness flows through the splitmix64 helpers in refold.rng, so every
split is a pure function of (inputs, seed). Planning is batched: the split
plans of all repetitions, and the CV folds of all pools of one length, are
each drawn by one vectorized shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (DEFAULT_DISTANCE, DEFAULT_FOLD, DEFAULT_ITERATIONS, _check_rows,
                   check_settings, fit_stack)
from .errors import ConfigError, EvaluationError, SelectionError
from .rng import SplitMix64, derive_seed
from .textio import as_tuple, check, is_real

DEFAULT_TRAIN_FRACTION = 0.7
DEFAULT_REPETITIONS = 5
DEFAULT_CV_FOLDS = 5
DEFAULT_THRESHOLD_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1)


@dataclass(frozen=True)
class OccTask:
    """One target class of one dataset, e.g. Iris2 = Versicolor vs rest."""

    dataset_name: str
    target_class: str
    name: str


@dataclass(frozen=True)
class SplitPlan:
    """Seeded train/test index splits, one pair per repetition.

    Stratified: the train fraction applies within the target class and
    within the outlier pool separately, sized by floor(fraction * n), so
    every repetition has the same sizes. Repetition r uses the stream seeded
    with split_seeds[r] = derive_seed(seed, r); targets are shuffled first,
    then outliers, on that single stream. train and test are read-only
    (repetitions, n) arrays of sorted row indices; splits views them as
    (train, test) tuples. Plans compare by value.
    """

    seed: int
    train_fraction: float
    repetitions: int
    split_seeds: tuple[int, ...]
    train: np.ndarray
    test: np.ndarray

    def _key(self):
        return self.seed, self.train_fraction, self.repetitions, self.split_seeds

    def __eq__(self, other):
        if not isinstance(other, SplitPlan):
            return NotImplemented
        return (self._key() == other._key() and np.array_equal(self.train, other.train)
                and np.array_equal(self.test, other.test))

    def __hash__(self):
        return hash(self._key())

    @property
    def splits(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        return tuple(zip(map(tuple, self.train.tolist()), map(tuple, self.test.tolist())))


def make_occ_tasks(dataset) -> list[OccTask]:
    """One task per class, in order of first appearance in the dataset."""
    classes = list(dataset.class_names)
    if len(classes) < 2:
        raise ConfigError(
            f"dataset {dataset.name!r} has {len(classes)} class(es); "
            "one-class tasks need at least 2"
        )
    prefix = dataset.task_prefix
    return [
        OccTask(dataset_name=dataset.name, target_class=c, name=f"{prefix}{i + 1}")
        for i, c in enumerate(classes)
    ]


def make_split_plan(
    labels: Sequence[str],
    target_class: str,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
) -> SplitPlan:
    """Stratified train/test index splits for one task.

    Planning is batched: the targets of all repetitions are shuffled in one
    SplitMix64.shuffle call, one stream per repetition, and then the
    outliers in a second call on the same streams.
    """
    check("train_fraction", train_fraction)
    check("repetitions", repetitions)
    check("seed", seed)
    is_target = np.array([lab == target_class for lab in labels], dtype=bool)
    if not is_target.any():
        raise ConfigError(f"target class {target_class!r} has no samples")
    if is_target.all():
        raise ConfigError(f"no outlier samples besides class {target_class!r}")

    split_seeds = tuple(derive_seed(seed, rep) for rep in range(repetitions))
    rng = SplitMix64(split_seeds)
    tgt = rng.shuffle(np.tile(np.flatnonzero(is_target), (repetitions, 1)))
    out = rng.shuffle(np.tile(np.flatnonzero(~is_target), (repetitions, 1)))
    n_t = int(train_fraction * tgt.shape[1])
    n_o = int(train_fraction * out.shape[1])
    train = np.sort(np.concatenate([tgt[:, :n_t], out[:, :n_o]], axis=1), axis=1)
    test = np.sort(np.concatenate([tgt[:, n_t:], out[:, n_o:]], axis=1), axis=1)
    train.flags.writeable = test.flags.writeable = False
    return SplitPlan(
        seed=seed,
        train_fraction=train_fraction,
        repetitions=repetitions,
        split_seeds=split_seeds,
        train=train,
        test=test,
    )


def confusion_counts(accepted: np.ndarray, is_target: np.ndarray) -> np.ndarray:
    """Integer (..., 4) array of (tp, fn, tn, fp): the counts of an accepted
    mask along its last axis, against target flags that broadcast against
    the mask. Only tp and the accepted rows are counted; fn, tn and fp follow
    from the totals."""
    is_target = np.broadcast_to(is_target, accepted.shape)
    # add.reduce, not count_nonzero, which wraps it in Python when given an axis
    tp = np.add.reduce(accepted & is_target, axis=-1, dtype=np.intp)
    fp = np.add.reduce(accepted, axis=-1, dtype=np.intp) - tp
    pos = np.add.reduce(is_target, axis=-1, dtype=np.intp)
    return np.stack([tp, pos - tp, accepted.shape[-1] - pos - fp, fp], axis=-1)


def gmeans(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TPR, TNR and Gmean = sqrt(TPR * TNR) of every (tp, fn, tn, fp) row of
    counts; needs targets and outliers in every row."""
    tp, fn, tn, fp = np.moveaxis(counts, -1, 0)
    pos = tp + fn
    neg = tn + fp
    if not pos.all():
        raise EvaluationError("no target samples in the test set; Gmean undefined")
    if not neg.all():
        raise EvaluationError("no outlier samples in the test set; Gmean undefined")
    tpr = tp / pos
    tnr = tn / neg
    return tpr, tnr, np.sqrt(tpr * tnr)


def _kfolds(lengths, k: int, seeds) -> dict[int, list[tuple[np.ndarray, np.ndarray]]]:
    """Seeded k-fold (training, validation) positions for every pool p whose
    length lengths[p] is at least k (k >= 2), on stream seeds[p].

    The shuffled positions 0..n-1 are cut into k disjoint validation folds
    that cover them; fold sizes differ by at most one, and the first n mod k
    folds get one extra row. Planning is batched: the pools of one length
    are shuffled together, in one SplitMix64.shuffle call, and cut into
    folds by column slices.
    """
    by_length: dict[int, list[int]] = {}
    for p, n in enumerate(lengths):
        if 2 <= k <= n:
            by_length.setdefault(n, []).append(p)
    folds = {}
    for n, members in by_length.items():
        order = SplitMix64([seeds[p] for p in members]).shuffle(
            np.tile(np.arange(n), (len(members), 1)))
        base, extra = divmod(n, k)
        ends = np.cumsum([base + (f < extra) for f in range(k)]).tolist()
        cuts = [(np.concatenate([order[:, :a], order[:, b:]], axis=1), order[:, a:b])
                for a, b in zip([0] + ends, ends)]
        for row, p in enumerate(members):
            folds[p] = [(train[row], val[row]) for train, val in cuts]
    return folds


def check_grid(grid: Sequence[float]) -> tuple[float, ...]:
    """Thresholds as floats: a sequence of numbers, not a string, that is
    non-empty, positive, strictly increasing and free of NaN."""
    values = as_tuple(grid)
    if values is None or not all(map(is_real, values)):
        raise ConfigError(f"threshold grid must be a sequence of numbers, got {grid!r}")
    grid = tuple(map(float, values))
    # all(t > 0), not any(t <= 0): every comparison with NaN is false
    if not (grid and all(t > 0 for t in grid) and all(b > a for a, b in zip(grid, grid[1:]))):
        raise ConfigError("threshold grid must be strictly increasing and positive")
    return grid


def _cv_plan(pools, is_target, k: int, seeds) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(pool p, fit rows, validation rows) of every CV fold of each pool
    pools[p] of row indices of is_target, on seed seeds[p], in pool and fold
    order: the fold's training targets (the only rows a model is fit on)
    and its validation rows.

    Folds whose validation rows hold a single class are skipped, since
    Gmean is undefined there. Raises ConfigError on a pool that is not
    integer rows of is_target, and SelectionError on a pool without both
    classes and on a fold with fewer than 2 training targets. Planning is
    batched: the folds of all pools are planned first, in one shuffle per
    distinct pool length, then checked pool by pool, so that the error
    raised is that of a loop over the pools. k and the seeds, which the
    planning itself would misread, are checked before it."""
    check("cv_folds", k)
    for seed in seeds:
        check("seed", seed)
    folds = _kfolds([len(pool) for pool in pools], k, seeds)
    plan = []
    for p, pool in enumerate(pools):
        pool = _check_rows(f"pools[{p}]", pool, len(is_target))
        flags = is_target[pool]
        if not flags.any():
            raise SelectionError("training pool has no target samples")
        if flags.all():
            raise SelectionError(
                "training pool has no outliers for validation; "
                "use the default threshold T=1 instead of grid selection"
            )
        if k > len(pool):
            raise ConfigError(f"cannot make {k} folds from {len(pool)} items")
        for fold_train, val in folds[p]:
            fit = fold_train[flags[fold_train]]
            if len(fit) < 2:
                raise SelectionError(
                    f"a CV fold has {len(fit)} target training rows; need >= 2"
                )
            val_flags = flags[val]
            if val_flags.all() or not val_flags.any():
                continue
            plan.append((p, pool[fit], pool[val]))
    return plan


def best_threshold(per_fold: list[list[float]], grid) -> float:
    """The grid threshold with the highest mean Gmean over the folds.

    Ties break toward the value closest to 1.0, then toward the larger value.
    """
    if not per_fold:
        raise SelectionError("no CV fold had both classes in its validation set")
    # Python's sum adds left to right; np.mean would reorder the additions
    means = [sum(col) / len(per_fold) for col in zip(*per_fold)]
    best = max(zip(grid, means), key=lambda tm: (tm[1], -abs(tm[0] - 1.0), tm[0]))
    return best[0]


def select_thresholds(features, pools, is_target, grid, k, seeds, *,
                      iterations: int = DEFAULT_ITERATIONS, fold: str = DEFAULT_FOLD,
                      dist: str = DEFAULT_DISTANCE) -> list[float]:
    """The decision threshold of each pool of row indices pools[r] of
    features, picked from grid by k-fold cross-validation on CV seed
    seeds[r], for the classifier of the given settings; is_target flags
    every row of features.

    Each fold's model is fit on the fold's training targets only; the
    fold's outliers serve purely for scoring the candidates. The pick is
    best_threshold's over the folds whose validation rows hold both
    classes. A pool must hold targets and outliers: without outliers there
    is nothing to validate against, and the caller should use the default
    threshold 1 instead.

    All folds are planned first, batched (one shuffle per distinct pool
    length), then fitted in one kernel call, each as a lone fit
    (core.fit_stack pads the folds to the most rows, and works in blocks
    under its memory budget). Settings that check_settings rejects, a grid
    that check_grid rejects, seeds not one per pool, or is_target not one
    boolean per row of features is a ConfigError, raised before any fold
    is planned."""
    check_settings(fold, iterations, dist)
    grid = check_grid(grid)
    if len(seeds) != len(pools):
        raise ConfigError(f"need one CV seed per pool: got {len(seeds)} for {len(pools)} pools")
    is_target = np.asarray(is_target)
    if is_target.dtype != bool or is_target.shape != (len(features),):
        raise ConfigError(f"is_target must hold one boolean per row of features, "
                          f"{len(features)} in all")
    folds = _cv_plan(pools, is_target, k, seeds)
    per_fold = [[] for _ in pools]
    if folds:
        thresholds = np.asarray(grid)[:, np.newaxis]
        owners, fits, vals = zip(*folds)
        scores = fit_stack(features, fits, iterations, fold, vals, (iterations,), dist)[iterations]
        # (folds, thresholds, validation rows) accepted mask -> folds x thresholds
        # Gmean table. Padding rows are neither accepted nor targets, so they
        # count only as true negatives, which are corrected for them.
        sizes = np.array([len(val) for val in vals])
        real = np.arange(scores.shape[1]) < sizes[:, np.newaxis]
        flags = np.zeros_like(real)
        flags[real] = is_target[np.concatenate(vals)]
        counts = confusion_counts((scores[:, np.newaxis] <= thresholds) & real[:, np.newaxis],
                                  flags[:, np.newaxis])
        counts[..., 2] -= (scores.shape[1] - sizes)[:, np.newaxis]
        _, _, table = gmeans(counts)
        for p, row in zip(owners, table.tolist()):
            per_fold[p].append(row)
    return [best_threshold(rows, grid) for rows in per_fold]
