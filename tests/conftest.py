"""Shared fixtures: repository paths, synthetic benchmark datasets, and a
fit_stack that records its fits' steps."""

import os
import warnings
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"


# hypothesis imports this module only to report a falsifying example. Its
# libcst import raises a DeprecationWarning (mypy_extensions.TypedDict), which
# the error filter below turns into an INTERNALERROR that ends the session
# before the example prints. Importing it once here keeps the report working.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_configure(config):
    # any warning fails the suite, so a numpy deprecation or an np.loadtxt
    # UserWarning cannot scroll by. Set here, not in pyproject.toml, whose
    # pytest options the perfbench tests share: they leak a subprocess pipe
    # and would fail on its ResourceWarning.
    config.addinivalue_line("filterwarnings", "error")


def needs_fork(test):
    """Skip the test where the parse's own rule forks no helper. refold is
    imported here, not at the top: test_properties runs a copy of this file
    where refold is not importable."""
    from refold.datasets import MAY_FORK

    return pytest.mark.skipif(not MAY_FORK,
                              reason="the parse forks no helper on this interpreter")(test)


def parse_on_cpus(monkeypatch, n):
    """Have the parse see n CPUs: on two, a file whose first chunk is full
    is parsed with a forked helper; on one, in this process alone."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers forked while the test runs."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def load_outcome(path, schema=None):
    """What load_dataset gives: the features' bits and labels, or the error."""
    from refold.datasets import load_dataset
    from refold.errors import ConfigError, DataFormatError

    try:
        ds = load_dataset(path, schema)
    except (DataFormatError, ConfigError) as exc:
        return type(exc), str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels, ds.class_names


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def data_dir() -> str:
    return str(DATA_DIR)


@pytest.fixture(scope="session")
def stack_steps():
    """fit_stack, also returning the steps that its blocks' _fit_block calls
    return: mu and sigma as (iterations, R, D) arrays, step i + 1 of fit r at
    [i, r]. Session-scoped, so that property tests may take it."""
    from unittest import mock

    import refold.core as core

    def run(X, fit, iterations, fold, rows, depths, dist):
        fit_block, steps = core._fit_block, []

        def recording(*args):
            steps.append(fit_block(*args))
            return steps[-1]

        with mock.patch.object(core, "_fit_block", recording):
            scores = core.fit_stack(X, fit, iterations, fold, rows, depths, dist)
        mu, sigma = (np.concatenate([step[k].reshape(iterations, -1, X.shape[1])
                                     for step in steps], axis=1) for k in (0, 1))
        return scores, mu, sigma

    return run


def write_synthetic_dataset(path, seed=0, n_inner=60, n_outer=40, d=3, radius=12.0):
    """Separable two-class file: 'inner' gaussian blob vs 'outer' shell."""
    rng = np.random.default_rng(seed)
    inner = rng.normal(size=(n_inner, d))
    outer = rng.normal(size=(n_outer, d))
    outer = radius * outer / np.linalg.norm(outer, axis=1, keepdims=True)
    lines = []
    for row in inner:
        lines.append(",".join(str(float(v)) for v in row) + ",inner")
    for row in outer:
        lines.append(",".join(str(float(v)) for v in row) + ",outer")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def synthetic_csv(tmp_path):
    return str(write_synthetic_dataset(tmp_path / "blob.csv"))
