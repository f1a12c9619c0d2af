"""Shared fixtures: repository paths and synthetic benchmark datasets."""

from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"


def pytest_configure(config):
    # any warning fails the suite, so a numpy deprecation or an np.loadtxt
    # UserWarning cannot scroll by. Set here, not in pyproject.toml, whose
    # pytest options the perfbench tests share: they leak a subprocess pipe
    # and would fail on its ResourceWarning.
    config.addinivalue_line("filterwarnings", "error")


@pytest.fixture(scope="session")
def data_dir() -> str:
    return str(DATA_DIR)


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
