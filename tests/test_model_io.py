"""Tests for the text model format: round-trips, canonical form, errors."""

import numpy as np
import pytest

from refold.core import FOLD_OPS, score, train_ref
from refold.errors import ModelFormatError
from refold.model_io import (
    FORMAT_VERSION,
    load_model,
    parse_model,
    save_model,
    serialize_model,
)


def test_roundtrip_hand_derived_model(tmp_path):
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=2, fold="abs")
    path = tmp_path / "m.refold"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.fold == "abs"
    assert loaded.iterations == 2
    for a, b in zip(model.steps, loaded.steps):
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.sigma, b.sigma)


def test_roundtrip_scores_bit_identical(tmp_path):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(25, 6))
    Y = rng.normal(size=(40, 6))
    for op in FOLD_OPS:
        model = train_ref(X, iterations=17, fold=op)
        path = tmp_path / f"{op}.refold"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(score(Y, model, "l1"), score(Y, loaded, "l1"))
        np.testing.assert_array_equal(score(Y, model, "l2"), score(Y, loaded, "l2"))


def test_serialize_parse_serialize_byte_identical():
    rng = np.random.default_rng(19)
    model = train_ref(rng.normal(size=(12, 3)) * 100, iterations=5, fold="sin")
    text = serialize_model(model)
    assert serialize_model(parse_model(text)) == text


def test_format_layout():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=2)
    lines = serialize_model(model).splitlines()
    assert lines[0] == FORMAT_VERSION
    assert lines[1] == "fold=abs"
    assert lines[2] == "iterations=2"
    assert lines[3] == "dim=1"
    assert len(lines) == 6
    assert lines[4].split() == ["0", "1"]
    # 2/3 and sqrt(1/3) at 17 significant digits, exactly as the two-pass
    # left-to-right computation rounds them (confirmed against the oracle)
    assert lines[5].split() == ["0.66666666666666663", "0.57735026918962584"]


def test_step_count_mismatch_rejected():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=3)
    lines = serialize_model(model).splitlines()
    broken = "\n".join(lines[:-1]) + "\n"  # drop one step line
    with pytest.raises(ModelFormatError, match="3 .*holds 2|holds 2"):
        parse_model(broken)


def test_unknown_version_rejected():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    text = serialize_model(model).replace(FORMAT_VERSION, "refold-model-v99")
    with pytest.raises(ModelFormatError, match="refold-model-v99.*refold-model-v1"):
        parse_model(text)


def test_dim_inconsistency_rejected():
    model = train_ref([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], iterations=1)
    text = serialize_model(model).replace("dim=2", "dim=3")
    with pytest.raises(ModelFormatError, match="step 1"):
        parse_model(text)


def test_truncated_file_rejected():
    with pytest.raises(ModelFormatError):
        parse_model(FORMAT_VERSION + "\nfold=abs\n")
    with pytest.raises(ModelFormatError):
        parse_model("")


def test_garbage_value_rejected():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    text = serialize_model(model).replace("0 1", "0 banana")
    with pytest.raises(ModelFormatError, match="step 1"):
        parse_model(text)


def test_digit_separator_rejected():
    # float() would read "1_0" as 10, and the file would not re-serialize as read
    text = FORMAT_VERSION + "\nfold=abs\niterations=2\ndim=1\n0 1\n1_0 2\n"
    with pytest.raises(ModelFormatError, match="step 2: .*'1_0'"):
        parse_model(text)


def test_non_ascii_digits_rejected():
    # float() would read Arabic-Indic "١" as 1 and fullwidth "２" as 2
    text = FORMAT_VERSION + "\nfold=abs\niterations=1\ndim=1\n\u0661 \uff12\n"
    with pytest.raises(ModelFormatError, match="step 1: .*'\u0661'"):
        parse_model(text)


def test_nonpositive_sigma_rejected():
    text = FORMAT_VERSION + "\nfold=abs\niterations=1\ndim=1\n0 0\n"
    with pytest.raises(ModelFormatError, match="step 1"):
        parse_model(text)


def test_missing_file():
    with pytest.raises(ModelFormatError, match="not found"):
        load_model("/nonexistent/model.refold")


def test_fuzzed_corruption_always_clean_error():
    # arbitrary corruption must surface as ModelFormatError, never as an
    # unrelated exception or a silently wrong model
    rng = np.random.default_rng(31)
    base = serialize_model(train_ref(rng.normal(size=(10, 3)), iterations=4))
    for _ in range(300):
        text = base
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.integers(4)
            if kind == 0 and len(text) > 2:  # truncate
                text = text[: int(rng.integers(1, len(text)))]
            elif kind == 1:  # corrupt one character
                i = int(rng.integers(len(text)))
                text = text[:i] + chr(int(rng.integers(33, 127))) + text[i + 1:]
            elif kind == 2:  # drop a line
                lines = text.split("\n")
                del lines[int(rng.integers(len(lines)))]
                text = "\n".join(lines)
            else:  # duplicate a line
                lines = text.split("\n")
                i = int(rng.integers(len(lines)))
                lines.insert(i, lines[i])
                text = "\n".join(lines)
        try:
            model = parse_model(text)
        except ModelFormatError:
            continue
        # the rare mutation that still parses must yield a usable model
        assert model.dim >= 1 and model.iterations >= 1


def test_many_random_models_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    for i in range(25):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 9))
        j = int(rng.integers(1, 12))
        op = FOLD_OPS[int(rng.integers(len(FOLD_OPS)))]
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.01, 100))
        model = train_ref(X, iterations=j, fold=op)
        path = tmp_path / f"m{i}.refold"
        save_model(model, path)
        loaded = load_model(path)
        y = rng.normal(size=d)
        assert score(y, model) == score(y, loaded)
