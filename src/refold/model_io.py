"""Model persistence: a versioned, line-oriented text format.

Values are written as 17-significant-digit decimals, which round-trip
64-bit floats exactly, so a reloaded model scores bit-identically and
re-serializing a parsed file reproduces it byte for byte. Header integers
are canonical for the same reason: ASCII decimal digits with no sign,
padding or leading zero. UTF-8, LF line endings.

Layout:

    refold-model-v1
    fold=abs
    iterations=J
    dim=D
    <J step lines: D mean values, then D std values, space-separated>

Step line i holds row i of the model's mu followed by row i of its sigma.
"""

from __future__ import annotations

import re

import numpy as np

from .core import RefModel
from .errors import ModelFormatError, RefoldError
from .textio import format_float, parse_float, read_text, write_text

FORMAT_VERSION = "refold-model-v1"

_CANONICAL_INT = re.compile(r"0|[1-9][0-9]*")


def serialize_model(model: RefModel) -> str:
    lines = [
        FORMAT_VERSION,
        f"fold={model.fold}",
        f"iterations={model.iterations}",
        f"dim={model.dim}",
    ]
    for mu, sigma in zip(model.mu, model.sigma):
        lines.append(" ".join(format_float(v) for v in (*mu, *sigma)))
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> RefModel:
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ModelFormatError("empty model file")
    if lines[0] != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format {lines[0]!r}; supported versions: {FORMAT_VERSION}"
        )
    if len(lines) < 4:
        raise ModelFormatError("truncated model file: header incomplete")
    fold = _header_value(lines[1], "fold")
    iterations = _int_header(lines[2], "iterations")
    dim = _int_header(lines[3], "dim")
    body = lines[4:]
    if len(body) != iterations:
        raise ModelFormatError(
            f"model file declares iterations={iterations} but holds {len(body)} step lines"
        )
    rows = []
    for i, line in enumerate(body, start=1):
        tokens = line.split()
        if len(tokens) != 2 * dim:
            raise ModelFormatError(
                f"step {i}: expected {2 * dim} values for dim={dim}, got {len(tokens)}"
            )
        try:
            rows.append([parse_float(t) for t in tokens])
        except ValueError as exc:
            raise ModelFormatError(f"step {i}: {exc}") from None
    # with no step lines dim was never checked, so it cannot size the array
    values = np.array(rows, dtype=np.float64).reshape(len(rows), 2 * dim if rows else 0)
    try:
        return RefModel(values[:, :dim], values[:, dim:], fold)
    except RefoldError as exc:
        raise ModelFormatError(str(exc)) from None


def _header_value(line: str, key: str) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise ModelFormatError(f"expected {key}=... header line, got {line!r}")
    return line[len(prefix):]


def _int_header(line: str, key: str) -> int:
    raw = _header_value(line, key)
    if _CANONICAL_INT.fullmatch(raw):
        try:
            return int(raw)
        except ValueError:  # past int()'s digit-count limit
            pass
    raise ModelFormatError(f"{key} header is not a canonical integer: {raw!r}")


def save_model(model: RefModel, path) -> None:
    write_text(path, serialize_model(model))


def load_model(path) -> RefModel:
    return parse_model(read_text(path, ModelFormatError))
