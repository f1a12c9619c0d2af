"""Model persistence: a versioned, line-oriented text format.

Values are written as 17-significant-digit decimals, which round-trip
64-bit floats exactly, so a reloaded model scores bit-identically and
re-serializing a parsed file reproduces it byte for byte. UTF-8, LF line
endings.

Layout:

    refold-model-v1
    fold=abs
    iterations=J
    dim=D
    <J step lines: D mean values, then D std values, space-separated>
"""

from __future__ import annotations

from .core import RefModel, StandardizerStep
from .errors import ModelFormatError, RefoldError
from .textio import format_float, parse_float, read_text, write_text

FORMAT_VERSION = "refold-model-v1"


def serialize_model(model: RefModel) -> str:
    lines = [
        FORMAT_VERSION,
        f"fold={model.fold}",
        f"iterations={model.iterations}",
        f"dim={model.dim}",
    ]
    for step in model.steps:
        values = [format_float(v) for v in step.mu] + [format_float(v) for v in step.sigma]
        lines.append(" ".join(values))
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
    steps = []
    for i, line in enumerate(body, start=1):
        tokens = line.split()
        if len(tokens) != 2 * dim:
            raise ModelFormatError(
                f"step {i}: expected {2 * dim} values for dim={dim}, got {len(tokens)}"
            )
        try:
            values = [parse_float(t) for t in tokens]
        except ValueError as exc:
            raise ModelFormatError(f"step {i}: {exc}") from None
        try:
            steps.append(StandardizerStep(mu=values[:dim], sigma=values[dim:]))
        except RefoldError as exc:
            raise ModelFormatError(f"step {i}: {exc}") from None
    try:
        return RefModel(steps=tuple(steps), fold=fold)
    except RefoldError as exc:
        raise ModelFormatError(str(exc)) from None


def _header_value(line: str, key: str) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise ModelFormatError(f"expected {key}=... header line, got {line!r}")
    return line[len(prefix):]


def _int_header(line: str, key: str) -> int:
    raw = _header_value(line, key)
    try:
        return int(raw)
    except ValueError:
        raise ModelFormatError(f"{key} header is not an integer: {raw!r}") from None


def save_model(model: RefModel, path) -> None:
    write_text(path, serialize_model(model))


def load_model(path) -> RefModel:
    return parse_model(read_text(path, ModelFormatError))
