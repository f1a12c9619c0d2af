"""UTF-8 text files with LF line endings; floats written at 17 significant
digits and read back under one strict token rule.

Read and write failures raise RefoldError subclasses that name the path."""

from __future__ import annotations

import os

from .errors import OutputError, RefoldError


def format_float(x: float) -> str:
    return "%.17g" % x


def parse_float(token: str) -> float:
    """float() on ASCII tokens without digit separators: "1_0" and "١٢"
    raise ValueError, where float() gives 10.0 and 12.0.

    Callers strip surrounding whitespace first, so padding (non-ASCII
    included) stays accepted."""
    if "_" in token or not token.isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def read_text(path, error: type[RefoldError]) -> str:
    """Whole UTF-8 file; an unreadable or non-UTF-8 file raises `error`."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start}); "
            "re-encode the file as UTF-8"
        ) from None
    except FileNotFoundError:
        raise error(f"file not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF line endings; failures raise OutputError."""
    path = os.fspath(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
