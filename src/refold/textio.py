"""UTF-8 text files with LF line endings; floats written at 17 significant
digits and read back under one strict token rule.

read_lines is the one reader: data, model and spec files are all opened,
decoded and split there. Failed reads and writes raise RefoldError
subclasses naming the path or stdout."""

from __future__ import annotations

import os
import sys
from itertools import islice

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


def read_lines(path, error: type[RefoldError], count: int):
    """The UTF-8 file's lines, universal newlines stripped, in lists of
    `count` lines plus the blank lines held back from the list before: a
    blank line waits for a later line, so trailing blank lines are dropped.

    A missing, unreadable or non-UTF-8 file raises `error`. A bad byte is
    named by its offset from the start of the file, or, on a pipe, which
    cannot tell its position, by no offset."""
    path = os.fspath(path)
    held: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                while lines := [line.rstrip("\n") for line in islice(fh, count)]:
                    lines = held + lines
                    end = len(lines)
                    while end and lines[end - 1] == "":
                        end -= 1
                    held = lines[end:]
                    if end:
                        yield lines[:end]
            except UnicodeDecodeError as exc:
                # exc.object is the decoder's input, which ends at the buffer's position
                try:
                    at = f" at byte {fh.buffer.tell() - len(exc.object) + exc.start}"
                except OSError:
                    at = ""
                raise error(f"{path}: not UTF-8 text ({exc.reason}{at}); "
                            "re-encode the file as UTF-8") from None
    except FileNotFoundError:
        raise error(f"file not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None


def read_text(path, error: type[RefoldError]) -> str:
    """The lines of read_lines joined by LF: no trailing blank lines."""
    return "\n".join(line for lines in read_lines(path, error, 8192) for line in lines)


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF line endings; failures raise OutputError."""
    path = os.fspath(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_stdout(*texts: str) -> None:
    """Write the texts in turn on stdout, then flush; failures raise
    OutputError."""
    if sys.stdout is None:  # the process started with file descriptor 1 closed
        raise OutputError("cannot write to stdout: it is closed")
    try:
        for text in texts:
            sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # text left in the buffer would fail again at exit: send it to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise OutputError(f"cannot write to stdout: {exc.strerror or exc}") from None
