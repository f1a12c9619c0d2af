"""UTF-8 text files with LF line endings; floats written at 17 significant
digits, numbers read back under one strict token rule, and the value rule of
every numeric parameter.

read_lines is the one reader: data, model and spec files are all opened,
decoded and split there. Failed reads and writes raise RefoldError
subclasses naming the path or stdout. check(name, value) holds a parameter
to its rule and bounds in PARAMETERS; a count stops at COUNT_MAX."""

from __future__ import annotations

import os
import sys
from itertools import islice
from numbers import Integral, Real

from .errors import ConfigError, OutputError, RefoldError

# the largest count: below 2**30, so that an array sized by two counts holds
# fewer than 2**63 bytes of float64 and numpy raises MemoryError for it, where
# a larger one raises a raw ValueError
COUNT_MAX = 10**9
_SHOWN = {2**64 - 1: "2**64-1"}


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


def parse_int(token: str) -> int:
    """int() under parse_float's rule: "1_0" and "\u0665" raise ValueError,
    where int() gives 10 and 5."""
    if "_" in token or not token.isascii():
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def is_int(value) -> bool:
    """An int or numpy integer: a bool or a fraction would not read back."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def as_tuple(value) -> tuple | None:
    """An iterable's items as a tuple; None for a string or a non-iterable."""
    try:
        return None if isinstance(value, str) else tuple(value)
    except TypeError:
        return None


def check_int(name: str, value, low: int, high: int | None) -> None:
    """Reject a value that is_int rejects, or one outside low..high; high
    None: a count."""
    if not is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    top, shown = (COUNT_MAX, "10**9") if high is None else (high, _SHOWN.get(high, high))
    if not low <= value <= top:
        span = f">= {low}" if high is None and value < low else f"in {low}..{shown}"
        raise ConfigError(f"{name} must be {span}, got {value}")


def is_real(value) -> bool:
    """A real number of any numeric type, not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def check_real(name: str, value, low: float, high: float | None) -> None:
    """Reject a value that is not a real number (bools and strings included),
    or NaN, or one outside the open interval (low, high); high None: no bound."""
    if not is_real(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not (low < value and (high is None or value < high)):
        span = f"> {low}" if high is None else f"in ({low}, {high})"
        raise ConfigError(f"{name} must be {span}, got {value}")


# each named parameter's rule and bounds. A range set by a model or a spec
# (a truncation or scoring depth in 1..J, a repetition in 1..R) is passed to
# check_int at the call. derive_seed works mod 2**64: a larger seed aliases.
PARAMETERS = {
    "iterations": (check_int, 1, None),
    "repetitions": (check_int, 1, None),
    "cv_folds": (check_int, 2, None),
    "probe size": (check_int, 2, None),
    "probe dim": (check_int, 1, None),
    "repeats": (check_int, 1, None),
    "seed": (check_int, 0, 2**64 - 1),
    "threshold": (check_real, 0, None),
    "train_fraction": (check_real, 0, 1),
}


def check(name: str, value) -> None:
    """Hold value to the named parameter's rule and bounds: else a ConfigError."""
    rule, low, high = PARAMETERS[name]
    rule(name, value, low, high)


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
                    lines[:0] = held
                    end = len(lines)
                    while end and lines[end - 1] == "":
                        end -= 1
                    held = lines[end:]
                    del lines[end:]
                    if lines:
                        yield lines
                    # dropped before the next list is read: one chunk's text is alive
                    del lines
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
