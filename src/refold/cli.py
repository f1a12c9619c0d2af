"""Command-line interface: train, predict, eval, bench, curve, probe.

Flag defaults mirror the classifier defaults (fold=abs, dist=l1, iters=101,
threshold=1.0), so `refold train` followed by `refold predict` with no other
tuning runs the default configuration. Scores print at full precision so
downstream tools can re-threshold without re-scoring. All diagnostics go to
stderr; the exit status is 0 only on full success.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import closing

import numpy as np

from .bench import learning_curve, read_bench_spec, run_benchmark, timing_probe
from .core import (
    DEFAULT_DISTANCE,
    DEFAULT_FOLD,
    DEFAULT_ITERATIONS,
    DEFAULT_THRESHOLD,
    DISTANCES,
    FOLD_OPS,
    TARGET,
    OUTLIER,
    score,
    train_ref,
)
from .datasets import (
    DATA_DIR_ENV,
    DatasetSchema,
    check_class,
    load_dataset,
    read_chunks,
    resolve_data_dir,
)
from .errors import ConfigError, RefoldError
from .evaluation import confusion_counts, gmeans
from .model_io import load_model, save_model
from .textio import check, parse_float, parse_int, write_stdout, write_text


def _add_schema_flags(parser, label_default: str):
    parser.add_argument("--delimiter", default=",", help="field delimiter")
    parser.add_argument(
        "--header", action="store_true", default=False,
        help="first line is a header row",
    )
    parser.add_argument(
        "--label-column", default=label_default,
        help="label column: 'first', 'last', 'none', a 0-based index, "
        "or a header name",
    )
    parser.add_argument(
        "--drop-columns", default="",
        help="comma-separated raw column indices to exclude from features",
    )


def _parse_label_column(value: str):
    v = value.strip()
    if v == "first":
        return 0
    if v == "last":
        return -1
    if v == "none":
        return None
    try:
        return parse_int(v)
    except ValueError:
        return v


def _parse_ints(value: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(parse_int(c) for c in value.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{flag} must be integers, got {value!r}") from None


def _flag_number(parse, name: str):
    """argparse type reading a flag's number by the token rule of spec, data
    and model files; named as the builtin in argparse's usage error."""
    def convert(token: str):
        return parse(token.strip())
    convert.__name__ = name
    return convert


_int = _flag_number(parse_int, "int")
_float = _flag_number(parse_float, "float")


def _schema(args, labeled: bool = True) -> DatasetSchema:
    label = _parse_label_column(args.label_column)
    if labeled and label is None:
        raise ConfigError("this command needs a label column; got --label-column none")
    return DatasetSchema(
        delimiter=args.delimiter,
        label_column=label,
        drop_columns=_parse_ints(args.drop_columns, "--drop-columns"),
        header=args.header,
    )


def _cmd_train(args) -> int:
    # only the target rows of each chunk are kept: the other classes' rows
    # are never held beside them, and the fit works in place on the kept
    # rows, which load_dataset returns writable
    ds = load_dataset(args.data, _schema(args), target_class=args.target_class)
    model = train_ref(ds.features, iterations=args.iters, fold=args.fold, overwrite=True)
    save_model(model, args.out)
    write_stdout(f"J={model.iterations} D={model.dim} N={ds.n_samples}\n")
    return 0


def _cmd_predict(args) -> int:
    threshold = args.threshold
    check("threshold", threshold)
    model = load_model(args.model)
    # one chunk is scored at a time; its lines are written only once the
    # last chunk has parsed, so a failing command prints nothing
    texts, row = [], 0
    with closing(read_chunks(args.data, _schema(args, labeled=False))) as chunks:
        for X, _ in chunks:
            scores = score(X, model, args.dist).tolist()
            texts.append("".join(
                "%d %.17g %s\n" % (i, s, TARGET if s <= threshold else OUTLIER)
                for i, s in enumerate(scores, start=row)
            ))
            row += len(scores)
    write_stdout(*texts)
    return 0


def _cmd_eval(args) -> int:
    check("threshold", args.threshold)
    model = load_model(args.model)
    target = args.target_class
    # integer counts, summed chunk by chunk, are exact
    counts, classes = 0, {}
    with closing(read_chunks(args.data, _schema(args))) as chunks:
        for X, labels in chunks:
            classes.update(dict.fromkeys(labels))
            flags = np.array([lab == target for lab in labels], dtype=bool)
            counts = counts + confusion_counts(score(X, model, args.dist) <= args.threshold,
                                               flags)
    check_class(target, tuple(classes))
    tpr, tnr, g = gmeans(counts)
    write_stdout(
        "tp=%d fn=%d tn=%d fp=%d tpr=%.17g tnr=%.17g gmean=%.17g\n"
        % (*counts.tolist(), tpr, tnr, g)
    )
    return 0


def _cmd_bench(args) -> int:
    spec = read_bench_spec(args.spec)
    report = run_benchmark(spec, data_dir=args.data_dir)
    out = args.out or args.spec + ".report.csv"
    write_text(out, report.text())
    write_stdout(out + "\n")
    return 0


def _cmd_curve(args) -> int:
    spec = read_bench_spec(args.spec)
    curve = learning_curve(spec, args.task, args.rep, data_dir=args.data_dir)
    out = args.out or f"{args.spec}.{args.task}.rep{args.rep}.curve.csv"
    write_text(out, curve.text())
    write_stdout(out + "\n")
    return 0


def _cmd_probe(args) -> int:
    sizes = _parse_ints(args.sizes, "--sizes")
    report = timing_probe(
        sizes, dim=args.dim, iterations=args.iters, seed=args.seed,
        repeats=args.repeats,
    )
    write_text(args.out, report.text())
    write_stdout(args.out + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refold",
        description="One-class classification by repeated element-wise folding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("train", help="fit a model on target-class rows",
                       formatter_class=fmt)
    p.add_argument("--data", required=True, help="delimited text dataset")
    _add_schema_flags(p, label_default="last")
    p.add_argument("--target-class", default=None,
                   help="fit only rows of this class (default: all rows)")
    p.add_argument("--fold", default=DEFAULT_FOLD, choices=FOLD_OPS,
                   help="element-wise folding operation")
    p.add_argument("--iters", type=_int, default=DEFAULT_ITERATIONS,
                   help="number of standardize/fold iterations")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score rows and print labels",
                       formatter_class=fmt)
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="delimited text data")
    _add_schema_flags(p, label_default="none")
    p.add_argument("--dist", default=DEFAULT_DISTANCE, choices=DISTANCES,
                   help="distance metric (norm divided by dimension count)")
    p.add_argument("--threshold", type=_float, default=DEFAULT_THRESHOLD,
                   help="accept as target iff score <= threshold")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="confusion counts and Gmean on labeled data",
                       formatter_class=fmt)
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="delimited text dataset")
    _add_schema_flags(p, label_default="last")
    p.add_argument("--target-class", required=True, help="positive class label")
    p.add_argument("--dist", default=DEFAULT_DISTANCE, choices=DISTANCES,
                   help="distance metric")
    p.add_argument("--threshold", type=_float, default=DEFAULT_THRESHOLD,
                   help="accept as target iff score <= threshold")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="run a benchmark spec and write the report",
                       formatter_class=fmt)
    p.add_argument("--spec", required=True, help="benchmark spec file")
    p.add_argument("--data-dir", default=resolve_data_dir(),
                   help=f"dataset directory (or set ${DATA_DIR_ENV})")
    p.add_argument("--out", default=None,
                   help="report path (default: <spec>.report.csv)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("curve", help="per-iteration Gmean curve for one task",
                       formatter_class=fmt)
    p.add_argument("--spec", required=True, help="benchmark spec file (fixed threshold)")
    p.add_argument("--task", required=True, help="task name, e.g. Iris2")
    p.add_argument("--rep", type=_int, required=True, help="repetition, 1-based")
    p.add_argument("--data-dir", default=resolve_data_dir(),
                   help=f"dataset directory (or set ${DATA_DIR_ENV})")
    p.add_argument("--out", default=None,
                   help="curve path (default: <spec>.<task>.rep<rep>.curve.csv)")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("probe", help="train-time scaling probe on synthetic data",
                       formatter_class=fmt)
    p.add_argument("--sizes", required=True,
                   help="comma-separated sample counts, e.g. 10000,20000,40000")
    p.add_argument("--dim", type=_int, default=20, help="feature dimensions")
    p.add_argument("--iters", type=_int, default=DEFAULT_ITERATIONS,
                   help="training iterations")
    p.add_argument("--seed", type=_int, default=0, help="synthetic data seed")
    p.add_argument("--repeats", type=_int, default=3,
                   help="timed repeats per size (median is reported)")
    p.add_argument("--out", default="timing-probe.csv", help="probe report path")
    p.set_defaults(func=_cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning prints as one refold line, no source; under -W error it is the error line
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"refold: warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (RefoldError, MemoryError, Warning) as exc:
            # numpy raises a private MemoryError subclass; the line names the builtin
            kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
            print(f"refold: error: {kind}: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:  # 128 + SIGINT, as shells report an interrupted command
            print("refold: error: KeyboardInterrupt: interrupted", file=sys.stderr)
            return 130


if __name__ == "__main__":
    sys.exit(main())
