"""Layer tracing for the refold benchmark.

Run as a script, this executes one refold command in-process through
``refold.cli.main(argv)`` with a span around every call of the layer
functions in TRACED, and writes the spans as JSON once the command ends:

    python3 perfbench/tracer.py SPANS.json train --data rows.csv ...

The program is not edited. Each traced function is replaced at every
attribute of every loaded refold module that holds it, so a call is recorded
whichever import site it goes through: ``refold.cli.score``,
``refold.bench.make_split_plan``, or ``refold.core.transform_ref`` as looked
up by ``score``. A function that no longer exists is skipped, and its metrics
read 0.

Imported as a module (the benchmark runner does this), it only turns span
files into per-layer totals and metrics; it does not import refold then.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

TRACED = (
    ("refold.datasets", "load_dataset"),
    ("refold.datasets", "load_feature_matrix"),
    ("refold.core", "train_ref"),
    ("refold.core", "score"),
    ("refold.core", "transform_ref"),
    ("refold.core", "distance_to_origin"),
    ("refold.evaluation", "make_split_plan"),
    ("refold.evaluation", "select_threshold"),
    ("refold.evaluation", "kfold"),
    ("refold.evaluation", "confusion_from_scores"),
    ("refold.model_io", "save_model"),
    ("refold.model_io", "load_model"),
    ("refold.bench", "run_benchmark"),
)

# Work done by one call, read from its arguments and result after the span
# has closed: rows fitted, cells parsed, splits built.
WORK = {
    "core.train_ref": lambda args, result: len(args[0]),
    "datasets.load_dataset": lambda args, result: result.features.size + len(result.labels),
    "datasets.load_feature_matrix": lambda args, result: result.size,
    "evaluation.make_split_plan": lambda args, result: len(result.splits),
}

SHUFFLES = "rng.shuffles"


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {SHUFFLES: 0}
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function at every refold attribute holding it."""
        wrappers = {}
        for module_name, attr in TRACED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is not None:
                layer = module_name.rsplit(".", 1)[-1]
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != "refold" and not name.startswith("refold."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        self._count_shuffles()

    def _count_shuffles(self) -> None:
        rng = sys.modules.get("refold.rng")
        cls = getattr(rng, "SplitMix64", None)
        original = getattr(cls, "shuffle", None)
        if original is None:
            return
        counts = self.counts

        def shuffle(self, items):
            counts[SHUFFLES] += 1
            return original(self, items)

        cls.shuffle = shuffle


def run_traced(spans_path: str, argv: list[str]) -> int:
    import refold.cli

    tracer = Tracer()
    tracer.install()
    root = tracer.wrap("cli." + argv[0], refold.cli.main)
    try:
        return root(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


# ------------------------------------------------------------ aggregation

def layer_totals(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and work.

    Self time is a span's duration less the time its child spans cover;
    spans of one thread nest, so the children's durations are that time.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, work in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - covered[i]
        t["work"] += work
    for name, count in trace["counts"].items():
        totals[name] = {"calls": count, "s": 0.0, "self_s": 0.0, "work": 0}
    return totals


def root_seconds(trace: dict) -> float:
    return sum(end - start for _, start, end, parent, _ in trace["spans"] if parent < 0)


def merge_totals(parts) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for totals in parts:
        for name, t in totals.items():
            m = merged.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            for key, value in t.items():
                m[key] += value
    return merged


def _stat(span: str, key: str):
    return lambda totals, ctx: totals.get(span, {}).get(key, 0)


def _work(*spans: str):
    return lambda totals, ctx: sum(totals.get(s, {}).get("work", 0) for s in spans)


def _context(key: str, command: str | None = None):
    if command is None:
        return lambda totals, ctx: ctx[key]
    return lambda totals, ctx: ctx[key].get(command, 0.0)


def _split_use_ratio(totals, ctx):
    built = totals.get("evaluation.make_split_plan", {}).get("work", 0)
    return ctx["splits_used"] / built if built else 0.0


# (metric name, unit, value from one pass's merged span totals and the
# runner's context). `.s` is inclusive time in the layer and `.self_s`
# excludes traced children; `.wall_s` and `.rss_mb` come from the untraced
# run of the same command, and trace.overhead_s is traced minus untraced
# wall time of the whole pass; pass_s is the untraced pass's wall time.
PER_LAYER = (
    ("datasets.load_dataset.s", "s", _stat("datasets.load_dataset", "s")),
    ("datasets.load_feature_matrix.s", "s", _stat("datasets.load_feature_matrix", "s")),
    ("datasets.cells", "count", _work("datasets.load_dataset", "datasets.load_feature_matrix")),
    ("core.train_ref.s", "s", _stat("core.train_ref", "s")),
    ("core.train_ref.calls", "count", _stat("core.train_ref", "calls")),
    ("core.train_ref.rows", "count", _work("core.train_ref")),
    ("core.transform_ref.s", "s", _stat("core.transform_ref", "s")),
    ("core.distance_to_origin.s", "s", _stat("core.distance_to_origin", "s")),
    ("core.score.s", "s", _stat("core.score", "s")),
    ("core.score.calls", "count", _stat("core.score", "calls")),
    ("evaluation.make_split_plan.s", "s", _stat("evaluation.make_split_plan", "s")),
    ("evaluation.make_split_plan.calls", "count", _stat("evaluation.make_split_plan", "calls")),
    ("evaluation.split_use_ratio", "ratio", _split_use_ratio),
    (SHUFFLES, "count", _stat(SHUFFLES, "calls")),
    ("evaluation.select_threshold.s", "s", _stat("evaluation.select_threshold", "s")),
    ("evaluation.select_threshold.calls", "count", _stat("evaluation.select_threshold", "calls")),
    ("evaluation.kfold.s", "s", _stat("evaluation.kfold", "s")),
    ("evaluation.confusion_from_scores.s", "s", _stat("evaluation.confusion_from_scores", "s")),
    ("evaluation.confusion_from_scores.calls", "count",
        _stat("evaluation.confusion_from_scores", "calls")),
    ("model_io.save_model.s", "s", _stat("model_io.save_model", "s")),
    ("model_io.load_model.s", "s", _stat("model_io.load_model", "s")),
    ("cli.train.self_s", "s", _stat("cli.train", "self_s")),
    ("cli.predict.self_s", "s", _stat("cli.predict", "self_s")),
    ("cli.bench.self_s", "s", _stat("cli.bench", "self_s")),
    ("bench.run_benchmark.self_s", "s", _stat("bench.run_benchmark", "self_s")),
    ("cli.train.wall_s", "s", _context("wall_s", "train")),
    ("cli.predict.wall_s", "s", _context("wall_s", "predict")),
    ("cli.bench.wall_s", "s", _context("wall_s", "bench")),
    ("cli.train.rss_mb", "MB", _context("rss_mb", "train")),
    ("cli.predict.rss_mb", "MB", _context("rss_mb", "predict")),
    ("cli.bench.rss_mb", "MB", _context("rss_mb", "bench")),
    ("trace.overhead_s", "s", _context("overhead_s")),
    ("pass_s", "s", _context("pass_s")),
)


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1], sys.argv[2:]))
