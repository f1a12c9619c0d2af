"""Workloads of the refold benchmark: generated inputs, commands and checks.

Every input is made from the workload seed, and the program sees only the
generated files. The checks read outputs as text and do not pin today's
bits: predicted scores are replayed through the pure-Python oracle in
tests/oracle.py with the model file the same pass wrote, model files must
re-serialize byte for byte, and Iris reports must be internally consistent.
Whether outputs repeat exactly is left to the runner, which compares digests
across the passes of one run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THRESHOLD = 1.0
ITERATIONS = 101
GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1)
TRAIN_FRACTION = 0.7
MODEL_VERSION = "refold-model-v1"


@dataclass(frozen=True)
class Scale:
    """Input sizes and repeat counts; tests run the same code at toy sizes."""

    rows: int = 100_000  # cli-100k rows, half of them targets
    dim: int = 20
    fixed_reps: int = 100
    grid_reps: int = 20
    warmup_rows: int = 1_000
    oracle_rows: int = 16
    setup_samples: int = 7
    min_passes: int = 3


FULL = Scale()
TOY = Scale(rows=600, dim=5, fixed_reps=3, grid_reps=2, warmup_rows=100,
            oracle_rows=4, setup_samples=2, min_passes=1)


@dataclass(frozen=True)
class Command:
    """One refold invocation; `name` is its subcommand.

    With `script` set it runs that script of the benchmark's directory
    instead of refold.
    """

    name: str
    argv: tuple[str, ...]
    stdout: Path
    script: str | None = None


@dataclass
class Checked:
    """What a check found: problems, output digests and counted facts."""

    problems: list[str]
    digests: dict[str, str]
    facts: dict[str, int]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("refold_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_model_text(text: str):
    """(fold, mus, sigmas) from a refold-model-v1 file, or raise ValueError.

    The file must re-serialize byte for byte: every value is written as a
    17-significant-digit decimal, one step per line.
    """
    lines = text.split("\n")
    if len(lines) < 5 or lines[-1] != "" or lines[0] != MODEL_VERSION:
        raise ValueError("model file lacks the refold-model-v1 header or final newline")
    header = dict(line.partition("=")[::2] for line in lines[1:4])
    fold, iterations, dim = header.get("fold"), int(header["iterations"]), int(header["dim"])
    body = lines[4:-1]
    if len(body) != iterations:
        raise ValueError(f"iterations={iterations} but {len(body)} step lines")
    mus, sigmas = [], []
    for step, line in enumerate(body, start=1):
        values = [float(v) for v in line.split(" ")]
        if len(values) != 2 * dim:
            raise ValueError(f"step {step}: {len(values)} values for dim={dim}")
        if not all(math.isfinite(v) for v in values) or min(values[dim:]) <= 0:
            raise ValueError(f"step {step}: non-finite mean or non-positive std")
        mus.append(values[:dim])
        sigmas.append(values[dim:])
    reserialized = "\n".join(
        lines[:4] + [" ".join("%.17g" % v for v in m + s) for m, s in zip(mus, sigmas)]
    ) + "\n"
    if reserialized != text:
        raise ValueError("model file does not re-serialize byte-identically")
    return fold, mus, sigmas


class Workload:
    """Inputs in `work`, the commands of one pass, and their output checks."""

    def __init__(self, root: Path, work: Path, scale: Scale):
        self.root, self.work, self.scale = root, work, scale

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def warmup(self) -> Command:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def check(self, command: Command) -> Checked:
        raise NotImplementedError


class Cli100k(Workload):
    """`refold train --target-class` on labeled rows, then `refold predict`."""

    def prepare(self, seed: int) -> None:
        s = self.scale
        rng = np.random.default_rng(seed)
        center = rng.uniform(-5.0, 5.0, s.dim)
        spread = rng.uniform(0.5, 3.0, s.dim)
        X = center + spread * rng.standard_normal((s.rows, s.dim))
        is_target = np.zeros(s.rows, dtype=bool)
        is_target[rng.permutation(s.rows)[: s.rows // 2]] = True
        X[~is_target] = 1.5 * X[~is_target] + rng.uniform(-2.0, 2.0, s.dim)
        self.n_targets = int(is_target.sum())
        sample = rng.choice(s.rows, size=s.oracle_rows, replace=False)
        self.oracle_sample = {int(i): X[i].tolist() for i in sorted(sample)}

        fmt = ",".join(["%.17g"] * s.dim)
        rows = [fmt % tuple(r) for r in X.tolist()]
        labeled = [r + (",target\n" if t else ",other\n") for r, t in zip(rows, is_target)]
        self.labeled = self.work / "labeled.csv"
        self.unlabeled = self.work / "unlabeled.csv"
        self.warm = self.work / "warmup.csv"
        self.model = self.work / "model.refold"
        self.labeled.write_text("".join(labeled), encoding="utf-8")
        self.unlabeled.write_text("\n".join(rows) + "\n", encoding="utf-8")
        self.warm.write_text("".join(labeled[: s.warmup_rows]), encoding="utf-8")
        self.oracle = load_oracle(self.root)
        self._models: dict[str, tuple] = {}

    def _train(self, data: Path, out: Path) -> Command:
        return Command("train", ("train", "--data", str(data), "--target-class", "target",
                                 "--out", str(out)), self.work / "train.out")

    def warmup(self) -> Command:
        return self._train(self.warm, self.work / "warmup.refold")

    def commands(self) -> list[Command]:
        predict = ("predict", "--model", str(self.model), "--data", str(self.unlabeled))
        return [self._train(self.labeled, self.model),
                Command("predict", predict, self.work / "predict.out")]

    def check(self, command: Command) -> Checked:
        if command.name == "train":
            return self._check_train(command)
        return self._check_predict(command)

    def _model(self):
        text = self.model.read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest not in self._models:
            self._models[digest] = parse_model_text(text)
        return digest, self._models[digest]

    def _check_train(self, command: Command) -> Checked:
        problems = []
        out = command.stdout.read_text(encoding="utf-8").split()
        want = [f"J={ITERATIONS}", f"D={self.scale.dim}", f"N={self.n_targets}"]
        if out != want:
            problems.append(f"train printed {out}, expected {want}")
        digest, (fold, mus, sigmas) = self._model()
        if fold != "abs" or len(mus) != ITERATIONS or len(mus[0]) != self.scale.dim:
            problems.append(f"model is fold={fold} J={len(mus)} D={len(mus[0])}")
        return Checked(problems, {"model": digest}, {})

    def _check_predict(self, command: Command) -> Checked:
        _, (fold, mus, sigmas) = self._model()
        lines = command.stdout.read_text(encoding="utf-8").split("\n")
        if lines[-1] != "" or len(lines) - 1 != self.scale.rows:
            return Checked([f"{len(lines) - 1} output lines for {self.scale.rows} rows"], {}, {})
        problems = []
        for i, line in enumerate(lines[:-1]):
            index, score, label = line.split(" ")
            if index != str(i) or label != ("target" if float(score) <= THRESHOLD
                                            else "outlier"):
                problems.append(f"line {i + 1} is misnumbered or mislabeled: {line!r}")
                break
        for i, row in self.oracle_sample.items():
            got = float(lines[i].split(" ")[1])
            want = self.oracle.score(row, mus, sigmas, fold, "l1")
            if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
                problems.append(f"row {i}: score {got!r}, oracle replay gives {want!r}")
        return Checked(problems, {"predict_stdout": sha256_file(command.stdout)}, {})


class IrisBench(Workload):
    """`refold bench` on data/iris.csv with the workload seed as spec seed."""

    mode = "fixed"

    def repetitions(self) -> int:
        return self.scale.fixed_reps

    def _spec(self, path: Path, seed: int, reps: int) -> Path:
        lines = ["datasets = iris", f"threshold_mode = {self.mode}", f"repetitions = {reps}",
                 f"seed = {seed}", "include_base = true", f"train_fraction = {TRAIN_FRACTION}"]
        if self.mode == "fixed":
            lines.append(f"threshold = {THRESHOLD}")
        else:
            lines += ["grid = " + ", ".join(map(str, GRID)), "cv_folds = 5"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def prepare(self, seed: int) -> None:
        self.spec = self._spec(self.work / "bench.spec", seed, self.repetitions())
        self.warm_spec = self._spec(self.work / "warmup.spec", seed, 2)
        self.report = self.work / "report.csv"
        labels = [line.rsplit(",", 1)[-1].strip() for line in
                  (self.root / "data" / "iris.csv").read_text(encoding="utf-8").splitlines()
                  if line.strip()]
        classes = list(dict.fromkeys(labels))
        self.class_sizes = {f"Iris{i + 1}": labels.count(c) for i, c in enumerate(classes)}
        self.n_rows = len(labels)

    def _bench(self, spec: Path, out: Path) -> Command:
        return Command("bench", ("bench", "--spec", str(spec), "--data-dir",
                                 str(self.root / "data"), "--out", str(out)),
                       self.work / "bench.out")

    def warmup(self) -> Command:
        return self._bench(self.warm_spec, self.work / "warmup-report.csv")

    def commands(self) -> list[Command]:
        return [self._bench(self.spec, self.report)]

    def check(self, command: Command) -> Checked:
        text = self.report.read_text(encoding="utf-8")
        body = text.split("\n# timing", 1)[0]
        problems = check_report(body, self.class_sizes, self.n_rows, self.repetitions(),
                                self.mode)
        cells = len(self.class_sizes) * self.repetitions()
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return Checked(problems, {"report_body": digest}, {"splits_used": cells})


class IrisGrid(IrisBench):
    mode = "grid"

    def repetitions(self) -> int:
        return self.scale.grid_reps


def _test_sizes(n: int) -> set[int]:
    """Test-set sizes of a stratum of n rows under any rounding of the split."""
    return {n - math.floor(TRAIN_FRACTION * n), n - math.ceil(TRAIN_FRACTION * n)}


def check_report(body: str, class_sizes: dict[str, int], n_rows: int, reps: int,
                 mode: str) -> list[str]:
    """Problems in the deterministic body of an include_base Iris report."""
    problems = []
    rows = [line.split(",") for line in body.split("\n")]
    header = next((r for r in rows if r[0] == "run" and r[1] == "model"), None)
    if header is None:
        return ["report has no run header"]
    runs = [dict(zip(header, r)) for r in rows if r[0] == "run" and r != header]
    seen = {}
    for run in runs:
        key = (run["model"], run["task"], int(run["repetition"]))
        size = class_sizes.get(run["task"], 0)
        tp, fn, tn, fp = (int(run[k]) for k in ("tp", "fn", "tn", "fp"))
        if tp + fn not in _test_sizes(size) or tn + fp not in _test_sizes(n_rows - size):
            problems.append(f"{key}: confusion counts {tp},{fn},{tn},{fp} do not fit the split")
            continue
        threshold = float(run["threshold"])
        if threshold not in ((THRESHOLD,) if mode == "fixed" else GRID):
            problems.append(f"{key}: threshold {threshold} outside the {mode} settings")
        g = float(run["gmean"])
        want = math.sqrt(tp / (tp + fn) * (tn / (tn + fp)))
        if not math.isclose(g, want, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"{key}: gmean {g!r} != sqrt(tpr*tnr) = {want!r}")
        seen.setdefault((run["model"], run["task"]), []).append((key[2], 100.0 * g))
    want_cells = {(m, t) for m in ("ref", "base") for t in class_sizes}
    if set(seen) != want_cells or any(sorted(r for r, _ in v) != list(range(1, reps + 1))
                                      for v in seen.values()):
        problems.append(f"report rows do not cover ref/base x {sorted(class_sizes)} x "
                        f"{reps} repetitions once each")
        return problems
    summaries = {(r[1], r[2]): (float(r[3]), float(r[4])) for r in rows
                 if r[0] == "summary" and r[1] != "model"}
    for model in ("ref", "base"):
        stats = []
        for task in class_sizes:
            values = [v for _, v in seen[(model, task)]]
            mean = sum(values) / len(values)
            std = (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5 \
                if len(values) > 1 else 0.0
            stats.append((task, mean, std))
        stats.append(("Aver.", sum(s[1] for s in stats) / len(stats),
                      sum(s[2] for s in stats) / len(stats)))
        for task, mean, std in stats:
            got = summaries.get((model, task))
            if got is None or abs(got[0] - mean) > 0.0501 or abs(got[1] - std) > 0.0501:
                problems.append(f"summary ({model}, {task}) {got} != mean/std "
                                f"{mean:.3f}/{std:.3f} of its runs")
    return problems


WORKLOADS = {"cli-100k": Cli100k, "iris-fixed-long": IrisBench, "iris-grid": IrisGrid}
