"""Benchmark of the refold command line, measured from outside the program.

    python3 perfbench/run.py --workload cli-100k --seed 1 --seconds 40 --trace 0

Run from the root of a refold checkout. One client issues commands back to
back (a closed loop, no parallelism). Each workload generates its inputs
from --seed into perfbench/_work/<workload>, runs one untimed warm-up
command so bytecode caches are filled, then repeats passes over its commands
(`refold train` + `refold predict`, or one `refold bench`) until --seconds
are used up, never fewer than Scale.min_passes. Every command is a
`python -m refold` subprocess, timed as a whole, with peak RSS from
os.wait4 (launched through spawn.py); every output is checked (see
workloads.py). The inputs' generation is not timed.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json:
setup_s, the median wall time of a cold `python -m refold --help`
(interpreter start, package import, argparse), sampled ahead of every
command; pass_rel, the median wall time of one pass (pass_s) over the median
wall time of reference.py (reference_s), a fixed task that is run ahead of
every command too, so that the host's speed drift cancels; peak_rss_mb, the
median over passes of the largest child RSS. pass_s and reference_s are
printed as well.
With --trace 1 it alternates an untraced pass with a traced one, in which
tracer.py runs each command in-process with spans around the layer
functions, and reports the per-layer metrics of tracer.PER_LAYER.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. An operation is one command; it fails if it exits non-zero, if its
output fails a check, or if its output digest differs from the first pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from workloads import FULL, WORKLOADS, Checked, Command, Scale, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/refold/__main__.py", "data/iris.csv", "tests/oracle.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; stop launching after this


@dataclass(frozen=True)
class Launch:
    """Outcome of one subprocess."""

    returncode: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stderr: str


class Run:
    """One benchmark run: launches commands and tallies operations."""

    def __init__(self, root: Path, workload: Workload, spawner, deadline: float):
        self.root, self.workload, self.deadline = root, workload, deadline
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}  # output digests of the first pass
        self.facts: dict[str, int] = {}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("REFOLD_DATA_DIR", None)

    def launch(self, command: Command, spans: Path | None = None) -> Launch:
        """Run `python -m refold`, tracer.py when spans go to `spans`, or the
        command's own script."""
        if command.script is not None:
            argv = [sys.executable, str(HERE / command.script), *command.argv]
        elif spans is None:
            argv = [sys.executable, "-m", "refold", *command.argv]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *command.argv]
        stderr = command.stdout.with_suffix(".err")
        request = {"argv": argv, "stdout": str(command.stdout), "stderr": str(stderr),
                   "cwd": str(self.root), "env": self.env,
                   "timeout": max(self.deadline - time.perf_counter(), 0.0)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return Launch(reply["returncode"], reply["wall_s"], reply["rss_kb"] / 1024.0,
                      reply["cpu_s"], stderr.read_text(encoding="utf-8", errors="replace"))

    def operation(self, command: Command, spans: Path | None = None,
                  check=None) -> Launch | None:
        """Run and check one command; returns None when it failed."""
        self.attempted += 1
        launch = self.launch(command, spans)
        if launch.returncode != 0:
            tail = launch.stderr.strip().splitlines()[-1:] or [""]
            return self._fail(command, f"exit status {launch.returncode}: {tail[0]}")
        try:
            result = (check or self.workload.check)(command)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result = Checked([f"output unreadable: {type(exc).__name__}: {exc}"], {}, {})
        for key, digest in result.digests.items():
            first = self.reference.setdefault(key, digest)
            if digest != first:
                result.problems.append(f"{key} sha256 {digest[:16]} differs from pass 1 "
                                       f"({first[:16]})")
        if result.problems:
            return self._fail(command, "; ".join(result.problems))
        self.facts.update(result.facts)
        return launch

    def _fail(self, command: Command, why: str) -> None:
        self.failed += 1
        print(f"FAILED {command.name}: {why}", file=sys.stderr)
        return None

    def traced_pass(self, index: int):
        """Traced run of one pass: (wall seconds, merged span totals)."""
        walls, totals = 0.0, []
        for n, command in enumerate(self.workload.commands()):
            spans = self.workload.work / f"spans-{index}-{n}.json"
            launch = self.operation(command, spans)
            if launch is None:
                return None
            with open(spans, encoding="utf-8") as fh:
                trace = json.load(fh)
            layer = tracer.layer_totals(trace)
            root = tracer.root_seconds(trace)
            self_sum = sum(t["self_s"] for t in layer.values())
            if abs(self_sum - root) > 1e-6:
                return self._fail(command, f"span self times sum to {self_sum:.6f} s, "
                                           f"the root span to {root:.6f} s")
            print(f"  traced {command.name}: wall {launch.wall_s:.3f} s, spans cover "
                  f"{root:.3f} s (self times sum {self_sum:.3f} s), start-up and span "
                  f"dump {launch.wall_s - root:.3f} s")
            print_dominant(layer, root)
            walls += launch.wall_s
            totals.append(layer)
        return walls, tracer.merge_totals(totals)


def print_dominant(layer: dict, root: float, top: int = 4) -> None:
    ranked = sorted(((t["self_s"], name) for name, t in layer.items()), reverse=True)
    print("    self time: " + ", ".join(
        f"{name} {s:.3f} s ({100 * s / root:.0f}%)" for s, name in ranked[:top]))


def untraced_pass(run: Run, index: int, before=None):
    """One untraced pass: {command: (wall s, rss MB)}, or None on failure.

    `before`, if given, is called ahead of each command.
    """
    out, cpu = {}, {}
    for command in run.workload.commands():
        if before is not None:
            before()
        launch = run.operation(command)
        if launch is None:
            return None
        out[command.name] = (launch.wall_s, launch.rss_mb)
        cpu[command.name] = launch.cpu_s
    print(f"  pass {index + 1}: " + " | ".join(
        f"{name} {w:.3f} s ({cpu[name]:.3f} s CPU) {rss:.1f} MB"
        for name, (w, rss) in out.items()))
    return out


def repeat(run: Run, seconds: float, minimum: int, body) -> list:
    """Results of body(i) for i = 0, 1, ... while `seconds` last.

    Stops before a repeat that would overrun `seconds` by its typical
    duration, once `minimum` repeats are done, or the run's deadline; stops
    at the first failed repeat (body returns None).
    """
    items, durations = [], []
    started = time.perf_counter()
    while True:
        typical = statistics.median(durations) if durations else 0.0
        now = time.perf_counter()
        if len(items) >= minimum and now - started + typical > seconds:
            break
        if now + typical > run.deadline:
            break
        item = body(len(items))
        if item is None:
            break
        durations.append(time.perf_counter() - now)
        items.append(item)
    return items


def median(values):
    return statistics.median(values) if values else None


def show(metric: str, value, unit: str, n: int) -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"{metric:40s} {shown:>12s} {unit:6s} median of {n}")


def pass_wall(p: dict) -> float:
    return sum(w for w, _ in p.values())


def help_check(command: Command) -> Checked:
    text = command.stdout.read_text(encoding="utf-8")
    ok = text.startswith("usage: refold")
    return Checked([] if ok else ["help text does not start with 'usage: refold'"], {}, {})


def no_check(command: Command) -> Checked:
    return Checked([], {}, {})


def reference_check(command: Command) -> Checked:
    ok = command.stdout.read_text(encoding="utf-8").startswith("reference ")
    return Checked([] if ok else ["reference task printed no checksum"], {}, {})


def measure(run: Run, seconds: float, trace: bool, scale: Scale) -> dict:
    """Warm up, then measure; returns {metric: (value, unit, samples)}."""
    workload = run.workload
    run.operation(workload.warmup(), check=no_check)
    if not trace:
        # A set-up sample and a run of the reference task go ahead of every
        # command, so that they see the same machine-speed drift as the
        # passes do; pass_rel divides the drift out.
        help_cmd = Command("help", ("--help",), workload.work / "help.out")
        ref_cmd = Command("reference", (), workload.work / "reference.out", "reference.py")
        setups, refs = [], []

        def sample():
            launch = run.operation(help_cmd, check=help_check)
            if launch is not None:
                setups.append(launch.wall_s)
            launch = run.operation(ref_cmd, check=reference_check)
            if launch is not None:
                refs.append(launch.wall_s)

        passes = repeat(run, seconds, scale.min_passes,
                        lambda i: untraced_pass(run, i, sample))
        while len(setups) < scale.setup_samples and time.perf_counter() < run.deadline:
            sample()
        pass_s, ref_s = median([pass_wall(p) for p in passes]), median(refs)
        show("pass_s", pass_s, "s", len(passes))
        show("reference_s", ref_s, "s", len(refs))
        return {
            "setup_s": (median(setups), "s", len(setups)),
            "pass_rel": (pass_s / ref_s if pass_s and ref_s else None, "x", len(passes)),
            "peak_rss_mb": (median([max(r for _, r in p.values()) for p in passes]), "MB",
                            len(passes)),
        }

    def pair(i):
        plain = untraced_pass(run, i)
        traced = run.traced_pass(i) if plain is not None else None
        return None if traced is None else (plain, traced)

    per_pass = []
    for plain, (traced_wall, totals) in repeat(run, seconds, 1, pair):
        ctx = {
            "splits_used": run.facts.get("splits_used", 0),
            "wall_s": {name: w for name, (w, _) in plain.items()},
            "rss_mb": {name: r for name, (_, r) in plain.items()},
            "overhead_s": traced_wall - pass_wall(plain),
            "pass_s": pass_wall(plain),
        }
        per_pass.append({name: fn(totals, ctx) for name, _, fn in tracer.PER_LAYER})
    return {name: (median([p[name] for p in per_pass]), unit, len(per_pass))
                 for name, unit, _ in tracer.PER_LAYER}


def info(root: Path, run: Run) -> dict:
    src = sorted((root / "src" / "refold").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_refold_py_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                                   for p in src),
        "sha256": run.reference,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return bench(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), FULL)


def bench(root: Path, name: str, seed: int, seconds: float, trace: bool,
          scale: Scale) -> int:
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: error: {', '.join(missing)} missing under {root}; "
              "run from the root of a refold checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = HERE / "_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](root, work, scale)
    workload.prepare(seed)
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    spawner = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)
    try:
        run = Run(root, workload, spawner, deadline)
        metrics = measure(run, seconds, trace, scale)
    finally:
        spawner.stdin.close()
        spawner.wait()
    for metric, (value, unit, n) in metrics.items():
        show(metric, value, unit, n)
    print(f"{'error_rate':40s} {run.failed / max(run.attempted, 1):12.6g} ratio  "
          f"{run.failed} of {run.attempted} operations failed")
    print("info " + json.dumps(info(root, run), sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
