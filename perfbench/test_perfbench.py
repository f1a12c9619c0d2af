"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench

Each test runs the real benchmark loop (subprocesses of `python -m refold`)
on inputs small enough to finish in seconds.
"""

import json
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import TOY, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(capsys, name, trace=False, seed=3):
    """The run's result object and its stderr."""
    assert run.bench(run.ROOT, name, seed, 0, trace, TOY) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert any(line.startswith("error_rate") for line in lines)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result, captured.err


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(capsys, name, trace):
    result, _ = bench(capsys, name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = {m: v["value"] for m, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif name == "cli-100k":
        # score's own lookup of transform_ref is traced, not only cli's
        assert values["core.transform_ref.s"] > 0 and values["datasets.cells"] > 0
    else:
        assert values["evaluation.make_split_plan.calls"] > 0 and values["rng.shuffles"] > 0


def corrupt(monkeypatch, cls, alter):
    """Make cls.check see its output after alter(workload) rewrote it."""
    check = cls.check

    def corrupted(self, command):
        alter(self, command)
        return check(self, command)

    monkeypatch.setattr(cls, "check", corrupted)


def test_altered_score_digit_is_a_failed_operation(capsys, monkeypatch):
    def alter(workload, command):
        if command.name != "predict":
            return
        lines = command.stdout.read_text(encoding="utf-8").split("\n")
        row = min(workload.oracle_sample)
        index, score, label = lines[row].split(" ")
        at = [i for i, c in enumerate(score) if c.isdigit()][3]
        score = score[:at] + str((int(score[at]) + 1) % 10) + score[at + 1:]
        lines[row] = " ".join([index, score, label])
        command.stdout.write_text("\n".join(lines), encoding="utf-8")

    corrupt(monkeypatch, workloads.Cli100k, alter)
    result, err = bench(capsys, "cli-100k")
    assert result["failed"] == 1 and not result["correct"]
    assert "oracle replay gives" in err


def test_altered_confusion_count_is_a_failed_operation(capsys, monkeypatch):
    def alter(workload, command):
        text = workload.report.read_text(encoding="utf-8")
        row = next(line for line in text.split("\n") if line.startswith("run,ref,"))
        cells = row.split(",")
        cells[6] = str(int(cells[6]) + 1)  # tp
        workload.report.write_text(text.replace(row, ",".join(cells), 1), encoding="utf-8")

    corrupt(monkeypatch, workloads.IrisBench, alter)
    result, err = bench(capsys, "iris-fixed-long")
    assert result["failed"] == 1 and not result["correct"]
    assert "do not fit the split" in err


def test_model_file_must_reserialize_byte_identically():
    text = "refold-model-v1\nfold=abs\niterations=1\ndim=2\n0.5 -1 2 0.25\n"
    assert workloads.parse_model_text(text) == ("abs", [[0.5, -1.0]], [[2.0, 0.25]])
    with pytest.raises(ValueError):
        workloads.parse_model_text(text.replace("-1 ", "-1.0 "))


def test_self_times_sum_to_the_root_span():
    trace = {"spans": [["cli.train", 0.0, 10.0, -1, 0],
                       ["core.train_ref", 1.0, 4.0, 0, 50],
                       ["core.score", 5.0, 9.0, 0, 0],
                       ["core.transform_ref", 5.5, 8.0, 2, 0]],
             "counts": {tracer.SHUFFLES: 7}}
    totals = tracer.layer_totals(trace)
    assert totals["cli.train"]["self_s"] == 3.0
    assert totals["core.score"]["self_s"] == 1.5
    assert totals[tracer.SHUFFLES]["calls"] == 7
    assert sum(t["self_s"] for t in totals.values()) == tracer.root_seconds(trace)


def test_refuses_to_run_without_the_program(capsys, tmp_path: Path):
    assert run.bench(tmp_path, "iris-grid", 1, 0, False, TOY) != 0
    assert capsys.readouterr().out == ""


def test_launcher_kills_a_child_at_its_timeout(tmp_path: Path):
    import spawn

    request = {"argv": [sys.executable, "-c", "import time; time.sleep(30)"],
               "stdout": str(tmp_path / "out"), "stderr": str(tmp_path / "err"),
               "cwd": str(tmp_path), "env": {}, "timeout": 0.5}
    reply = spawn.launch(request)
    assert reply["returncode"] != 0 and 0.5 <= reply["wall_s"] < 10
