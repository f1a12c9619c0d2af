"""CLI tests: flag surface, output formats, exit codes."""

import errno
import hashlib
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child, needs_fork, parse_on_cpus

from refold import core, datasets
from refold.bench import BenchSpec
from refold.cli import main
from refold.errors import ConfigError
from refold.model_io import load_model

REPO_ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    """A minimal environment for a child `python -m refold`: refold on its
    path, and PYTHONDONTWRITEBYTECODE carried through when it is set, so that
    the child writes no __pycache__ into a tree that the parent keeps free
    of them."""
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def run_limited(args):
    """`python -m refold *args` in a child process whose address space is
    capped at 1 GiB, killed after 120 seconds: a count that sizes work before
    it is checked fails in the child, never in the test process. The limit is
    set on the child alone, and one BLAS thread keeps the child's reserved
    memory apart from the host's core count."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "refold", *args], capture_output=True,
                          text=True, cwd=str(REPO_ROOT), preexec_fn=cap, timeout=120,
                          env={**child_env(), "OPENBLAS_NUM_THREADS": "1"})


def write_iris_subset(tmp_path):
    src = REPO_ROOT / "data" / "iris.csv"
    dst = tmp_path / "iris.csv"
    dst.write_text(src.read_text(), encoding="utf-8")
    return str(dst)


# -------------------------------------------------------------------- train

def test_train_prints_dimensions(tmp_path, capsys):
    data = write_iris_subset(tmp_path)
    out = tmp_path / "m.refold"
    rc = main([
        "train", "--data", data, "--target-class", "versicolor",
        "--out", str(out),
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "J=101 D=4 N=50"
    model = load_model(out)
    assert model.iterations == 101
    assert model.dim == 4


def test_train_single_iteration_is_base(tmp_path, capsys):
    data = write_iris_subset(tmp_path)
    out = tmp_path / "m.refold"
    rc = main([
        "train", "--data", data, "--target-class", "setosa",
        "--iters", "1", "--out", str(out),
    ])
    assert rc == 0
    assert load_model(out).iterations == 1


def test_train_missing_data_flag_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", str(tmp_path / "m")])
    assert exc.value.code == 2


def test_train_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x", "--out", "y", "--frobnicate"])
    assert exc.value.code == 2


def test_train_bad_target_class(tmp_path, capsys):
    data = write_iris_subset(tmp_path)
    rc = main([
        "train", "--data", data, "--target-class", "nope",
        "--out", str(tmp_path / "m"),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("refold: error: ConfigError:")
    assert captured.out == ""  # diagnostics never leak to the data stream


def test_data_dir_env_variable(tmp_path, capsys, monkeypatch):
    write_iris_subset(tmp_path)
    spec = tmp_path / "iris.spec"
    spec.write_text("datasets = iris\niterations = 5\nrepetitions = 1\n",
                    encoding="utf-8")
    monkeypatch.setenv("REFOLD_DATA_DIR", str(tmp_path))
    rc = main(["bench", "--spec", str(spec), "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    assert "summary,ref,Iris1," in (tmp_path / "r.csv").read_text()


# ------------------------------------------------------------------ predict

@pytest.fixture
def trained_model(tmp_path):
    data = write_iris_subset(tmp_path)
    out = tmp_path / "m.refold"
    main(["train", "--data", data, "--target-class", "versicolor",
          "--iters", "21", "--out", str(out)])
    return str(out), data


def test_predict_output_format(trained_model, tmp_path, capsys):
    model_path, _ = trained_model
    feats = tmp_path / "rows.csv"
    feats.write_text("6.1,2.8,4.0,1.3\n5.1,3.5,1.4,0.2\n", encoding="utf-8")
    rc = main(["predict", "--model", model_path, "--data", str(feats)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        idx, s, label = line.split()
        assert int(idx) == i
        float(s)
        assert label in ("target", "outlier")


def test_predict_boundary_score_is_target(tmp_path, capsys):
    # J=1 model over {-1,0,1}: y=1 scores exactly 1.0 -> inclusive target
    train = tmp_path / "t.csv"
    train.write_text("-1,a\n0,a\n1,a\n", encoding="utf-8")
    model = tmp_path / "m.refold"
    main(["train", "--data", str(train), "--iters", "1", "--out", str(model)])
    capsys.readouterr()
    feats = tmp_path / "y.csv"
    feats.write_text("1\n", encoding="utf-8")
    rc = main(["predict", "--model", str(model), "--data", str(feats),
               "--threshold", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "0 1 target\n"


def test_predict_dimension_mismatch(trained_model, tmp_path, capsys):
    model_path, _ = trained_model
    feats = tmp_path / "bad.csv"
    feats.write_text("1,2,3,4,5\n", encoding="utf-8")
    rc = main(["predict", "--model", model_path, "--data", str(feats)])
    assert rc == 1
    assert "ShapeError" in capsys.readouterr().err


def test_predict_deterministic_bytes(trained_model, tmp_path, capsys):
    model_path, data = trained_model
    main(["predict", "--model", model_path, "--data", data,
          "--label-column", "last"])
    first = capsys.readouterr().out
    main(["predict", "--model", model_path, "--data", data,
          "--label-column", "last"])
    assert capsys.readouterr().out == first


# sha256 of `refold predict` stdout on the seeded file of the test below,
# pinned at the code that printed one line per row
GOLDEN_PREDICT = "3d163a22207c0d8ba34f30128df9f73a11f83db7c96b991791504b266476304a"


@pytest.mark.parametrize("chunk_lines", [7, 8192])
def test_predict_golden_bytes(tmp_path, capsys, monkeypatch, chunk_lines):
    # read 7 lines at a time, the file spans 286 chunks, and on two CPUs a
    # forked helper converts every other one
    monkeypatch.setattr(datasets, "_CHUNK_LINES", chunk_lines)
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(2000, 5)) * rng.uniform(0.5, 3.0, 5) + rng.uniform(-5, 5, 5)
    X[1000:] *= 1.5
    rows = [",".join(["%.17g"] * 5) % tuple(r) for r in X.tolist()]
    plain, labeled = tmp_path / "plain.csv", tmp_path / "labeled.csv"
    plain.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    labeled.write_text(
        "".join(r + (",t\n" if i < 1000 else ",o\n") for i, r in enumerate(rows)),
        encoding="utf-8",
    )
    model = str(tmp_path / "m.refold")
    for cpus in (2, 1):
        parse_on_cpus(monkeypatch, cpus)
        assert main(["train", "--data", str(labeled), "--target-class", "t",
                     "--out", model]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", model, "--data", str(plain)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_PREDICT
        assert main(["predict", "--model", model, "--data", str(labeled),
                     "--label-column", "last"]) == 0
        assert capsys.readouterr().out == out
        assert_no_child()


# --------------------------------------------------------------------- eval

def test_eval_reports_counts_and_gmean(trained_model, capsys):
    model_path, data = trained_model
    rc = main([
        "eval", "--model", model_path, "--data", data,
        "--target-class", "versicolor",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    fields = dict(kv.split("=") for kv in out.split())
    assert set(fields) == {"tp", "fn", "tn", "fp", "tpr", "tnr", "gmean"}
    assert int(fields["tp"]) + int(fields["fn"]) == 50
    assert 0.0 <= float(fields["gmean"]) <= 1.0


# sha256 of `refold eval` stdout over the runs of the test below, pinned at
# the code that counted through one-row ConfusionCounts/EvalResult objects
GOLDEN_EVAL = "845d9f5925959dc723e66b13360f53ff93432c278023cdc5c0928fe70145a3ee"


@pytest.mark.parametrize("chunk_lines", [7, 8192])
def test_eval_golden_bytes(trained_model, tmp_path, capsys, monkeypatch, chunk_lines):
    # the fixture's versicolor model on its own labeled file, one run per
    # Iris class (setosa gives tpr=0 and gmean=0), then a 101-iteration
    # versicolor model under the l2 distance and threshold 0.1; read 7
    # lines at a time, Iris spans 22 chunks, and on two CPUs a forked
    # helper converts every other one
    monkeypatch.setattr(datasets, "_CHUNK_LINES", chunk_lines)
    model_path, data = trained_model
    runs = [[model_path, c, "l1", "1.0"] for c in ("setosa", "versicolor", "virginica")]
    model_101 = str(tmp_path / "m101.refold")
    for cpus in (2, 1):
        parse_on_cpus(monkeypatch, cpus)
        assert main(["train", "--data", data, "--target-class", "versicolor",
                     "--out", model_101]) == 0
        capsys.readouterr()
        out = ""
        for model, target, dist, threshold in runs + [
                [model_101, c, "l2", "0.1"] for c in ("setosa", "versicolor", "virginica")]:
            assert main(["eval", "--model", model, "--data", data, "--target-class", target,
                         "--dist", dist, "--threshold", threshold]) == 0
            out += capsys.readouterr().out
        assert out.count("\n") == 6
        assert out.startswith("tp=0 fn=50 ")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_EVAL
        assert_no_child()


def test_eval_boundary_score_is_target(tmp_path, capsys):
    # J=1 model over {-1,0,1}: the row 1 scores exactly 1.0 -> inclusive target
    data = tmp_path / "t.csv"
    data.write_text("-1,a\n0,a\n1,a\n5,b\n-5,b\n", encoding="utf-8")
    model = str(tmp_path / "m.refold")
    assert main(["train", "--data", str(data), "--target-class", "a", "--iters", "1",
                 "--out", model]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", model, "--data", str(data), "--target-class", "a",
                 "--threshold", "1.0"]) == 0
    assert capsys.readouterr().out == "tp=3 fn=0 tn=2 fp=0 tpr=1 tnr=1 gmean=1\n"


# ------------------------------------------------------------- bench, curve

def test_bench_and_curve_roundtrip(tmp_path, capsys):
    data_dir = tmp_path
    write_iris_subset(tmp_path)
    spec = tmp_path / "iris.spec"
    spec.write_text(
        "datasets = iris\niterations = 15\nrepetitions = 2\nseed = 3\n"
        "include_base = true\n",
        encoding="utf-8",
    )
    rc = main(["bench", "--spec", str(spec), "--data-dir", str(data_dir)])
    assert rc == 0
    report_path = capsys.readouterr().out.strip()
    text = Path(report_path).read_text()
    assert text.startswith("# refold-bench-report-v1")
    for task in ("Iris1", "Iris2", "Iris3"):
        assert f"summary,ref,{task}," in text
        assert f"summary,base,{task}," in text
    assert "summary,ref,Aver.," in text

    rc = main(["curve", "--spec", str(spec), "--task", "Iris1", "--rep", "1",
               "--data-dir", str(data_dir)])
    assert rc == 0
    curve_path = capsys.readouterr().out.strip()
    curve_text = Path(curve_path).read_text()
    assert curve_text.startswith("# refold-curve-v1")
    assert curve_text.count("\n") >= 15


def test_bench_deterministic_reports(tmp_path, capsys):
    write_iris_subset(tmp_path)
    spec = tmp_path / "iris.spec"
    spec.write_text("datasets = iris\niterations = 9\nrepetitions = 2\nseed = 1\n",
                    encoding="utf-8")
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    main(["bench", "--spec", str(spec), "--data-dir", str(tmp_path),
          "--out", str(out1)])
    main(["bench", "--spec", str(spec), "--data-dir", str(tmp_path),
          "--out", str(out2)])
    capsys.readouterr()
    det1 = out1.read_text().split("# timing")[0]
    det2 = out2.read_text().split("# timing")[0]
    assert det1 == det2


def test_curve_grid_spec_config_error(tmp_path, capsys):
    write_iris_subset(tmp_path)
    spec = tmp_path / "grid.spec"
    spec.write_text("datasets = iris\nthreshold_mode = grid\n", encoding="utf-8")
    rc = main(["curve", "--spec", str(spec), "--task", "Iris1", "--rep", "1",
               "--data-dir", str(tmp_path)])
    assert rc == 1
    assert "ConfigError" in capsys.readouterr().err


def test_bench_missing_dataset_nonzero_exit(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("datasets = seeds\n", encoding="utf-8")
    rc = main(["bench", "--spec", str(spec), "--data-dir", str(tmp_path)])
    assert rc == 1
    assert "DataFormatError" in capsys.readouterr().err


def test_bench_help_lists_no_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--spec" in text
    assert "--jobs" not in text


# ---------------------------------------------------------- boundary errors

def single_error_line(capsys, rc, error_type):
    """The one stderr line of a failed command; stdout stays empty."""
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"refold: error: {error_type}: ")
    return lines[0]


def test_memory_error_is_one_error_line(tmp_path, capsys):
    # the largest probe that the count bound admits: numpy refuses this
    # 6.94 EiB matrix before allocating any of it
    argv = ["probe", "--sizes", "1000000000", "--dim", "1000000000", "--repeats", "1",
            "--iters", "1", "--out", str(tmp_path / "probe.csv")]
    line = single_error_line(capsys, main(argv), "MemoryError")
    assert line.endswith("Unable to allocate 6.94 EiB for an array with shape "
                         "(1000000000, 1000000000) and data type float64")
    assert not (tmp_path / "probe.csv").exists()


HOSTILE_COUNTS = ("99999999999999999999", "9223372036854775808")


@pytest.mark.parametrize("value", HOSTILE_COUNTS)
@pytest.mark.parametrize("where, name, low", [
    ("train --iters", "iterations", 1),
    ("probe --dim", "probe dim", 1),
    ("probe --sizes", "probe size", 2),
    ("spec iterations", "iterations", 1),
    ("spec repetitions", "repetitions", 1),
])
def test_hostile_count_is_one_config_error(tmp_path, where, name, low, value):
    """A count of about 10**20 or of 2**63 is refused before it sizes any
    work. Without the bound these end in a raw ValueError traceback or, for
    the spec's counts, in memory that grows until it runs out, so each runs
    in a child process under an address-space limit."""
    command, key = where.split()
    out = tmp_path / "out"
    if command == "train":
        args = ["train", "--data", str(REPO_ROOT / "data" / "iris.csv"), "--iters", value]
    elif command == "probe":
        flags = {"--sizes": "100", "--dim": "2", key: value}
        args = ["probe", *(t for flag in flags.items() for t in flag), "--iters", "3"]
    else:
        spec = tmp_path / "hostile.spec"
        spec.write_text(f"datasets = iris\n{key} = {value}\n", encoding="utf-8")
        args = ["bench", "--spec", str(spec), "--data-dir", str(REPO_ROOT / "data")]
    proc = run_limited([*args, "--out", str(out)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"refold: error: ConfigError: {name} must be in "
                           f"{low}..10**9, got {value}\n")
    assert not out.exists()


def test_overflow_warning_is_one_refold_line(tmp_path):
    """numpy's overflow warning prints as one refold line, without its source
    path and line, and the error line, which names the overflowing column
    total, follows; run as a child process, so the interpreter's own warning
    filters apply."""
    data = tmp_path / "huge.csv"
    data.write_text("1.7e308,1,t\n1.7e308,2,t\n1,3,t\n", encoding="utf-8")
    out = tmp_path / "m.refold"
    proc = subprocess.run(
        [sys.executable, "-m", "refold", "train", "--data", str(data), "--out", str(out)],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "refold: warning: overflow encountered in reduce\n"
        "refold: error: NumericError: column total of dimension 1 overflows at iteration 1\n"
    )
    assert not out.exists()


def run_module(args, **kwargs):
    """`python <args>` in a child process, with refold importable."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, cwd=str(REPO_ROOT),
        env=child_env(), **kwargs,
    )


def test_train_and_predict_run_clean_under_dev_mode(tmp_path):
    """On a file of three chunks, train and predict under -X dev -W error
    exit 0 with nothing on stderr: no reader generator or file is left
    open, and no warning is raised, as the chunks' buffers are dropped."""
    values = np.random.default_rng(9).standard_normal((2 * 8192 + 100, 3))
    data = tmp_path / "rows.csv"
    data.write_text("".join("%r,%r,%r,%s\n" % (*row, "to"[i % 3 == 0])
                            for i, row in enumerate(values.tolist())), encoding="utf-8")
    model = tmp_path / "m.refold"
    for argv in (["train", "--data", str(data), "--target-class", "t", "--out", str(model)],
                 ["predict", "--model", str(model), "--data", str(data),
                  "--label-column", "last"]):
        proc = run_module(["-X", "dev", "-W", "error", "-m", "refold", *argv], text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    assert proc.stdout.count("\n") == len(values)


def test_overflow_under_w_error_is_one_error_line(tmp_path):
    """With -W error the overflow warning is raised, not printed: it ends
    the command as its one error line."""
    data = tmp_path / "huge.csv"
    data.write_text("1.7e308,1,t\n1.7e308,2,t\n1,3,t\n", encoding="utf-8")
    out = tmp_path / "m.refold"
    proc = run_module(["-W", "error", "-m", "refold", "train", "--data", str(data),
                       "--out", str(out)], text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "refold: error: RuntimeWarning: overflow encountered in reduce\n"
    assert not out.exists()


# task -> (its data file's writer, spec lines, stderr of `refold bench`)
BENCH_TASKS = {
    # the stack of all 6 repetitions fails where its overflowing total warns
    "overflow": ("_overflow_csv", "fold = sqr\nrepetitions = 6\nseed = 5\n",
                 "refold: warning: overflow encountered in reduce\n"
                 "refold: error: NumericError: column total of dimension 2 overflows"
                 " at iteration 1\n"),
    # standardized outliers overflow, and cos turns them into NaN
    "warning": ("_warning_csv", "fold = cos\nrepetitions = 4\nseed = 3\ninclude_base = true\n",
                "refold: warning: invalid value encountered in cos\n"),
}


@pytest.mark.parametrize("mode", ["fixed", "grid"])
@pytest.mark.parametrize("task", BENCH_TASKS)
def test_bench_task_that_fails_or_warns(tmp_path, task, mode):
    """A bench task fails or warns as its stacked kernel calls do: numpy's
    warning prints as one refold line, and a failure ends the command with
    the one error line and exit 1; under -W error the warning is that line."""
    import test_bench

    writer, spec, stderr = BENCH_TASKS[task]
    getattr(test_bench, writer)(tmp_path / f"{task}.csv")
    (tmp_path / "t.spec").write_text(
        f"datasets = {task}.csv\niterations = 5\ncv_folds = 3\nthreshold_mode = {mode}\n{spec}",
        encoding="utf-8")
    out = tmp_path / "report.csv"
    argv = ["-m", "refold", "bench", "--spec", str(tmp_path / "t.spec"),
            "--data-dir", str(tmp_path), "--out", str(out)]
    proc = run_module(argv, text=True)
    failed = "refold: error:" in stderr
    assert (proc.returncode, proc.stderr) == (int(failed), stderr)
    assert proc.stdout == ("" if failed else f"{out}\n")
    assert out.exists() != failed
    warning = stderr.splitlines()[0].replace("refold: warning: ", "")
    proc = run_module(["-W", "error", *argv], text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"refold: error: RuntimeWarning: {warning}\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_non_utf8_on_a_pipe_is_one_error_line(tmp_path):
    """A pipe cannot tell its position, so the message names no offset."""
    model = tmp_path / "m.refold"
    model.write_text("refold-model-v1\nfold=abs\niterations=1\ndim=2\n0 0 1 1\n",
                     encoding="utf-8")
    proc = run_module(["-m", "refold", "predict", "--model", str(model),
                       "--data", "/dev/stdin"], input=b"1,2\n\xff,3\n")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (b"refold: error: DataFormatError: /dev/stdin: not UTF-8 text "
                           b"(invalid start byte); re-encode the file as UTF-8\n")


def test_utf16_data_is_a_format_error(tmp_path, capsys):
    data = tmp_path / "iris16.csv"
    data.write_text((REPO_ROOT / "data" / "iris.csv").read_text(), encoding="utf-16")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m")])
    line = single_error_line(capsys, rc, "DataFormatError")
    assert str(data) in line and "UTF-8" in line
    rc = main(["predict", "--model", str(data), "--data", str(data)])
    assert "UTF-8" in single_error_line(capsys, rc, "ModelFormatError")
    model = tmp_path / "m.refold"
    main(["train", "--data", write_iris_subset(tmp_path), "--out", str(model)])
    capsys.readouterr()
    rows = tmp_path / "rows16.csv"
    rows.write_text("6.1,2.8,4.0,1.3\n", encoding="utf-16")
    rc = main(["predict", "--model", str(model), "--data", str(rows)])
    assert "UTF-8" in single_error_line(capsys, rc, "DataFormatError")
    rc = main(["bench", "--spec", str(data)])
    assert "UTF-8" in single_error_line(capsys, rc, "ConfigError")


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_threshold_checked_before_reading_files(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.csv")
    argv = [command, "--model", missing, "--data", missing, "--threshold", "0"]
    if command == "eval":
        argv += ["--target-class", "a"]
    line = single_error_line(capsys, main(argv), "ConfigError")
    assert line.endswith("ConfigError: threshold must be > 0, got 0.0")


@pytest.mark.parametrize("caller", ["predict", "eval", "spec"])
def test_threshold_zero_rejected_with_one_message(tmp_path, capsys, caller):
    message = "threshold must be > 0, got 0.0"
    if caller in ("predict", "eval"):
        missing = str(tmp_path / "missing.csv")
        argv = [caller, "--model", missing, "--data", missing, "--threshold", "0"]
        if caller == "eval":
            argv += ["--target-class", "a"]
        line = single_error_line(capsys, main(argv), "ConfigError")
        assert line == f"refold: error: ConfigError: {message}"
        return
    with pytest.raises(ConfigError) as exc:
        BenchSpec(datasets=("iris",), threshold=0.0)
    assert str(exc.value) == message


@pytest.mark.parametrize("command", ["train", "eval"])
def test_unknown_target_class_rejected_with_one_message(trained_model, capsys, command):
    model_path, data = trained_model
    capsys.readouterr()
    argv = [command, "--data", data, "--target-class", "nope"]
    argv += ["--out", model_path + ".new"] if command == "train" else ["--model", model_path]
    line = single_error_line(capsys, main(argv), "ConfigError")
    assert line.endswith("target class 'nope' not in dataset classes "
                         "('setosa', 'versicolor', 'virginica')")


@pytest.mark.parametrize("text, flags, message", [
    ("a,b,c,label\n1,2,3\n", ["--header", "--label-column", "label"],
     "header has 4 fields, first data row has 3"),
    ("a,label\n1,2,x\n", ["--header", "--label-column", "label"],
     "header has 2 fields, first data row has 3"),
    ("1,2,a\n1,2,\n", ["--target-class", ""], "row 2 column 2: blank label"),
], ids=["wider-header", "narrower-header", "blank-label"])
def test_header_width_and_blank_label_are_one_error_line(tmp_path, capsys, text, flags,
                                                         message):
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    out = tmp_path / "m.refold"
    rc = main(["train", "--data", str(data), *flags, "--out", str(out)])
    assert single_error_line(capsys, rc, "DataFormatError").endswith(message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_bad_cell_in_a_later_chunk_prints_nothing(trained_model, tmp_path, capsys,
                                                  monkeypatch, command):
    """Chunks before the bad one are scored, but nothing reaches stdout, and
    the message names the file's row and column as a whole-file read does."""
    model_path, data = trained_model
    rows = Path(data).read_text(encoding="utf-8").splitlines()
    cells = rows[120].split(",")
    rows[120] = ",".join([cells[0], "x", *cells[2:]])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = [command, "--model", model_path, "--data", str(bad)]
    argv += ["--label-column", "last"] if command == "predict" else ["--target-class", "setosa"]
    capsys.readouterr()
    for chunk_lines in (8, 8192):
        monkeypatch.setattr(datasets, "_CHUNK_LINES", chunk_lines)
        line = single_error_line(capsys, main(argv), "DataFormatError")
        assert line == (f"refold: error: DataFormatError: {bad}: row 121 column 1: "
                        "not a number: 'x'")


@pytest.mark.parametrize("command, fault", [
    ("predict", "bad-cell"), ("predict", "blank-label"),
    ("eval", "bad-cell"), ("eval", "blank-label"), ("eval", "absent-class"),
])
def test_model_width_is_checked_at_the_first_chunk(trained_model, tmp_path, capsys,
                                                   monkeypatch, command, fault):
    """A model of the wrong width fails as the first chunk is scored: before
    a fault in a later chunk, a blank label, or a target class the file
    lacks, each of which a whole-file read reported first."""
    _, data = trained_model
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("1,2,a\n2,3,a\n3,5,a\n", encoding="utf-8")
    model = str(tmp_path / "narrow.refold")
    assert main(["train", "--data", str(narrow), "--iters", "3", "--out", model]) == 0
    rows = Path(data).read_text(encoding="utf-8").splitlines()
    if fault == "bad-cell":
        rows[120] = "x" + rows[120]
    elif fault == "blank-label":
        rows[120] = rows[120].rsplit(",", 1)[0] + ","
    data = tmp_path / "faulty.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    target = "nope" if fault == "absent-class" else "setosa"
    argv = [command, "--model", model, "--data", str(data)]
    argv += ["--label-column", "last"] if command == "predict" else ["--target-class", target]
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 8)
    parse_on_cpus(monkeypatch, 2)
    capsys.readouterr()
    line = single_error_line(capsys, main(argv), "ShapeError")
    assert line.endswith("sample has 4 dimensions, model has 2")
    assert_no_child()


def labeled_rows(tmp_path, rows=20_000, dim=20):
    """A labeled file of `rows` rows, every other one of class t, and the
    bytes of its feature matrix and of its t rows' matrix."""
    values = np.random.default_rng(5).standard_normal((rows, dim))
    path = tmp_path / "rows.csv"
    path.write_text("".join(",".join("%.17g" % v for v in row) + (",t\n" if i % 2 else ",o\n")
                            for i, row in enumerate(values.tolist())), encoding="utf-8")
    return str(path), values.nbytes, values[1::2].nbytes


def traced_peak(argv) -> int:
    """Peak bytes of Python-side allocations while main(argv) runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_holds_only_the_target_rows(tmp_path, capsys, monkeypatch):
    """Over 20 chunks, half of whose rows are targets, train peaks below
    1.75x the targets' matrix: their rows, held once from parse to model,
    one chunk's text and a scratch block. Keeping every row, and copying the
    whole matrix again when joining it, took 4.3x; joining the target rows'
    chunk parts, then fitting a copy of the joined rows, took 2.36x. The
    bound holds with a forked helper (two CPUs) and without (one): a matrix
    read from its pipe costs what one converted here does."""
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 1024)
    monkeypatch.setattr(core, "_SCRATCH_ROWS", 1024)
    data, _, target_bytes = labeled_rows(tmp_path)
    for cpus in (2, 1):
        parse_on_cpus(monkeypatch, cpus)
        peak = traced_peak(["train", "--data", data, "--target-class", "t",
                            "--out", str(tmp_path / "m.refold")])
        assert capsys.readouterr().out == "J=101 D=20 N=10000\n"
        assert peak < 1.75 * target_bytes, (cpus, peak / target_bytes)


def test_predict_holds_a_chunk_beside_its_output(tmp_path, capfd, monkeypatch):
    """Over 20 chunks, predict peaks below 0.45 of the whole feature matrix
    plus its output text: one chunk's rows are parsed and replayed at a
    time, and its text is dropped before the next chunk's is read. Holding
    the matrix and a replayed copy of it took 1.76 times that, and holding
    two chunks' text at once 0.48. The bound holds with a forked helper
    (two CPUs) and without (one)."""
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 1024)
    data, matrix_bytes, _ = labeled_rows(tmp_path)
    model = str(tmp_path / "m.refold")
    assert main(["train", "--data", data, "--target-class", "t", "--iters", "5",
                 "--out", model]) == 0
    capfd.readouterr()
    for cpus in (2, 1):
        parse_on_cpus(monkeypatch, cpus)
        peak = traced_peak(["predict", "--model", model, "--data", data,
                            "--label-column", "last"])
        out = capfd.readouterr().out
        assert out.count("\n") == 20_000
        assert peak < 0.45 * (matrix_bytes + len(out)), (cpus, peak / (matrix_bytes + len(out)))


@needs_fork
def test_commands_leave_no_helper_behind(trained_model, tmp_path, capsys, monkeypatch,
                                         forks):
    """train, predict and eval each fork a helper for a file of many chunks,
    and reap it before they return, succeeding or failing."""
    model, data = trained_model
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 8)
    parse_on_cpus(monkeypatch, 2)
    bad = tmp_path / "bad.csv"
    bad.write_text(Path(data).read_text(encoding="utf-8").replace("5.7,", "5.7x,"),
                   encoding="utf-8")
    for path, rc in ((data, 0), (str(bad), 1)):
        for argv in (["train", "--target-class", "setosa", "--out", str(tmp_path / "m2")],
                     ["predict", "--model", model, "--label-column", "last"],
                     ["eval", "--model", model, "--target-class", "setosa"]):
            forks.clear()
            assert main([*argv, "--data", path]) == rc
            assert len(forks) == 1
            assert_no_child()
    assert "not a number: '5.7x'" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_interrupt_is_one_error_line(trained_model, tmp_path):
    """SIGINT in the middle of a command prints the one error line and
    exits 130 (128 + SIGINT), with no traceback and no child left."""
    model, _ = trained_model
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    fd, deadline = None, time.monotonic() + 60
    with subprocess.Popen([sys.executable, "-m", "refold", "predict", "--model", model,
                           "--data", str(fifo)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=str(REPO_ROOT),
                          env=child_env()) as proc:
        try:
            # the write end opens once the command has opened the read end
            while fd is None:
                try:
                    fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                except OSError as exc:
                    assert exc.errno == errno.ENXIO and proc.poll() is None
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            os.write(fd, b"5.1,3.5")  # a partial row: the parse waits for more
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # only if the command is still running
            if fd is not None:
                os.close(fd)
    assert (proc.returncode, out, err) == (130, "", "refold: error: KeyboardInterrupt: "
                                                    "interrupted\n")
    assert_no_child()


def test_label_column_none_rejected_by_train_and_eval(trained_model, tmp_path, capsys):
    model_path, data = trained_model
    capsys.readouterr()
    rc = main(["train", "--data", data, "--label-column", "none",
               "--out", str(tmp_path / "m2")])
    assert "--label-column none" in single_error_line(capsys, rc, "ConfigError")
    rc = main(["eval", "--model", model_path, "--data", data,
               "--label-column", "none", "--target-class", "setosa"])
    assert "--label-column none" in single_error_line(capsys, rc, "ConfigError")


def test_named_label_without_header_rejected(trained_model, capsys):
    model_path, data = trained_model
    capsys.readouterr()
    rc = main(["predict", "--model", model_path, "--data", data,
               "--label-column", "species"])
    assert "header" in single_error_line(capsys, rc, "ConfigError")


def test_drop_column_outside_file_rejected(trained_model, capsys):
    model_path, data = trained_model
    capsys.readouterr()
    rc = main(["predict", "--model", model_path, "--data", data,
               "--label-column", "last", "--drop-columns", "99"])
    line = single_error_line(capsys, rc, "DataFormatError")
    assert "drop column 99 outside 0..4" in line


# numbers with a digit separator, and a non-ASCII digit (Arabic-Indic 3),
# which int() and float() accept but spec, data and model files refuse
SEPARATED = ("1_0", "\u0663")


@pytest.mark.parametrize("value", SEPARATED)
@pytest.mark.parametrize("argv, kind", [
    (["train", "--data", "d", "--out", "m", "--iters"], "int"),
    (["curve", "--spec", "s", "--task", "Iris1", "--rep"], "int"),
    (["probe", "--sizes", "2", "--dim"], "int"),
    (["probe", "--sizes", "2", "--iters"], "int"),
    (["probe", "--sizes", "2", "--seed"], "int"),
    (["probe", "--sizes", "2", "--repeats"], "int"),
    (["predict", "--model", "m", "--data", "d", "--threshold"], "float"),
    (["eval", "--model", "m", "--data", "d", "--target-class", "t", "--threshold"], "float"),
])
def test_number_flags_follow_the_token_rule(capsys, argv, kind, value):
    # argparse's own usage error, as for --iters abc
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    assert f"{argv[-1]}: invalid {kind} value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", SEPARATED)
def test_index_lists_follow_the_token_rule(trained_model, tmp_path, capsys, value):
    model_path, data = trained_model
    capsys.readouterr()
    rc = main(["predict", "--model", model_path, "--data", data,
               "--label-column", "last", "--drop-columns", f"0,{value}"])
    line = single_error_line(capsys, rc, "ConfigError")
    assert line.endswith(f"--drop-columns must be integers, got '0,{value}'")
    rc = main(["probe", "--sizes", f"2 {value}", "--out", str(tmp_path / "p.csv")])
    line = single_error_line(capsys, rc, "ConfigError")
    assert line.endswith(f"--sizes must be integers, got '2 {value}'")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("value", SEPARATED)
def test_label_column_index_follows_the_token_rule(tmp_path, capsys, value):
    # not an index, so a header name: here the labels' own column
    data = tmp_path / "named.csv"
    data.write_text(f"a,{value},b\n" + "".join(f"{i},{'to'[i % 3 == 0]},{i * i}\n"
                                               for i in range(12)), encoding="utf-8")
    rc = main(["train", "--data", str(data), "--header", "--label-column", value,
               "--target-class", "t", "--out", str(tmp_path / "m.refold")])
    assert rc == 0
    assert capsys.readouterr().out == "J=101 D=2 N=8\n"


def test_predict_label_free_with_header_and_drop(trained_model, tmp_path, capsys):
    model_path, data = trained_model
    rows = (REPO_ROOT / "data" / "iris.csv").read_text().splitlines()[:3]
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(r.rsplit(",", 1)[0] + "\n" for r in rows), encoding="utf-8")
    padded = tmp_path / "padded.csv"
    padded.write_text("id,a,b,c,d\n" + "".join(f"{i},{r.rsplit(',', 1)[0]}\n"
                                                for i, r in enumerate(rows)),
                      encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", model_path, "--data", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert len(expected.splitlines()) == 3
    assert main(["predict", "--model", model_path, "--data", str(padded),
                 "--header", "--drop-columns", "0"]) == 0
    assert capsys.readouterr().out == expected


def test_missing_spec_is_a_config_error(tmp_path, capsys):
    spec = tmp_path / "absent.spec"
    rc = main(["bench", "--spec", str(spec)])
    assert str(spec) in single_error_line(capsys, rc, "ConfigError")


def test_out_in_missing_directory_is_an_output_error(tmp_path, capsys):
    data = write_iris_subset(tmp_path)
    out = tmp_path / "no-such-dir" / "m.refold"
    rc = main(["train", "--data", data, "--target-class", "setosa",
               "--out", str(out)])
    assert str(out) in single_error_line(capsys, rc, "OutputError")

    spec = tmp_path / "iris.spec"
    spec.write_text("datasets = iris\niterations = 3\nrepetitions = 1\n",
                    encoding="utf-8")
    out = tmp_path / "no-such-dir" / "r.csv"
    rc = main(["bench", "--spec", str(spec), "--data-dir", str(tmp_path),
               "--out", str(out)])
    assert str(out) in single_error_line(capsys, rc, "OutputError")


# ----------------------------------------------------------- stdout failures

def _stdout_command(command, tmp_path):
    """Arguments of a cheap run of `command` that succeeds and prints."""
    data = write_iris_subset(tmp_path)
    model = tmp_path / "m.refold"
    spec = tmp_path / "iris.spec"
    if command in ("predict", "eval"):
        assert main(["train", "--data", data, "--target-class", "setosa", "--iters", "3",
                     "--out", str(model)]) == 0
    spec.write_text("datasets = iris\niterations = 3\nrepetitions = 1\n", encoding="utf-8")
    return {
        "train": ["train", "--data", data, "--target-class", "setosa", "--iters", "3",
                  "--out", model],
        "predict": ["predict", "--model", model, "--data", data, "--label-column", "last"],
        "eval": ["eval", "--model", model, "--data", data, "--target-class", "setosa"],
        "bench": ["bench", "--spec", spec, "--data-dir", tmp_path],
        "curve": ["curve", "--spec", spec, "--task", "Iris1", "--rep", "1",
                  "--data-dir", tmp_path],
        "probe": ["probe", "--sizes", "2,3", "--iters", "1", "--repeats", "1",
                  "--out", tmp_path / "probe.csv"],
    }[command]


def assert_stdout_error(args, stdout, prefix=()):
    """Run the CLI in a child process with the given stdout: one error line
    on stderr, exit 1, no traceback and no report from the exit-time flush."""
    proc = subprocess.run(
        [*prefix, sys.executable, "-m", "refold", *map(str, args)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=str(REPO_ROOT),
        env=child_env(),
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("refold: error: OutputError: cannot write to stdout: ")
    return lines[0]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["train", "predict", "eval", "bench", "curve", "probe"])
def test_stdout_on_a_full_device_is_an_output_error(tmp_path, command):
    args = _stdout_command(command, tmp_path)
    with open("/dev/full", "w") as full:
        line = assert_stdout_error(args, full)
    assert line.endswith("No space left on device")


@pytest.mark.parametrize("command", ["train", "predict"])
def test_stdout_into_a_closed_pipe_is_an_output_error(tmp_path, command):
    # train's one short line waits in the buffer and fails at the flush;
    # predict's rows fail at the write
    args = _stdout_command(command, tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        line = assert_stdout_error(args, write_end)
    finally:
        os.close(write_end)
    assert line.endswith("Broken pipe")


@pytest.mark.parametrize("command", ["train", "predict"])
def test_closed_stdout_is_an_output_error(tmp_path, command):
    args = _stdout_command(command, tmp_path)
    close_stdout = ("/bin/sh", "-c", 'exec "$@" >&-', "sh")
    line = assert_stdout_error(args, None, close_stdout)
    assert line.endswith("it is closed")


# -------------------------------------------------------------------- probe

def test_probe_writes_table(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--sizes", "100,200,400", "--dim", "3", "--iters", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# refold-probe-v1"
    assert len([l for l in lines if l and not l.startswith("#") and l[0].isdigit()]) == 3


@pytest.mark.parametrize("sizes", ["abc", "100,2x0", "1.5"])
def test_probe_bad_sizes_is_a_config_error(tmp_path, capsys, sizes):
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--sizes", sizes, "--out", str(out)])
    assert "--sizes must be integers" in single_error_line(capsys, rc, "ConfigError")
    assert not out.exists()


@pytest.mark.parametrize("dim", ["-1", "0"])
def test_probe_bad_dim_is_a_config_error(tmp_path, capsys, dim):
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--sizes", "100", "--dim", dim, "--out", str(out)])
    assert "probe dim must be >= 1" in single_error_line(capsys, rc, "ConfigError")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_probe_out_of_range_seed_is_a_config_error(tmp_path, capsys, seed):
    # derive_seed masks to 64 bits, so these would alias seeds 2**64-1 and 0
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--sizes", "100", "--seed", seed, "--out", str(out)])
    assert "seed must be in 0..2**64-1" in single_error_line(capsys, rc, "ConfigError")
    assert not out.exists()


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag, default in (("--fold", "abs"), ("--iters", "101"), ("--delimiter", ",")):
        assert flag in text
        assert default in text

    with pytest.raises(SystemExit) as exc:
        main(["predict", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--threshold" in text and "1.0" in text
    assert "--dist" in text and "l1" in text


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "refold", "--help"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout and "probe" in proc.stdout
