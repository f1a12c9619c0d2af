"""CLI tests: flag surface, output formats, exit codes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from refold.bench import BenchSpec
from refold.cli import main
from refold.core import RefModel, classify
from refold.errors import ConfigError
from refold.model_io import load_model

REPO_ROOT = Path(__file__).resolve().parents[1]


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


def test_predict_golden_bytes(tmp_path, capsys):
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
    assert main(["train", "--data", str(labeled), "--target-class", "t",
                 "--out", model]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", model, "--data", str(plain)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_PREDICT
    assert main(["predict", "--model", model, "--data", str(labeled),
                 "--label-column", "last"]) == 0
    assert capsys.readouterr().out == out


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


def test_eval_golden_bytes(trained_model, tmp_path, capsys):
    # the fixture's versicolor model on its own labeled file, one run per
    # Iris class (setosa gives tpr=0 and gmean=0), then a 101-iteration
    # versicolor model under the l2 distance and threshold 0.1
    model_path, data = trained_model
    runs = [[model_path, c, "l1", "1.0"] for c in ("setosa", "versicolor", "virginica")]
    model_101 = str(tmp_path / "m101.refold")
    assert main(["train", "--data", data, "--target-class", "versicolor",
                 "--out", model_101]) == 0
    runs += [[model_101, c, "l2", "0.1"] for c in ("setosa", "versicolor", "virginica")]
    capsys.readouterr()
    out = ""
    for model, target, dist, threshold in runs:
        assert main(["eval", "--model", model, "--data", data, "--target-class", target,
                     "--dist", dist, "--threshold", threshold]) == 0
        out += capsys.readouterr().out
    assert out.count("\n") == 6
    assert out.startswith("tp=0 fn=50 ")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_EVAL


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
    # numpy refuses this 142 PiB matrix before allocating any of it
    argv = ["probe", "--sizes", "1000000000000000", "--repeats", "1", "--iters", "1",
            "--out", str(tmp_path / "probe.csv")]
    line = single_error_line(capsys, main(argv), "MemoryError")
    assert line.endswith("Unable to allocate 142. PiB for an array with shape "
                         "(1000000000000000, 20) and data type float64")
    assert not (tmp_path / "probe.csv").exists()


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


@pytest.mark.parametrize("caller", ["classify", "predict", "eval", "spec"])
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
        if caller == "classify":
            classify([0.5], RefModel([[0.0]], [[1.0]], "abs"), threshold=0)
        else:
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
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
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
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout and "probe" in proc.stdout
