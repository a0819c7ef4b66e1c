import gzip
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slimrnn.cli as cli
from slimrnn.cli import main
from slimrnn.data import IMAGE_MAGIC, TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES
from slimrnn.harness import EpochMetrics, TrainConfig

from .conftest import invert_40_to_59, synth_images, write_idx_images, write_idx_labels, write_mnist_dir


def test_count_params_reference_values(capsys):
    assert main(["count-params", "--hidden", "100"]) == 0
    got = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    assert got["lstm"] == "52610"
    assert got["lstm4"] == "14210"
    assert got["lstm5"] == "14510"
    assert got["lstm4a"] == "14010"
    assert got["lstm5a"] == "14110"
    assert got["lstm6"] == "13910"


def test_count_params_single_variant(capsys):
    assert main(["count-params", "--variant", "lstm6", "--hidden", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [f"lstm6 {28 + 1 + 1 + 10 + 10}"]


def test_train_end_to_end(tmp_path, capsys):
    write_mnist_dir(tmp_path, n_train=24, n_test=8)
    out = tmp_path / "m.csv"
    code = main(
        [
            "train",
            "--variant", "lstm6",
            "--activation", "tanh",
            "--eta", "1e-3",
            "--epochs", "2",
            "--batch-size", "8",
            "--hidden", "4",
            "--seed", "0",
            "--data-dir", str(tmp_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_acc,test_acc,train_loss,epoch_seconds"
    assert len(lines) == 3
    assert "best test_acc" in capsys.readouterr().out


def test_train_missing_data_exits_3(tmp_path, capsys):
    code = main(
        [
            "train",
            "--variant", "lstm6",
            "--activation", "tanh",
            "--epochs", "1",
            "--data-dir", str(tmp_path / "missing"),
        ]
    )
    assert code == 3
    assert "curl" in capsys.readouterr().err


def _spoil(directory, problem):
    """Overwrite part of a valid MNIST directory so that its data cannot be used."""
    if problem == "no-test-images":
        write_idx_images(directory / TEST_IMAGES, np.zeros((0, 28, 28)))
        write_idx_labels(directory / TEST_LABELS, [])
    elif problem == "zero-size-images":
        for name in (TRAIN_IMAGES, TEST_IMAGES):
            write_idx_images(directory / name, np.zeros((8, 0, 0)))
    elif problem == "huge-header":  # a claim numpy refuses without allocating anything
        header = (IMAGE_MAGIC, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
        (directory / TRAIN_IMAGES).write_bytes(b"".join(v.to_bytes(4, "big") for v in header))
    elif problem == "test-shape-mismatch":
        write_idx_images(directory / TEST_IMAGES, synth_images(8, 1, rows=28, cols=27)[0])
    elif problem == "gzip-does-not-inflate":
        train = directory / TRAIN_IMAGES
        train.write_bytes(invert_40_to_59(gzip.compress(train.read_bytes(), mtime=0)))
    else:  # "directory": a data path names a directory, not a file
        (directory / TRAIN_IMAGES).unlink()
        (directory / TRAIN_IMAGES).mkdir()


@pytest.mark.parametrize("command", ["train", "grid"])
@pytest.mark.parametrize(
    "problem",
    ["no-test-images", "zero-size-images", "huge-header", "test-shape-mismatch", "gzip-does-not-inflate", "directory"],
)
def test_unusable_data_exits_3(tmp_path, capsys, command, problem):
    write_mnist_dir(tmp_path, n_train=8, n_test=8)
    _spoil(tmp_path, problem)
    out = tmp_path / "out"
    variant = ["--variant", "lstm6", "--activation", "tanh"]
    code = main([command, *variant, "--epochs", "1", "--hidden", "4", "--data-dir", str(tmp_path), "--out", str(out)])
    assert code == 3
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_train_defaults_are_train_config_defaults(monkeypatch):
    seen = []

    def fake_train(config, verbose):
        seen.append(config)
        return [EpochMetrics(1, 0.0, 0.0, 0.0, 0.0)]

    monkeypatch.setattr(cli, "train", fake_train)
    assert main(["train", "--variant", "lstm", "--activation", "tanh"]) == 0
    assert seen == [TrainConfig("lstm", "tanh")]


def test_train_bad_eta_exits_2(tmp_path):
    write_mnist_dir(tmp_path, n_train=8, n_test=8)
    code = main(
        [
            "train",
            "--variant", "lstm6",
            "--activation", "tanh",
            "--eta", "-1",
            "--epochs", "1",
            "--data-dir", str(tmp_path),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_train_non_finite_eta_exits_2(tmp_path, eta, capsys):
    write_mnist_dir(tmp_path, n_train=8, n_test=8)
    code = main(
        [
            "train",
            "--variant", "lstm6",
            "--activation", "tanh",
            "--eta", eta,
            "--epochs", "1",
            "--data-dir", str(tmp_path),
        ]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_count_params_zero_hidden_exits_2(capsys):
    assert main(["count-params", "--hidden", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--hidden" in captured.err


def test_unknown_variant_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--variant", "gru", "--activation", "tanh"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_grid_end_to_end(tmp_path):
    write_mnist_dir(tmp_path, n_train=16, n_test=8)
    out_dir = tmp_path / "grid"
    code = main(
        [
            "grid",
            "--variant", "lstm6",
            "--activation", "tanh",
            "--eta", "0.001",
            "--epochs", "1",
            "--batch-size", "8",
            "--hidden", "4",
            "--data-dir", str(tmp_path),
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    summary = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 2
    assert summary[1].startswith("lstm6,tanh,0.001,")


def test_grid_bad_eta_exits_2_before_any_cell(tmp_path, capsys):
    write_mnist_dir(tmp_path, n_train=16, n_test=8)
    out_dir = tmp_path / "grid"
    code = main(
        [
            "grid",
            "--variant", "lstm6",
            "--activation", "tanh",
            "--eta", "0.001",
            "--eta", "-1",
            "--epochs", "1",
            "--batch-size", "8",
            "--hidden", "4",
            "--data-dir", str(tmp_path),
            "--out", str(out_dir),
        ]
    )
    assert code == 2
    assert "eta" in capsys.readouterr().err
    assert not out_dir.exists()


def _tree_state(root):
    # bytes and inode per file (inode alone per directory): a file replaced
    # by an identical copy still shows
    return {p.relative_to(root): (p.is_file() and p.read_bytes(), p.stat().st_ino) for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize(("rejection", "code"), [("bad-eta", 2), ("missing-data", 3)])
def test_rejected_grid_leaves_existing_out_dir_untouched(tmp_path, capsys, rejection, code):
    write_mnist_dir(tmp_path, n_train=16, n_test=8)
    out_dir = tmp_path / "grid"
    args = [
        "grid",
        "--variant", "lstm6",
        "--activation", "tanh",
        "--eta", "0.001",
        "--epochs", "1",
        "--batch-size", "8",
        "--hidden", "4",
        "--data-dir", str(tmp_path),
        "--out", str(out_dir),
    ]
    assert main(args) == 0
    before = _tree_state(out_dir)
    assert len(before) == 2
    extra = {"bad-eta": ["--eta", "-1"], "missing-data": ["--data-dir", str(tmp_path / "missing")]}
    assert main(args + extra[rejection]) == code
    capsys.readouterr()
    assert _tree_state(out_dir) == before


@pytest.mark.parametrize("case", ["train-dir", "grid-file", "train-parent-file", "grid-parent-file"])
def test_wrong_kind_out_exits_2_before_loading_data(tmp_path, capsys, case):
    # train --out names a directory, grid --out a regular file, or either
    # lies under a regular file: refused as a configuration error before
    # the (missing) data is looked for
    out = tmp_path / "out"
    if case == "train-dir":
        out.mkdir()
        (out / "keep.csv").write_text("an earlier run\n")
    else:
        out.write_text("an earlier run\n")
    if case.endswith("parent-file"):
        out = out / "sub" / "m.csv"
    before = _tree_state(tmp_path)
    command = ["train", "--variant", "lstm6", "--activation", "tanh"] if case.startswith("train") else ["grid"]
    code = main(command + ["--epochs", "1", "--data-dir", str(tmp_path / "missing"), "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert _tree_state(tmp_path) == before


# numpy refuses a parameter vector at this hidden size before allocating anything: for lstm its length,
# for lstm6 its size in bytes, is past the largest array numpy can make
UNALLOCATABLE_HIDDEN = "3000000000"


def test_train_model_numpy_cannot_allocate_exits_2_and_keeps_out(tmp_path, capsys):
    write_mnist_dir(tmp_path, n_train=16, n_test=8)
    out = tmp_path / "m.csv"
    out.write_text("an earlier run\n")
    before = _tree_state(tmp_path)
    code = main(
        [
            "train",
            "--variant", "lstm",
            "--activation", "tanh",
            "--hidden", UNALLOCATABLE_HIDDEN,
            "--data-dir", str(tmp_path),
            "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: lstm at hidden size 3000000000:"), err
    assert "36000000378000000010 parameters" in err[0]
    assert _tree_state(tmp_path) == before


def test_grid_records_a_model_numpy_cannot_allocate_as_a_nan_row(tmp_path, capsys):
    write_mnist_dir(tmp_path, n_train=16, n_test=8)
    out_dir = tmp_path / "grid"
    code = main(
        [
            "grid",
            "--variant", "lstm6",
            "--activation", "tanh",
            "--eta", "0.001",
            "--hidden", UNALLOCATABLE_HIDDEN,
            "--data-dir", str(tmp_path),
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "grid cell lstm6/tanh/eta=0.001 failed: lstm6 at hidden size 3000000000:" in err
    assert "Traceback" not in err
    rows = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert rows[1] == "lstm6,tanh,0.001,nan,nan,9000000117000000010,0"


@pytest.mark.parametrize("target_exists", [True, False], ids=["existing-target", "dangling"])
def test_train_out_through_symlink_writes_target(tmp_path, target_exists):
    write_mnist_dir(tmp_path, n_train=16, n_test=8)
    target = tmp_path / "runs" / "m.csv"
    target.parent.mkdir()
    if target_exists:
        target.write_text("an earlier run\n" * 10)
    link = tmp_path / "latest.csv"
    link.symlink_to(target)
    assert main(
        [
            "train",
            "--variant", "lstm6",
            "--activation", "tanh",
            "--epochs", "2",
            "--batch-size", "8",
            "--hidden", "4",
            "--data-dir", str(tmp_path),
            "--out", str(link),
        ]
    ) == 0
    assert link.is_symlink() and link.readlink() == target
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_acc,test_acc,train_loss,epoch_seconds"
    assert len(lines) == 3


def test_grad_check_cli_smoke(capsys):
    code = main(["grad-check", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all passed" in out
    assert out.count("PASS") == 42
    assert [line.count(" B=1 ") for line in out.splitlines()[:-1]] == [1] * 21 + [0] * 21
    assert [line.count(" B=3 ") for line in out.splitlines()[:-1]] == [0] * 21 + [1] * 21


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_grad_check_without_trials_exits_2(trials, capsys):
    code = main(["grad-check", "--trials", trials])
    captured = capsys.readouterr()
    assert code == 2
    assert "all passed" not in captured.out
    assert "--trials" in captured.err


def test_determinism_through_cli(tmp_path):
    write_mnist_dir(tmp_path, n_train=16, n_test=8)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(
            [
                "train",
                "--variant", "lstm4",
                "--activation", "sigmoid",
                "--epochs", "2",
                "--batch-size", "8",
                "--hidden", "4",
                "--seed", "7",
                "--data-dir", str(tmp_path),
                "--out", str(out),
            ]
        ) == 0
        outs.append(out.read_text())

    def strip_timing(text):
        return ["," .join(line.split(",")[:4]) for line in text.strip().splitlines()]

    assert strip_timing(outs[0]) == strip_timing(outs[1])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "slimrnn", "count-params", "--hidden", "100"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lstm 52610" in proc.stdout


# After main has run a command, one gradient digest per variant for a
# B = 32, n_h = 100 batch: large enough that OpenBLAS splits the backward
# pass's GEMMs between threads when it has more than one.
DIGESTS_AFTER_MAIN = """
import contextlib, hashlib, io
import numpy as np
from slimrnn.bptt import batch_loss_and_grads
from slimrnn.cells import Variant, VariantSpec, init_params
from slimrnn.cli import main
from slimrnn.data import SequenceBatch
with contextlib.redirect_stdout(io.StringIO()):
    main(["count-params"])
rng = np.random.default_rng(0)
batch = SequenceBatch(inputs=rng.uniform(size=(32, 28, 28)), labels=rng.integers(0, 10, size=32))
for variant in Variant:
    spec = VariantSpec.make(variant, "tanh")
    p, _ = init_params(spec, 28, 100, 10, seed=0)
    print(variant.value, hashlib.sha256(batch_loss_and_grads(spec, p, p, batch)[1].vec.tobytes()).hexdigest())
"""


def test_cli_runs_reproduce_bits_at_any_blas_thread_count():
    # Unpinned, 2 threads round the U gradient of every variant differently.
    src = str(Path(cli.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen([sys.executable, "-c", DIGESTS_AFTER_MAIN], stdout=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    ]
    try:
        outs = [proc.communicate(timeout=60)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert [proc.returncode for proc in procs] == [0, 0]
    assert len(outs[0].splitlines()) == 7
    assert outs[0] == outs[1]


def test_unpinnable_blas_runs_with_a_note(monkeypatch, capsys):
    monkeypatch.setattr(cli, "BLAS_SET_THREADS", ())
    assert main(["count-params", "--variant", "lstm6"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "lstm6 13910\n"
    assert len(captured.err.splitlines()) == 1 and "unpinned" in captured.err
