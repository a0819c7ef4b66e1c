"""Acceptance suite: one test per release criterion, each printing a verdict.

Criteria needing the real MNIST files look for them under $SLIMRNN_DATA_DIR
(default ./data) and skip with download instructions when absent. The two
long-running reproduction criteria additionally require SLIMRNN_FULL=1.
Everything else runs hermetically on synthetic fixtures.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from slimrnn.cli import main
from slimrnn.data import (
    TRAIN_IMAGES,
    batches,
    load_dataset,
    read_idx_images,
    read_idx_labels,
)
from slimrnn import harness
from slimrnn.bptt import Workspace, forward_sequence
from slimrnn.cells import VariantSpec, init_params
from slimrnn.data import Split
from slimrnn.gradcheck import check_all
from slimrnn.harness import TrainConfig, best_of, train

from .conftest import synth_dataset, write_idx_images, write_idx_labels, write_mnist_dir

TABLE_COUNTS = {
    "lstm": 52610,
    "lstm4": 14210,
    "lstm5": 14510,
    "lstm4a": 14010,
    "lstm5a": 14110,
    "lstm6": 13910,
}

# best test accuracy at tanh, eta=1e-3, 100 epochs, full MNIST
TABLE_TANH_1E3 = {
    "lstm": 0.9909,
    "lstm4": 0.9853,
    "lstm5": 0.9835,
    "lstm4a": 0.9803,
    "lstm5a": 0.9820,
    "lstm6": 0.9792,
}

FULL_RUNS = os.environ.get("SLIMRNN_FULL") == "1"


def mnist_dir() -> Path | None:
    d = Path(os.environ.get("SLIMRNN_DATA_DIR", "data"))
    for name in (TRAIN_IMAGES, TRAIN_IMAGES + ".gz"):
        if (d / name).exists():
            return d
    return None


needs_mnist = pytest.mark.skipif(
    mnist_dir() is None,
    reason="MNIST IDX files not found; set SLIMRNN_DATA_DIR or place them under ./data "
    "(see README for download instructions)",
)
needs_full = pytest.mark.skipif(
    not FULL_RUNS, reason="long-running reproduction; set SLIMRNN_FULL=1 to enable"
)


def test_criterion_1_parameter_counts(capsys):
    t0 = time.perf_counter()
    assert main(["count-params", "--hidden", "100"]) == 0
    got = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    for variant, expected in TABLE_COUNTS.items():
        assert int(got[variant]) == expected, variant
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: parameter counts exact for all six variants ({elapsed:.2f}s)")


def test_criterion_2_gradient_checks(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for batch_size in (1, 3):
        results = check_all(seeds=(0, 1, 2), n_in=3, n_h=5, n_out=4, T=4, batch_size=batch_size)
        assert len(results) == 7 * 3 * 3
        worst = max([worst] + [r.max_rel_err for r in results])
        for r in results:
            assert r.compared > 0, (r.variant, r.activation, r.seed, batch_size)
            assert r.max_rel_err < 1e-4, (r.variant, r.activation, r.seed, batch_size, r.max_rel_err)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 2 PASS: 63 gradient checks < 1e-4 at batch sizes 1 and 3 "
            f"(worst {worst:.2e}, {elapsed:.1f}s)"
        )


@needs_mnist
def test_criterion_3_desk_scale_learning(capsys):
    data = mnist_dir()
    best = {}
    for variant in ("lstm", "lstm6"):
        config = TrainConfig(
            variant=variant,
            activation="tanh",
            eta=1e-3,
            epochs=10,
            batch_size=32,
            n_h=100,
            seed=0,
            train_limit=6000,
            test_limit=1000,
            data_dir=data,
        )
        best[variant] = best_of(train(config)).best_test
        assert best[variant] >= 0.90, (variant, best[variant])
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 3 PASS: desk-scale test accuracy lstm={best['lstm']:.4f}, "
            f"lstm6={best['lstm6']:.4f} (both >= 0.90)"
        )


@needs_full
@needs_mnist
def test_criterion_4_full_reproduction(tmp_path, capsys):
    data = mnist_dir()
    report = []
    for variant, target in TABLE_TANH_1E3.items():
        achieved = -1.0
        for seed in (0, 1):
            config = TrainConfig(
                variant=variant, activation="tanh", eta=1e-3, epochs=100,
                batch_size=32, n_h=100, seed=seed, data_dir=data,
                metrics_path=tmp_path / f"full-repro-{variant}-seed{seed}.csv",
            )
            achieved = max(achieved, best_of(train(config, verbose=True)).best_test)
            if abs(achieved - target) <= 0.010 or achieved > target:
                break
        report.append(f"{variant}={achieved:.4f} (target {target:.4f})")
        assert achieved >= target - 0.010, (variant, achieved, target)
    with capsys.disabled():
        print("\nACCEPTANCE 4 PASS: " + ", ".join(report))


@needs_full
@needs_mnist
def test_criterion_5_relu_instability(tmp_path, capsys):
    data = mnist_dir()
    finals = {}
    bests = {}
    for variant in ("lstm4", "lstm5", "lstm4a", "lstm5a", "lstm6"):
        config = TrainConfig(
            variant=variant, activation="relu", eta=2e-3, epochs=100,
            batch_size=32, n_h=100, seed=0, data_dir=data,
            metrics_path=tmp_path / f"relu-collapse-{variant}.csv",
        )
        metrics = train(config, verbose=True)
        finals[variant] = metrics[-1].test_accuracy
        bests[variant] = best_of(metrics).best_test
    collapsed = [v for v in ("lstm4a", "lstm5a", "lstm6") if finals[v] < 0.2]
    assert len(collapsed) >= 2, finals
    assert bests["lstm4"] > 0.95, bests
    assert bests["lstm5"] > 0.95, bests
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 5 PASS: collapsed={collapsed}, "
            f"lstm4 best={bests['lstm4']:.4f}, lstm5 best={bests['lstm5']:.4f}"
        )


def test_criterion_6_epoch_time_ordering(capsys):
    # Full model shapes (T=28, n_in=28, n_h=100, batches of 32); the number
    # of batches per epoch only scales every variant's epoch time by the
    # same factor, so the ordering is measured faithfully on a subset. With
    # SLIMRNN_FULL=1 and the real files present it uses all of MNIST.
    data = mnist_dir()
    if FULL_RUNS and data is not None:
        dataset = load_dataset(data, train_limit=None, test_limit=64)
    else:
        dataset = synth_dataset(512, 32)
    # The fastest of several epochs is the least disturbed by other load on
    # the machine, which only ever adds time. The variants take their epochs
    # in turn, one each per round, so that a slow spell of the machine hits
    # all of them alike; each round is a fresh one-epoch run from the same
    # seed, with a workspace of its own.
    variants = ("lstm", "lstm4", "lstm4a", "lstm6")
    seconds = {variant: [] for variant in variants}
    for _ in range(5):
        for variant in variants:
            config = TrainConfig(
                variant=variant, activation="tanh", eta=1e-3, epochs=1,
                batch_size=32, n_h=100, seed=0,
            )
            seconds[variant] += [m.epoch_seconds for m in train(config, dataset=dataset)]
    fastest = {variant: min(s) for variant, s in seconds.items()}
    assert fastest["lstm"] > fastest["lstm4"] > fastest["lstm4a"] > fastest["lstm6"], fastest
    with capsys.disabled():
        pretty = ", ".join(f"{k}={v:.2f}s" for k, v in fastest.items())
        print(f"\nACCEPTANCE 6 PASS: fastest-of-5 optimization epoch times ordered ({pretty})")


def test_criterion_7_bitwise_determinism(tmp_path, capsys):
    write_mnist_dir(tmp_path, n_train=48, n_test=16)
    texts = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(
            [
                "train",
                "--variant", "lstm4a",
                "--activation", "tanh",
                "--eta", "1e-3",
                "--epochs", "3",
                "--batch-size", "16",
                "--hidden", "8",
                "--seed", "123",
                "--data-dir", str(tmp_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        texts.append(out.read_text())

    # epoch_seconds is wall-clock and cannot repeat; every learned quantity must.
    def drop_timing(text):
        return "\n".join(",".join(line.split(",")[:4]) for line in text.strip().splitlines())

    assert drop_timing(texts[0]) == drop_timing(texts[1])
    with capsys.disabled():
        print("\nACCEPTANCE 7 PASS: two serial runs produced identical metrics "
              "(all columns except wall-clock epoch_seconds)")


def test_criterion_8_data_layer_properties(tmp_path, capsys, monkeypatch):
    # IDX round-trip exactness, plain and gzipped
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    for suffix in ("", ".gz"):
        ipath = tmp_path / f"imgs{suffix}"
        lpath = tmp_path / f"labels{suffix}"
        write_idx_images(ipath, images)
        write_idx_labels(lpath, labels)
        back, count = read_idx_images(ipath)
        assert count == len(images) and np.array_equal(back, images)
        assert np.array_equal(read_idx_labels(lpath), labels)

    # per-epoch batch partition: every example exactly once
    n = 101
    sequences = np.zeros((n, 2, 2), dtype=np.uint8)
    sequences[:, 0, 0] = np.arange(n)
    split = Split(sequences=sequences, labels=np.zeros(n, dtype=np.int64))
    for epoch in (1, 2, 3):
        got = batches(split, batch_size=32, seed=9, epoch=epoch)
        ids = sorted(int(round(v * 255)) for b in got for v in b.inputs[:, 0, 0])
        assert ids == list(range(n))
        assert [len(b) for b in got] == [32, 32, 32, 5]

    # normalization bounds: a split keeps uint8 pixels, and every training
    # batch and evaluation chunk reaches the engine as images / 255 exactly
    pixels = synth_dataset(40, 8).train.sequences
    assert pixels.dtype == np.uint8
    want = pixels.astype(np.float64) / 255.0
    tagged = Split(sequences=pixels, labels=np.arange(len(pixels)))
    for batch in batches(tagged, batch_size=16, seed=0, epoch=1):
        assert batch.inputs.tobytes() == want[batch.labels].tobytes()
        assert 0.0 <= float(batch.inputs.min()) and float(batch.inputs.max()) <= 1.0
    received = []

    def recording(spec, cell, head, x, ws):
        received.append(np.swapaxes(x, 0, 1).copy())
        return forward_sequence(spec, cell, head, x, ws)

    monkeypatch.setattr(harness, "forward_sequence", recording)
    spec = VariantSpec.make("lstm6", "tanh")
    model, _ = init_params(spec, 28, 4, 10, seed=0)
    harness.evaluate(spec, model, tagged, Workspace())
    assert np.concatenate(received).tobytes() == want.tobytes()
    data = mnist_dir()
    if data is not None:
        real = load_dataset(data, train_limit=256, test_limit=64)
        assert real.train.sequences.dtype == np.uint8
        assert real.train.sequences.shape[1:] == (28, 28)
        inputs = batches(real.train, batch_size=256, seed=0, epoch=1)[0].inputs
        assert 0.0 <= float(inputs.min()) and float(inputs.max()) <= 1.0
    with capsys.disabled():
        print("\nACCEPTANCE 8 PASS: IDX round-trip exact, batches partition every epoch, "
              "pixel values stay in [0, 1]")
