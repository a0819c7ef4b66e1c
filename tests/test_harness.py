import math
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import slimrnn.harness as harness
from slimrnn import bptt
from slimrnn.bptt import Workspace
from slimrnn.cells import Activation, Variant, VariantSpec, init_params, layout
from slimrnn.data import DataError, Dataset, Split, batches, check_dataset
from slimrnn.harness import (
    METRICS_HEADER,
    ConfigError,
    EpochMetrics,
    TrainConfig,
    best_of,
    evaluate,
    run_grid,
    train,
)

from .conftest import synth_dataset, synth_split, traced_peak_mb
from .fixtures.freeze import load, metrics_text
from .test_cells import zeroed_params


def small_config(**overrides):
    base = dict(
        variant="lstm6",
        activation="tanh",
        eta=1e-3,
        epochs=2,
        batch_size=8,
        n_h=6,
        seed=0,
        metrics_path=None,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(eta=0.0).validate()
    with pytest.raises(ConfigError):
        small_config(epochs=0).validate()
    with pytest.raises(ConfigError):
        small_config(variant="gru").validate()
    with pytest.raises(ConfigError):
        small_config(train_limit=0).validate()


def test_evaluate_zero_logits_tie_breaks_to_class_zero():
    spec, model, _ = zeroed_params("lstm6", "tanh", 4, 3, 10)
    labels = np.array([0, 0, 1, 2, 0], dtype=np.int64)
    split = Split(sequences=np.zeros((5, 2, 4), dtype=np.uint8), labels=labels)
    assert evaluate(spec, model, split, Workspace()) == pytest.approx(3 / 5)


def test_evaluate_singleton_correct():
    spec, model, _ = zeroed_params("lstm6", "tanh", 4, 3, 10)
    split = Split(sequences=np.zeros((1, 2, 4), dtype=np.uint8), labels=np.array([0], dtype=np.int64))
    assert evaluate(spec, model, split, Workspace()) == 1.0


def test_evaluate_constructed_two_of_three():
    # zero cell state makes logits equal b_y; argmax points at class 1
    spec, model, _ = zeroed_params("srn", "tanh", 4, 3, 3)
    model["b_y"] = [0.0, 1.0, 0.5]
    labels = np.array([1, 1, 2], dtype=np.int64)
    split = Split(sequences=np.zeros((3, 2, 4), dtype=np.uint8), labels=labels)
    assert evaluate(spec, model, split, Workspace()) == pytest.approx(2 / 3)


@pytest.mark.parametrize("variant", list(Variant))
def test_evaluate_with_workspace_allocates_under_half_a_mb(variant):
    # 100 examples at the paper's shapes; the first call sizes and grows the
    # workspace. With fresh arrays an evaluation in chunks of 128 allocated
    # 7.5 MB (srn) to 34.7 MB (lstm).
    spec = VariantSpec.make(variant, "tanh")
    p, _ = init_params(spec, 28, 100, 10, seed=0)
    split = synth_split(100, seed=2)
    ws = Workspace()
    evaluate(spec, p, split, ws)
    assert traced_peak_mb(lambda: evaluate(spec, p, split, ws)) <= 0.5


@pytest.mark.parametrize("variant", list(Variant))
def test_evaluate_accuracy_does_not_depend_on_chunking(monkeypatch, variant):
    # Accuracies, not logits: OpenBLAS rounds the remainder columns of a
    # chunk of 1, 7 or 100 examples differently, by up to ~4e-12 per logit.
    spec = VariantSpec.make(variant, "relu")
    p, _ = init_params(spec, 28, 8, 10, seed=1)
    split = synth_split(100, seed=4)
    accuracies = set()
    for chunk in (1, 32, 128):
        monkeypatch.setattr(harness, "EVAL_CHUNK", chunk)
        accuracies.add(evaluate(spec, p, split, Workspace()))
    assert len(accuracies) == 1


def test_evaluate_makes_no_workspace_of_its_own(monkeypatch):
    # forward_sequence makes a private workspace per call when given none,
    # so an evaluation of 100 examples that passed none on would build one per chunk
    made = []

    class Counted(Workspace):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(harness, "Workspace", Counted)
    monkeypatch.setattr(bptt, "Workspace", Counted)
    spec = VariantSpec.make("lstm6", "tanh")
    p, _ = init_params(spec, 28, 8, 10, seed=0)
    ws = Counted()
    evaluate(spec, p, synth_split(100, seed=2), ws)
    assert made == [ws]


def test_evaluate_rejects_empty_split():
    spec, model, _ = zeroed_params("lstm6", "tanh", 4, 3, 10)
    split = Split(sequences=np.zeros((0, 2, 4), dtype=np.uint8), labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        evaluate(spec, model, split, Workspace())


def row(epoch, train_acc, test_acc):
    return EpochMetrics(epoch, train_acc, test_acc, 0.5, 1.0)


def test_best_of_singleton():
    best = best_of([row(1, 0.4, 0.3)])
    assert (best.best_train, best.best_test, best.best_test_epoch) == (0.4, 0.3, 1)


def test_best_of_independent_maxima():
    rows = [row(1, 0.9, 0.5), row(2, 0.2, 0.9), row(3, 0.3, 0.7)]
    best = best_of(rows)
    assert best.best_train == 0.9
    assert best.best_test == 0.9
    assert best.best_test_epoch == 2


def test_best_of_tie_prefers_earliest_epoch():
    best = best_of([row(1, 0.1, 0.8), row(2, 0.1, 0.8)])
    assert best.best_test_epoch == 1


def test_best_of_rejects_empty():
    with pytest.raises(ValueError):
        best_of([])


def test_train_smoke(tmp_path):
    out = tmp_path / "metrics.csv"
    metrics = train(small_config(metrics_path=out), dataset=synth_dataset(24, 8))
    assert len(metrics) == 2
    for m in metrics:
        assert 0.0 <= m.train_accuracy <= 1.0
        assert 0.0 <= m.test_accuracy <= 1.0
        assert math.isfinite(m.mean_train_loss) and m.mean_train_loss >= 0.0
        assert m.epoch_seconds > 0.0
    assert [m.epoch for m in metrics] == [1, 2]
    lines = out.read_text().strip().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 3


def test_train_learns_synthetic_stripes():
    # One run's accuracy on 48 test examples swings with rounding-level
    # changes to the arithmetic, so the bar applies to the median over seeds.
    dataset = synth_dataset(192, 48)
    best_tests = []
    for seed in range(5):
        config = small_config(variant="lstm6", eta=2e-3, epochs=8, n_h=24, batch_size=16, seed=seed)
        metrics = train(config, dataset=dataset)
        best_tests.append(best_of(metrics).best_test)
        assert metrics[-1].mean_train_loss < metrics[0].mean_train_loss, seed
    assert statistics.median(best_tests) >= 0.6, best_tests


def test_train_is_deterministic():
    ds = synth_dataset(24, 8)
    a = train(small_config(), dataset=ds)
    b = train(small_config(), dataset=ds)
    for ra, rb in zip(a, b):
        assert ra.train_accuracy == rb.train_accuracy
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.mean_train_loss == rb.mean_train_loss


def test_train_reproduces_frozen_trajectories():
    # fixtures/train_metrics.json holds the metrics CSVs (timing aside) of
    # 21 short runs as an earlier commit's code wrote them: any change to
    # the initial draws, a gradient or the RMSprop update's floating-point
    # order shows up as a changed byte
    frozen = load("train_metrics.json")
    assert len(frozen) == len(Variant) * len(Activation)
    for v in Variant:
        for a in Activation:
            assert metrics_text(v, a) == frozen[f"{v.value}/{a.value}"], (v.value, a.value)


def test_train_seed_changes_trajectory():
    ds = synth_dataset(24, 8)
    a = train(small_config(epochs=1), dataset=ds)
    b = train(small_config(epochs=1, seed=1), dataset=ds)
    assert a[0].mean_train_loss != b[0].mean_train_loss


def test_train_survives_divergence(tmp_path):
    # an absurd learning rate with relu drives the loss non-finite; training
    # must keep recording rows rather than abort
    out = tmp_path / "metrics.csv"
    config = small_config(variant="srn", activation="relu", eta=1e308, epochs=3, metrics_path=out)
    with np.errstate(all="ignore"):
        metrics = train(config, dataset=synth_dataset(24, 8))
    assert len(metrics) == 3
    assert any(not math.isfinite(m.mean_train_loss) for m in metrics)
    assert len(out.read_text().strip().splitlines()) == 4


def test_run_grid_structure(tmp_path):
    ds = synth_dataset(16, 8)
    summary = run_grid(
        ["lstm6", "lstm4a"],
        ["tanh"],
        [1e-3],
        small_config(epochs=1),
        tmp_path,
        dataset=ds,
    )
    lines = summary.read_text().strip().splitlines()
    assert lines[0] == harness.SUMMARY_HEADER
    assert len(lines) == 3
    assert (tmp_path / "lstm6_tanh_eta0.001.csv").exists()
    assert (tmp_path / "lstm4a_tanh_eta0.001.csv").exists()
    first = lines[1].split(",")
    assert first[0] == "lstm6"
    expected = layout("lstm6", 28, 6, 10).size
    assert first[5] == str(expected)


def test_run_grid_single_cell_matches_train(tmp_path):
    ds = synth_dataset(16, 8)
    config = small_config(epochs=2)
    summary = run_grid(["lstm6"], ["tanh"], [1e-3], config, tmp_path, dataset=ds)
    direct = best_of(train(config, dataset=ds))
    cells = summary.read_text().strip().splitlines()[1].split(",")
    assert float(cells[3]) == direct.best_train
    assert float(cells[4]) == direct.best_test


def test_run_grid_records_failures_and_continues(tmp_path, monkeypatch):
    ds = synth_dataset(16, 8)
    real_train = harness.train

    def flaky(config, dataset=None, verbose=False):
        if config.variant == "lstm4a":
            raise RuntimeError("boom")
        return real_train(config, dataset=dataset, verbose=verbose)

    monkeypatch.setattr(harness, "train", flaky)
    summary = run_grid(
        ["lstm6", "lstm4a"], ["tanh"], [1e-3], small_config(epochs=1), tmp_path, dataset=ds
    )
    lines = summary.read_text().strip().splitlines()
    assert len(lines) == 3
    good = lines[1].split(",")
    bad = lines[2].split(",")
    assert good[0] == "lstm6" and float(good[4]) >= 0.0
    assert bad[0] == "lstm4a" and math.isnan(float(bad[4]))


@pytest.mark.parametrize("empty", ["train", "test"])
def test_injected_empty_split_raises_data_error(empty, tmp_path):
    splits = {"train": synth_split(8, 0), "test": synth_split(8, 1)}
    splits[empty] = Split(sequences=np.zeros((0, 28, 28), dtype=np.uint8), labels=np.zeros(0, dtype=np.int64))
    ds = Dataset(**splits)
    out_dir = tmp_path / "grid"
    with pytest.raises(DataError, match=empty):
        run_grid(["lstm6"], ["tanh"], [1e-3], small_config(epochs=1), out_dir, dataset=ds)
    assert not out_dir.exists()
    with pytest.raises(DataError, match=empty):
        train(small_config(epochs=1), dataset=ds)


# pixels that are neither uint8 nor float64 already in [0, 1]: the engine would get them scaled wrongly
WRONG_PIXELS = {
    "int64": lambda images: images.astype(np.int64),
    "float32": lambda images: images.astype(np.float32) / 255,
    "float64": lambda images: images.astype(np.float64),  # not yet scaled
}


@pytest.mark.parametrize("kind", WRONG_PIXELS)
@pytest.mark.parametrize("name", ["train", "test"])
def test_injected_split_of_other_pixels_raises_data_error(name, kind, tmp_path):
    splits = {"train": synth_split(8, 0), "test": synth_split(8, 1)}
    splits[name] = replace(splits[name], sequences=WRONG_PIXELS[kind](splits[name].sequences))
    ds = Dataset(**splits)
    out_dir = tmp_path / "grid"
    with pytest.raises(DataError, match=f"the {name} split's .*{kind}"):
        run_grid(["lstm6"], ["tanh"], [1e-3], small_config(epochs=1), out_dir, dataset=ds)
    assert not out_dir.exists()
    with pytest.raises(DataError, match=f"the {name} split's .*{kind}"):
        train(small_config(epochs=1), dataset=ds)


# injected splits the engine cannot use: each failed only once training ran, after the grid had written its files
UNUSABLE = {
    "more labels than images": (lambda s: replace(s, labels=np.concatenate([s.labels, s.labels[:2]])), "labels"),
    "fewer labels than images": (lambda s: replace(s, labels=s.labels[:-2]), "labels"),
    "label 11": (lambda s: replace(s, labels=np.where(np.arange(len(s)) == 3, 11, s.labels)), "label 11 at index 3"),
    "label -1": (lambda s: replace(s, labels=np.where(np.arange(len(s)) == 5, -1, s.labels)), "label -1 at index 5"),
    "float labels": (lambda s: replace(s, labels=s.labels.astype(np.float64)), "labels are float64"),
    "pixels of shape (0,)": (lambda s: replace(s, sequences=np.zeros(0, dtype=np.uint8)), r"shape \(0,\)"),
}


@pytest.mark.parametrize("case", UNUSABLE)
@pytest.mark.parametrize("name", ["train", "test"])
def test_injected_unusable_split_raises_data_error_before_the_grid_writes(name, case, tmp_path):
    splits = {"train": synth_split(10, 0), "test": synth_split(10, 1)}
    spoil, says = UNUSABLE[case]
    splits[name] = spoil(splits[name])
    ds = Dataset(**splits)
    with pytest.raises(DataError, match=f"the {name} split.*{says}"):
        check_dataset(ds)
    out_dir = tmp_path / "grid"
    with pytest.raises(DataError, match=f"the {name} split.*{says}"):
        run_grid(["lstm6"], ["tanh"], [1e-3], small_config(epochs=1), out_dir, dataset=ds)
    assert not out_dir.exists()


def test_injected_float_split_is_not_scaled_again():
    ds = synth_dataset(16, 8)
    pre = Dataset(*(replace(s, sequences=s.sequences.astype(np.float64) / 255.0) for s in (ds.train, ds.test)))
    rows = [replace(train(small_config(), dataset=d)[-1], epoch_seconds=0.0) for d in (pre, ds)]
    assert rows[0] == rows[1]


def test_one_epoch_allocates_about_one_scaled_batch_at_a_time():
    # One float64 copy of this 2,000-example split is 12.5 MB: scaling the
    # whole split, or listing an epoch's batches, would allocate that much.
    ds = synth_dataset(2000, 32)
    float_copy_mb = ds.train.sequences.size * 8 / 1e6
    batch_mb = 32 * 28 * 28 * 8 / 1e6
    assert traced_peak_mb(lambda: train(small_config(epochs=1, batch_size=32, n_h=2), dataset=ds)) < float_copy_mb
    # the next batch is scaled while the last one is still held
    assert traced_peak_mb(lambda: [len(b) for b in batches(ds.train, 32, seed=0, epoch=1)]) < 2.5 * batch_mb


def test_each_grid_cell_runs_in_its_own_workspace(tmp_path, monkeypatch):
    made = []

    class Counted(Workspace):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(harness, "Workspace", Counted)
    run_grid(["lstm6", "srn"], ["tanh", "relu"], [1e-3], small_config(epochs=1), tmp_path, dataset=synth_dataset(16, 8))
    assert len(made) == 4


def test_train_grows_its_workspace_once(monkeypatch):
    # The first batch sizes the buffer for every later batch, the short last
    # batch and the evaluation chunks (EVAL_CHUNK = the batch size).
    grown = []

    class Counted(Workspace):
        def carve(self, *args):
            before = self._buf
            trace = super().carve(*args)
            if self._buf is not before:
                grown.append(len(self._buf))
            return trace

    monkeypatch.setattr(harness, "Workspace", Counted)
    config = small_config(variant="lstm", epochs=1, batch_size=32, n_h=100)
    train(config, dataset=synth_dataset(40, 8))
    assert grown == [sum(map(math.prod, bptt._carved(layout("lstm", 28, 100, 10), 28, 32).values()))]


def test_run_grid_cells_match_separate_train_runs(tmp_path):
    # a grid cell is a train run like any other: cells of three layouts in turn leave nothing to the next
    ds = synth_dataset(24, 8)
    base = small_config(epochs=2)
    variants, activations = ["lstm", "lstm6", "srn"], ["tanh", "relu"]
    run_grid(variants, activations, [base.eta], base, tmp_path / "grid", dataset=ds)

    def without_seconds(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    for v in variants:
        for a in activations:
            name = f"{v}_{a}_eta{base.eta:g}.csv"
            train(replace(base, variant=v, activation=a, metrics_path=tmp_path / name), dataset=ds)
            assert without_seconds(tmp_path / "grid" / name) == without_seconds(tmp_path / name), name


def test_run_grid_rejects_empty_axes(tmp_path):
    with pytest.raises(ConfigError):
        run_grid([], ["tanh"], [1e-3], small_config(), tmp_path, dataset=synth_dataset(8, 8))


@pytest.mark.parametrize("axes", [(["bogus"], ["tanh"]), (["lstm6"], ["bogus"])])
def test_run_grid_rejects_unknown_names_as_config_error(tmp_path, axes):
    out_dir = tmp_path / "grid"
    with pytest.raises(ConfigError, match="bogus"):
        run_grid(*axes, [1e-3], small_config(), out_dir, dataset=synth_dataset(8, 8))
    assert not out_dir.exists()


def test_run_grid_validates_every_cell_before_running(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "train", lambda config, **kw: ran.append(config))
    out_dir = tmp_path / "grid"
    for eta in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            run_grid(["lstm6", "lstm4a"], ["tanh"], [1e-3, eta], small_config(), out_dir,
                     dataset=synth_dataset(8, 8))
    # cells whose metrics files would share a name: a repeated variant, or
    # two etas that print alike under :g
    for variants, etas in ((["lstm6", "lstm4a", "lstm6"], [1e-3]), (["lstm6"], [1e-4, 1.0000001e-4])):
        with pytest.raises(ConfigError, match="share a metrics file"):
            run_grid(variants, ["tanh"], etas, small_config(), out_dir, dataset=synth_dataset(8, 8))
    assert ran == []
    assert not out_dir.exists()


def test_run_grid_rerun_replaces_files_without_truncating(tmp_path, monkeypatch):
    # A re-run into the same out_dir must reproduce the same bytes (timing
    # aside) and must never open an existing file for writing: truncating a
    # non-empty file can stall on the disk, so the old file is unlinked and
    # a new one created in its place.
    ds = synth_dataset(16, 8)
    config = small_config(epochs=2)
    cell = tmp_path / "lstm6_tanh_eta0.001.csv"

    def snapshot():
        metrics = [line.rsplit(",", 1)[0] for line in cell.read_text().splitlines()]
        return (tmp_path / "summary.csv").read_bytes(), metrics

    run_grid(["lstm6"], ["tanh"], [1e-3], config, tmp_path, dataset=ds)
    first = snapshot()

    opened = []

    def spy(file, mode="r", *args, **kwargs):
        opened.append((Path(file), mode, Path(file).exists()))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(harness, "open", spy, raising=False)
    run_grid(["lstm6"], ["tanh"], [1e-3], config, tmp_path, dataset=ds)
    assert snapshot() == first
    assert sorted(p.name for p, _, _ in opened) == [cell.name, "summary.csv"]
    writes_over_existing = [(p, mode) for p, mode, existed in opened if existed and set(mode) & set("wax+")]
    assert writes_over_existing == []


def test_run_grid_full_grid_completes(tmp_path):
    # the whole 6 x 3 x 3 protocol grid, shrunk to stay fast: 54 cells in,
    # 54 summary rows out, one metrics file per cell
    ds = synth_dataset(16, 8)
    variants = ["lstm", "lstm4", "lstm5", "lstm4a", "lstm5a", "lstm6"]
    etas = [1e-4, 1e-3, 2e-3]
    summary = run_grid(
        variants,
        ["tanh", "sigmoid", "relu"],
        etas,
        small_config(epochs=1, n_h=3, batch_size=16),
        tmp_path,
        dataset=ds,
    )
    lines = summary.read_text().strip().splitlines()
    assert len(lines) == 1 + 54
    assert len(list(tmp_path.glob("*_eta*.csv"))) == 54


def test_metrics_stream_survives_a_crash(tmp_path, monkeypatch):
    # rows must hit the file as epochs finish, not on successful completion
    out = tmp_path / "metrics.csv"
    calls = {"n": 0}
    real_evaluate = harness.evaluate

    def dying_evaluate(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 2:  # die during epoch 2's evaluation
            raise KeyboardInterrupt
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate", dying_evaluate)
    with pytest.raises(KeyboardInterrupt):
        train(small_config(epochs=5, metrics_path=out), dataset=synth_dataset(16, 8))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 2  # header plus the completed first epoch
