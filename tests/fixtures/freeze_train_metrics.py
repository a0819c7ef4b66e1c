"""Freeze whole training trajectories as a regression reference.

For every variant x activation configuration (21 in all) this trains two
epochs on the synthetic stripe data of ``tests/conftest.py`` (41 training
examples, so the last batch of 8 holds a single example, and 16 test
examples; n_h=6, eta=2e-3, seed 5) and writes the metrics CSV that
``harness.train`` streams, without its ``epoch_seconds`` column, to
``train_metrics.json`` next to this script, under the key
``<variant>/<activation>``.

Every number in those rows depends on the initial draw order, on every
gradient and on the RMSprop update's floating-point order, so the
reference pins the whole trajectory bit for bit. The committed file was
written by the code before the parameters moved into one flat vector
(commit fa05651). Run against a checkout's own code, from the repository
root, with

    PYTHONPATH=src python -m tests.fixtures.freeze_train_metrics [out.json]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from slimrnn.cells import Activation, Variant
from slimrnn.harness import TrainConfig, train

from ..conftest import synth_dataset

N_TRAIN, N_TEST = 41, 16
OUT = Path(__file__).with_name("train_metrics.json")


def metrics_text(variant: Variant, activation: Activation) -> str:
    """The metrics CSV of one short run, every line without its last (timing) column."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        config = TrainConfig(variant, activation, eta=2e-3, epochs=2, batch_size=8, n_h=6, seed=5,
                             metrics_path=path)
        train(config, dataset=synth_dataset(N_TRAIN, N_TEST, seed=3))
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines())


def freeze() -> dict[str, str]:
    return {f"{v.value}/{a.value}": metrics_text(v, a) for v in Variant for a in Activation}


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    path.write_text(json.dumps(freeze(), indent=1) + "\n")
    print(f"wrote {path}")
