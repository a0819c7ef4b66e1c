"""The benchmark's view of the program: every perfbench workload verifies and runs clean.

perfbench (``perfbench/run.py``) reaches into the engine to check each run's
outputs: ``VariantSpec``, the ``(cell, head)`` pair of ``init_params``,
``Params.arrays``/``with_arrays``, the single-sequence forward, iterating a
trace into ``Step``s (whose candidate values it reads as relu's kink
signature: they are positive exactly where the pre-activations are) and
the one-row ``softmax_xent``; it also re-runs
``run_grid`` into the same directory and calls ``check_all``. A change that
breaks any of these makes every benchmark op fail its checks, so each
workload's verification and two rounds of its ops run here on a tiny
injected dataset. Its per-layer metrics read the spans of functions it
wraps by name, so the names it hooks are pinned here too.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slimrnn import bptt, cells, cli, data, gradcheck, harness

from .conftest import synth_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PROGRAM = argparse.Namespace(bptt=bptt, cells=cells, cli=cli, data=data, gradcheck=gradcheck, harness=harness)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_verifies_and_runs_two_rounds_without_a_failure(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    dataset = synth_dataset(8, 4)
    # the first config, and the first relu one: only relu reads the trace step by step
    checked = tuple(dict.fromkeys([workload.configs[0]] + [c for c in workload.configs if c[1] == "relu"][:1]))
    found, _ = bench.verify_configs(PROGRAM, replace(workload, configs=checked), dataset, seed=0)
    assert found == {config: [] for config in checked}

    problems = {config: [] for config in workload.configs}
    runner = bench.Runner(PROGRAM, workload, 0, tmp_path / "data", dataset, tmp_path / "work", problems)
    results = runner.round() + runner.round()  # the second round re-runs into the same directories
    assert len(results) == 2 * len(workload.configs)
    assert runner.tally.failed == 0, runner.tally.reasons
    assert runner.tally.attempted == sum(r.ops for r in results)


def test_tracer_finds_every_hooked_function_but_the_known_dead_ones():
    # a renamed function would leave its per-layer metrics reading 0 without a failure
    tr = tracer.Tracer()
    spec = cells.VariantSpec.make("lstm", "tanh")
    cell, head = cells.init_params(spec, 3, 5, 4, seed=0)
    batch = data.SequenceBatch(inputs=np.full((2, 4, 3), 0.5), labels=np.array([0, 3]))
    with tr.installed():
        bptt.batch_loss_and_grads(spec, cell, head, batch)
    dead = ["slimrnn.cells.step", "slimrnn.cells.predict", "slimrnn.linalg.matvec", "slimrnn.linalg.matvec_transposed"]
    assert tr.missing == dead
    assert {name: row.calls for name, row in tr.table().items()} == {
        "bptt.batch": 1, "bptt.forward": 1, "bptt.loss": 1, "bptt.backward": 1,
    }


def test_tracer_records_the_spans_behind_the_gradcheck_metrics():
    # gradcheck.config_s is the mean gradcheck.config span and gradcheck.loss_evals is bptt.forward calls per
    # such span: each of lstm5's 9 configurations runs 1 analytic forward and 1 sweep pass at these shapes
    tr = tracer.Tracer()
    with tr.installed():
        assert len(gradcheck.check_all(seeds=(0, 1, 2), variants=("lstm5",))) == 9
    assert {name: row.calls for name, row in tr.table().items()} == {
        "cells.init": 3, "bptt.forward": 18, "bptt.backward": 9, "bptt.loss": 18, "bptt.batch": 9,
        "gradcheck.config": 9, "gradcheck.check_all": 1,
    }
