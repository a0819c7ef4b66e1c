"""The benchmark's output agrees with BENCHMARK.json and its naming rules."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import inputs
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_results(n, seconds):
    return [workloads.OpResult(("lstm", "tanh"), seconds, ops=1, walk_s=seconds / 2,
                               n_train=192, n_eval=224, flop=1e9, ref_s=0.01) for _ in range(n)]


def test_declared_names_and_units_follow_the_rules():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in declared)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_bounds_are_within_limits_and_setup_has_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)


def test_end_to_end_output_matches_declaration():
    out = bench.end_to_end(fake_results(3, 1.0), setup_s=0.5)
    assert {k: v["unit"] for k, v in out.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_output_matches_declaration(workload):
    out = bench.per_layer(workloads.WORKLOADS[workload], tracer.Tracer(), fake_results(2, 1.1),
                          fake_results(2, 1.0), tracer.Tracer(), unverified=0)
    assert {k: v["unit"] for k, v in out.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert out["trace.overhead_pct"]["value"] == pytest.approx(10.0)


def test_tail_reports_a_percentile_only_with_ten_samples_beyond_it():
    assert "too few" in bench.tail([1.0] * 99)
    assert "p90" in bench.tail(list(map(float, range(100))))
    assert "p99 " in bench.tail(list(map(float, range(1000))))


def test_per_config_median_is_the_mean_of_per_config_medians():
    rs = [workloads.OpResult(c, s, ops=1, ref_s=0.5) for c, s in
          [(("a", "x"), 1.0), (("a", "x"), 9.0), (("a", "x"), 2.0), (("b", "x"), 4.0)]]
    assert bench.per_config_median(rs) == pytest.approx((2.0 + 4.0) / 2)
    assert bench.op_per_ref(rs) == pytest.approx(6.0)
    rs[3].ref_s = 2.0
    assert bench.op_per_ref(rs) == pytest.approx((4.0 + 2.0) / 2)


def test_reference_kernel_takes_a_stable_few_milliseconds():
    ref = bench.Reference()
    times = sorted(ref.seconds() for _ in range(5))
    assert 1e-3 < times[0] < 0.2
    assert np.array_equal(ref.v, bench.Reference().v)


def test_inputs_depend_only_on_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "N_TRAIN", 50)
    monkeypatch.setattr(inputs, "N_TEST", 10)

    def images(seed, sub):
        inputs.write_mnist_like(tmp_path / sub, seed)
        from slimrnn.data import load_dataset
        return load_dataset(tmp_path / sub)

    a, b, c = images(1, "a"), images(1, "b"), images(2, "c")
    assert np.array_equal(a.train.sequences, b.train.sequences)
    assert np.array_equal(a.test.labels, b.test.labels)
    assert not np.array_equal(a.train.sequences, c.train.sequences)
    assert a.train.sequences.shape == (50, 28, 28) and a.test.sequences.shape == (10, 28, 28)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "gradcheck",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
