"""bench/phases.py, the in-process A/B of the engine's public calls: its verdict rule without timing, and one tiny A/A run."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from slimrnn import cli
from slimrnn.cells import Variant

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("phases", ROOT / "bench" / "phases.py")
phases = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(phases)
UNITS = {"forward_sequence": "ms/call", "softmax_xent": "ms/call", "backward_sequence": "ms/call",
         "rmsprop_step": "ms/call", "walk": "ms/example", "evaluation": "ms/example",
         "check_all_b1": "ms/config", "check_all_b3": "ms/config"}  # check_all at batch sizes 1 and 3


@pytest.mark.parametrize("factor, verdict, won", [(2.0, "slower", 0), (0.5, "faster", 15), (1.0, "inside", None)])
def test_verdict_reads_a_twofold_change_and_not_one_percent_noise(factor, verdict, won):
    rng = np.random.default_rng(0)

    def side():  # 15 rounds' seconds per call, each round off by up to 1%
        return 1e-3 * (1.0 + rng.uniform(-0.01, 0.01, size=15))

    a, b, b2 = side(), factor * side(), factor * side()
    record = phases.compare(a, b, b2)
    assert record["verdict"] == verdict
    assert record["b/a"]["median"] == pytest.approx(factor, rel=0.03)
    assert won is None or record["b/a"]["won"] == won


@pytest.mark.parametrize("b_over_a, verdict", [(0.985, "inside"), (1.025, "inside"), (0.965, "faster")])
def test_control_band_is_symmetric_about_one_not_the_controls_own_quartiles(b_over_a, verdict):
    b = np.ones(5)
    b2 = b * np.array([1.01, 1.02, 1.025, 1.03, 1.04])  # B'/B's quartiles: 1.02 and 1.03
    record = phases.compare(b / b_over_a, b, b2)
    assert (record["b2/b"]["q1"], record["b2/b"]["q3"]) == pytest.approx((1.02, 1.03))
    assert record["band"] == pytest.approx(0.03)
    assert record["verdict"] == verdict


def test_rounds_give_every_side_the_same_calls_in_an_order_that_rotates(monkeypatch):
    monkeypatch.setattr(phases, "ROUND_S", 0.0)  # one call per side per round, after one warm-up call each
    order = []
    seconds = phases.rounds({name: (lambda name=name: order.append(name)) for name in ("a", "b", "b2")}, 3, 1)
    assert order == ["a", "b", "b2"] + ["a", "b", "b2", "b", "b2", "a", "b2", "a", "b"]
    assert {name: len(s) for name, s in seconds.items()} == {"a": 3, "b": 3, "b2": 3}


def test_openblas_context_is_read_through_a_side_that_can():
    older = SimpleNamespace(cli=SimpleNamespace())  # a tree from before cli.openblas_function
    current = SimpleNamespace(cli=cli)
    assert phases.openblas([older, current]) == phases.openblas([current])
    assert phases.openblas([older]) == {"openblas_config": None, "openblas_core": None}


def test_tiny_aa_run_times_every_call_on_three_isolated_copies_and_refuses_an_existing_out(tmp_path, monkeypatch):
    monkeypatch.setattr(phases, "ROUND_S", 0.0)  # one call per side per round
    loaded, load = [], phases.load
    monkeypatch.setattr(phases, "load", lambda src, name: loaded.append(load(src, name)) or loaded[-1])
    slimrnn, out = sys.modules["slimrnn"], tmp_path / "BENCH.json"
    argv = ["--out", str(out), "--against", str(ROOT / "src"), "--src", str(ROOT / "src"), "--tiny", "--repeat", "3"]
    assert phases.main(argv) == 0

    assert sys.modules["slimrnn"] is slimrnn
    cells = [side.cells for side in loaded]
    assert len({id(m) for m in cells}) == 3 and sys.modules["slimrnn.cells"] not in cells
    doc = json.loads(out.read_text())
    assert list(doc["ab"]) == [v.value for v in Variant]
    assert sum(len(timings) for timings in doc["ab"].values()) == 56
    for timings in doc["ab"].values():
        assert {name: t["unit"] for name, t in timings.items()} == UNITS
        for t in timings.values():
            assert t["ms"].keys() == {"a", "b", "b2"} and all(ms > 0 for ms in t["ms"].values())
            assert t["rounds"] == 3 and t["verdict"] in {"faster", "slower", "inside"}
    assert doc["context"].keys() == {"python", "numpy", "openblas_config", "openblas_core", "peak_rss_mb", "src_lines"}
    lines = doc["context"]["src_lines"]
    assert lines.keys() == {"a", "b"} and lines["a"] == lines["b"] > 0  # an A/A: one tree on both sides

    written = out.read_bytes()
    with pytest.raises(SystemExit) as refused:
        phases.main(argv)
    assert refused.value.code == 2 and out.read_bytes() == written and len(loaded) == 3


@pytest.mark.parametrize("args, message", [
    (["--repeat", "0"], "--repeat 0: give at least one round"),
    (["--repeat", "-1"], "--repeat -1: give at least one round"),
    (["--out", "{tmp}/missing/BENCH.json"], "{tmp}/missing is not a directory"),
    (["--out", "{tmp}/file/BENCH.json"], "{tmp}/file is not a directory"),
    (["--against", "{tmp}"], "--against {tmp}: no slimrnn/__init__.py there"),
    (["--src", "{root}"], "--src {root}: no slimrnn/__init__.py there"),  # the checkout, not its src
], ids=["repeat-0", "repeat-negative", "out-dir-missing", "out-dir-a-file", "against-no-package", "src-no-package"])
def test_bad_arguments_are_refused_before_any_work(tmp_path, monkeypatch, capsys, args, message):
    # a missing --out directory would otherwise surface only after the whole run, as a traceback
    loaded, out = [], tmp_path / "BENCH.json"
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(phases, "load", lambda src, name: loaded.append(name))
    defaults = {"--out": str(out), "--against": str(ROOT / "src")}
    given = [a.format(tmp=tmp_path, root=ROOT) for a in args]
    argv = [*given, *(a for k, v in defaults.items() if k not in given for a in (k, v))]
    with pytest.raises(SystemExit) as refused:
        phases.main(argv)
    assert refused.value.code == 2 and not out.exists() and loaded == []
    [error] = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]  # one line, no traceback
    assert message.format(tmp=tmp_path, root=ROOT) in error
