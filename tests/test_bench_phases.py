"""bench/phases.py, the per-phase BENCH writer, run at tiny shapes so that its output cannot rot unnoticed."""

import importlib.util
import json
from pathlib import Path

from slimrnn.cells import Variant

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "phases.py"
UNITS = {"forward_sequence": "ms/call", "softmax_xent": "ms/call", "backward_sequence": "ms/call",
         "rmsprop_step": "ms/call", "walk": "ms/example", "evaluation": "ms/example"}
REF_UNITS = {name: unit.replace("ms", "ref") for name, unit in UNITS.items()}
CHECKS = ("check_all_b1", "check_all_b3")  # check_all at batch sizes 1 and 3


def test_phases_writes_every_phase_of_every_variant_with_its_unit(tmp_path):
    spec = importlib.util.spec_from_file_location("phases", SCRIPT)
    phases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(phases)
    phases.ROUND_S, phases.REF_ITERATIONS = 0.0, 10  # one call per round, and a short reference kernel
    out = tmp_path / "BENCH.json"
    for label in ("parent", "change", "change"):
        assert phases.main(["--out", str(out), "--label", label, "--tiny", "--repeat", "1"]) == 0
    doc = json.loads(out.read_text())

    assert [len(doc["runs"][label]) for label in ("parent", "change")] == [1, 2]
    run = doc["runs"]["change"][0]
    variants = [v.value for v in Variant]
    assert list(run["phases"]) == variants and list(run["gradcheck"]) == variants
    for variant in variants:
        assert {name: m["unit"] for name, m in run["phases"][variant].items()} == UNITS
        assert {name: m["per_ref"]["unit"] for name, m in run["phases"][variant].items()} == REF_UNITS
        checks = run["gradcheck"][variant]
        assert {name: (m["unit"], m["per_ref"]["unit"]) for name, m in checks.items()} == {
            name: ("ms/config", "ref/config") for name in CHECKS
        }
    context = run["context"]
    assert {"python", "numpy", "openblas_config", "openblas_core"} <= context.keys()
    assert (context["reference_ms"]["unit"], context["peak_rss_mb"]["unit"]) == ("ms", "MB")

    timings = {f"phases.{v}.{name}" for v in variants for name in UNITS} | {f"gradcheck.{v}.{name}" for v in variants for name in CHECKS}
    paths = timings | {f"{t}.per_ref" for t in timings} | {"context.reference_ms", "context.peak_rss_mb"}
    for label in ("parent", "change"):
        summary = doc["summary"][label]
        assert summary.keys() == paths
        assert all(s["min"] > 0 and s["spread"] >= 0 for s in summary.values())
    assert all(s["spread"] == 0.0 for s in doc["summary"]["parent"].values())  # of one run
    assert doc["delta"].keys() == paths
