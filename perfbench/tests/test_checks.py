import argparse

import numpy as np
import pytest

import bench
import checks
import workloads
from slimrnn import bptt, cells, cli, data, gradcheck, harness

SLIM = argparse.Namespace(bptt=bptt, cells=cells, cli=cli, data=data, gradcheck=gradcheck, harness=harness)
TINY = workloads.Workload("tiny", "epoch", (("lstm6", "tanh"),), 32, 8)


def quadratic(weights):
    def loss_at(params):
        return float(sum((w * params[k] ** 2).sum() for k, w in weights.items())), None
    return loss_at


def test_exact_gradient_passes_and_corrupted_one_fails():
    rng = np.random.default_rng(0)
    params = {"A": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    weights = {k: rng.uniform(0.5, 2.0, size=v.shape) for k, v in params.items()}
    grads = {k: 2 * weights[k] * params[k] for k in params}
    assert checks.central_difference_check(quadratic(weights), params, grads).passed

    corrupted = {k: v.copy() for k, v in grads.items()}
    j = np.unravel_index(np.argmax(np.abs(corrupted["A"])), corrupted["A"].shape)
    corrupted["A"][j] *= 1.001
    result = checks.central_difference_check(quadratic(weights), params, corrupted)
    assert not result.passed and result.max_rel_err > checks.REL_TOL


def test_kink_crossing_coordinates_are_skipped():
    params = {"w": np.array([1e-6, 2.0])}

    def loss_at(p):  # relu of each coordinate; the first sits on the kink
        w = p["w"]
        return float(np.maximum(w, 0).sum()), w > 0

    result = checks.central_difference_check(loss_at, params, {"w": np.array([1.0, 1.0])})
    assert result.compared == 1 and result.skipped == 1 and result.passed


def test_tally_counts_failed_ops():
    tally = checks.Tally()
    tally.record(3, [])
    tally.record(2, ["bad"])
    assert (tally.attempted, tally.failed, tally.fail_rate) == (5, 2, 0.4)


def test_param_and_loss_checks():
    assert checks.param_problems("lstm", 52610) == []
    assert checks.param_problems("lstm6", 13911)
    assert checks.cli_param_count(cli.main, "lstm5a") == checks.PAPER_PARAMS["lstm5a"]
    assert checks.loss_problems("x", "tanh", [float("nan")])
    assert checks.loss_problems("x", "relu", [float("inf")]) == []


def tiny_dataset():
    rng = np.random.default_rng(3)

    def split(n):
        return data.Split(sequences=rng.uniform(0, 1, size=(n, 28, 28)), labels=rng.integers(0, 10, size=n))

    return data.Dataset(train=split(TINY.train_limit), test=split(TINY.test_limit))


def test_corrupted_program_gradient_raises_fail_rate(tmp_path, monkeypatch):
    dataset = tiny_dataset()
    clean, _ = bench.verify_configs(SLIM, TINY, dataset, seed=0)
    assert clean == {("lstm6", "tanh"): []}

    def corrupted(spec, cell, head, batch):
        loss, grads, correct = bptt.batch_loss_and_grads(spec, cell, head, batch)
        grads["W_c"] = grads["W_c"] * 1.01
        return loss, grads, correct

    broken_bptt = argparse.Namespace(batch_loss_and_grads=corrupted, forward_sequence=bptt.forward_sequence,
                                     softmax_xent=bptt.softmax_xent)
    broken = argparse.Namespace(**{**vars(SLIM), "bptt": broken_bptt})
    problems, _ = bench.verify_configs(broken, TINY, dataset, seed=0)
    assert problems[("lstm6", "tanh")]

    runner = bench.Runner(SLIM, TINY, 0, tmp_path, dataset, tmp_path, problems)
    runner.round()
    assert runner.tally.attempted == 1 and runner.tally.failed == 1 and runner.tally.fail_rate == 1.0
    runner = bench.Runner(SLIM, TINY, 0, tmp_path, dataset, tmp_path, clean)
    runner.round()
    assert runner.tally.failed == 0


@pytest.mark.parametrize("variant", ["lstm", "lstm4", "lstm6", "srn"])
def test_computed_madds_match_hand_counts(variant):
    import flops
    T, n_in, n_h, n_out = 2, 3, 4, 5
    hand_fwd = {
        "lstm": T * (4 * n_h * (n_in + n_h) + 3 * n_h) + n_out * n_h,
        "lstm4": T * (n_h * (n_in + n_h) + 3 * n_h + 3 * n_h) + n_out * n_h,
        "lstm6": T * (n_h * (n_in + n_h) + 3 * n_h) + n_out * n_h,
        "srn": T * n_h * (n_in + n_h) + n_out * n_h,
    }
    assert flops.forward_madds(variant, T, n_in, n_h, n_out) == hand_fwd[variant]
    dims = (T, n_in, n_h, n_out)
    assert flops.backward_madds(variant, *dims) > flops.forward_madds(variant, *dims)


def test_gradcheck_seed_pass_fails_wrong_gradients_and_counts_unverified():
    from slimrnn.cells import Activation, Variant
    from slimrnn.gradcheck import CheckResult

    def fake_check_all(seeds, **dims):
        assert seeds == workloads.seed_triple(4)
        return [CheckResult(Variant.LSTM, Activation.TANH, 15, 1e-9, 10, 0),
                CheckResult(Variant.LSTM, Activation.RELU, 16, 0.0, 0, 12),
                CheckResult(Variant.SRN, Activation.TANH, 17, 3e-2, 10, 0)]

    slim = argparse.Namespace(**{**vars(SLIM), "gradcheck": argparse.Namespace(check_all=fake_check_all)})
    problems, unverified = bench.verify_configs(slim, workloads.WORKLOADS["gradcheck"], None, seed=4)
    assert unverified == 1
    assert problems[("lstm", "all")] == []
    assert len(problems[("srn", "all")]) == 1 and "srn/tanh" in problems[("srn", "all")][0]
