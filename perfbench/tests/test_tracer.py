import sys
import time
import types

import numpy as np
import pytest

import tracer


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module package where ``outer`` calls ``inner`` through an imported reference."""
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def inner(seconds):
        time.sleep(seconds)
        return seconds

    def outer(seconds):
        time.sleep(seconds)
        return high.inner(seconds) + high.inner(seconds)

    low.inner = inner
    high.inner = inner  # as ``from .low import inner`` would bind it
    high.outer = outer
    for name, module in (("fakepkg", pkg), ("fakepkg.low", low), ("fakepkg.high", high)):
        monkeypatch.setitem(sys.modules, name, module)
    return low, high


HOOKS = (("fakepkg.low", "inner", "low.inner"), ("fakepkg.high", "outer", "high.outer"))


def test_self_time_of_nested_spans(fake_package):
    _, high = fake_package
    tr = tracer.Tracer(HOOKS, package="fakepkg")
    with tr.installed():
        high.outer(0.01)
    table = tr.table()
    assert table["high.outer"].calls == 1 and table["low.inner"].calls == 2
    outer, inner = table["high.outer"], table["low.inner"]
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s, abs=1e-12)
    assert inner.self_s == inner.total_s
    assert sum(r.self_s for r in table.values()) == pytest.approx(outer.total_s, abs=1e-12)
    assert 0.009 < outer.self_s < outer.total_s


def test_uninstall_restores_every_reference(fake_package):
    low, high = fake_package
    originals = (low.inner, high.inner, high.outer)
    tr = tracer.Tracer(HOOKS, package="fakepkg")
    with tr.installed():
        assert high.inner is not originals[1] and low.inner is high.inner
    assert (low.inner, high.inner, high.outer) == originals


def test_missing_hook_target_is_reported_not_fatal(fake_package):
    _, high = fake_package
    tr = tracer.Tracer(HOOKS + (("fakepkg.low", "gone", "low.gone"),), package="fakepkg")
    with tr.installed():
        assert high.outer(0.0) == 0.0
    assert tr.missing == ["fakepkg.low.gone"]
    assert "low.gone" not in tr.table()


def test_self_times_arithmetic():
    # root(10) -> a(4) -> b(1); root -> c(3)
    parent = np.array([-1, 0, 1, 0])
    dur = np.array([10.0, 4.0, 1.0, 3.0])
    assert tracer.self_times(parent, dur).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_nearest_context_walks_up_to_the_closest_match():
    # 0:train -> 1:batch -> 2:step -> 3:matvec ; 0 -> 4:evaluate -> 5:step ; 6:step (top level)
    names = np.array([0, 1, 2, 3, 4, 2, 2])
    parent = np.array([-1, 0, 1, 2, 0, 4, -1])
    ctx = tracer.nearest_context(names, parent, [1, 4])
    assert ctx.tolist() == [-1, 0, 0, 0, 1, 1, -1]
