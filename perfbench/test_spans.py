"""Self-checks of the benchmark's span tracer.

    python3 -m pytest -q perfbench/test_spans.py
"""

import sys
import types

import pytest

import spans as sp


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
    spans = [
        sp.Span("A", 0.0, 10.0, None),
        sp.Span("B", 1.0, 4.0, 0),
        sp.Span("C", 2.0, 3.0, 1),
        sp.Span("D", 5.0, 9.0, 0),
        sp.Span("E", 11.0, 12.0, None),
    ]
    assert sp.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    wall = 13.0
    assert sp.untraced_remainder(spans, wall) == 2.0
    assert sum(sp.self_times(spans)) + sp.untraced_remainder(spans, wall) == wall
    assert sp.under(spans, 2, "A") and not sp.under(spans, 0, "A")


def test_overlapping_children_are_counted_once():
    spans = [
        sp.Span("P", 0.0, 10.0, None),
        sp.Span("x", 1.0, 5.0, 0),
        sp.Span("y", 3.0, 7.0, 0),
        sp.Span("z", 8.0, 12.0, 0),  # runs past its parent: only 8..10 is covered
    ]
    assert sp.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


@pytest.fixture
def fake_package():
    """pkg.low defines leaf(); pkg.high imports it and calls it from top()."""
    low = types.ModuleType("pkg.low")
    exec("def leaf(n):\n    return n + 1\n\ndef _private():\n    return 0\n", low.__dict__)
    high = types.ModuleType("pkg.high")
    high.leaf = low.leaf
    exec("def top(n):\n    return leaf(n) + leaf(n)\n", high.__dict__)
    pkg = types.ModuleType("pkg")
    pkg.leaf, pkg.top = low.leaf, high.top
    modules = {"pkg": pkg, "pkg.low": low, "pkg.high": high}
    sys.modules.update(modules)
    yield modules
    for name in modules:
        del sys.modules[name]


def test_tracer_wraps_every_import_site_and_restores(fake_package):
    pkg, low, high = fake_package["pkg"], fake_package["pkg.low"], fake_package["pkg.high"]
    original_leaf, original_top = low.leaf, high.top
    tracer = sp.Tracer("pkg", ["low", "high"], work={"low.leaf": lambda fn, a, k: a[0]})
    with tracer:
        assert pkg.top(3) == 8
        assert high.leaf(1) == 2
    spans = tracer.take()
    assert [(s.name, s.parent, s.work) for s in spans] == [
        ("high.top", None, 0.0),
        ("low.leaf", 0, 3.0),
        ("low.leaf", 0, 3.0),
        ("low.leaf", None, 1.0),
    ]
    table = sp.summarize(spans)
    assert table["low.leaf"]["calls"] == 3 and table["low.leaf"]["work"] == 7.0
    assert "low._private" not in table
    assert (low.leaf, high.leaf, pkg.leaf) == (original_leaf,) * 3
    assert (high.top, pkg.top) == (original_top,) * 2
    assert sum(sp.self_times(spans)) == pytest.approx(
        sum(s.end - s.start for s in spans if s.parent is None), abs=1e-12
    )
