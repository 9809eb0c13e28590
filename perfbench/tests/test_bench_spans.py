"""Self-time arithmetic and wrapper installation."""

import types

from perfbench.spans import Span, Tracer, self_times


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span(1, None, 0, "doc", 0.0, 10.0),
        Span(2, 1, 0, "a", 1.0, 4.0),
        Span(3, 2, 0, "a.leaf", 2.0, 3.0),
        Span(4, 1, 0, "b", 5.0, 9.0),
        Span(5, 4, 0, "b.x", 5.0, 7.0),
        Span(6, 4, 0, "b.y", 6.0, 8.0),  # overlaps b.x: covered once
    ]
    st = self_times(spans)
    assert st == {1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 2.0, 6: 2.0}


def test_wrappers_record_nested_spans_and_uninstall():
    mod = types.ModuleType("m")
    mod.inner = lambda: 1
    mod.outer = lambda: mod.inner() + 1
    mod.scan = lambda: 0
    original = (mod.inner, mod.outer, mod.scan)
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    tracer.count_calls(mod, "scan", "scans")
    assert mod.outer() == 2  # outside a document: no spans
    tracer.begin_doc()
    assert mod.outer() == 2
    mod.scan()
    tracer.end_doc()
    tracer.uninstall()
    assert (mod.inner, mod.outer, mod.scan) == original
    spans = tracer.doc_spans(0)
    by_name = {s.name: s for s in spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id == by_name["bench.doc"].span_id
    assert tracer.counts == {"scans": 1}
    root = by_name["bench.doc"]
    assert abs(sum(self_times(spans).values()) - (root.end - root.start)) < 1e-9
