"""Tests of the benchmark's tracer: self time and patching.

    python3 -m pytest benchmarks
"""
import os
import sys
import threading
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Span, Tracer, self_times, union_length  # noqa: E402


def _span(sid, parent, start, end, thread=1):
    s = Span(sid, parent, 1, f"s{sid}", thread)
    s.start, s.end = start, end
    return s


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert union_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert union_length([(3.0, 3.0), (4.0, 2.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_union_of_children_from_two_threads():
    spans = [
        _span(1, None, 0.0, 10.0),
        # Two workers overlap on [3, 4]; the union they cover is [2, 6].
        _span(2, 1, 2.0, 4.0, thread=2),
        _span(3, 1, 3.0, 6.0, thread=3),
        _span(4, 2, 2.5, 3.5, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_worker_spans_take_the_request_span_as_parent():
    tracer = Tracer()
    with tracer.request("cli") as root:
        with tracer.span("submit") as submit:
            done = []
            both_open = threading.Barrier(2, timeout=10)

            def job():
                with tracer.span("job") as s:
                    both_open.wait()
                    done.append(s)

            workers = [threading.Thread(target=job) for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)
    assert submit.parent == root.sid
    assert [s.parent for s in done] == [submit.sid, submit.sid]
    assert {s.request for s in tracer.spans} == {1}
    assert len({s.thread for s in done}) == 2


def test_wrap_records_counts_and_errors():
    tracer = Tracer()

    def f(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    traced = tracer.wrap(f, "f", lambda attrs, args, kwargs, result: attrs.update(out=result))
    assert traced(3) == 6
    with pytest.raises(ValueError):
        traced(-1)
    ok, failed = tracer.spans
    assert ok.attrs == {"out": 6}
    assert failed.attrs == {"error": "ValueError"}


def test_unpatch_restores_every_original():
    def helper():
        return "helper"

    class Index:
        def query(self):
            return "query"

    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")
    outside = types.ModuleType("otherpkg")
    mod_a.helper = helper
    mod_b.helper = helper        # bound again by a `from a import helper`
    mod_b.alias = helper
    outside.helper = helper
    pkg.a = mod_a
    modules = {"fakepkg": pkg, "fakepkg.a": mod_a, "fakepkg.b": mod_b, "otherpkg": outside}
    saved = {k: sys.modules.get(k) for k in modules}
    sys.modules.update(modules)
    try:
        original_query = Index.__dict__["query"]
        tracer = Tracer()
        tracer.patch_function("fakepkg", mod_a, "helper", "helper")
        tracer.patch_method(Index, "query", "query")
        assert mod_a.helper is not helper
        assert mod_b.helper is mod_a.helper and mod_b.alias is mod_a.helper
        assert outside.helper is helper
        assert mod_b.helper() == "helper" and Index().query() == "query"
        assert [s.name for s in tracer.spans] == ["helper", "query"]

        tracer.unpatch()
        assert mod_a.helper is helper and mod_b.helper is helper and mod_b.alias is helper
        assert Index.__dict__["query"] is original_query
        mod_b.helper()
        assert len(tracer.spans) == 2
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v


def test_install_patches_every_licov_binding_and_unpatch_restores_them():
    import licov
    import layers

    def bindings():
        return {
            (name, key): value
            for name, mod in sys.modules.items()
            if name == "licov" or name.startswith("licov.")
            for key, value in vars(mod).items()
            if callable(value)
        }

    cloud, scenes = licov.cloud, licov.scenes
    classes = [(cloud.NeighborIndex, "__init__"), (cloud.NeighborIndex, "query_batch"),
               (scenes.SyntheticSequence, "scan")]
    before = bindings()
    methods = [cls.__dict__[attr] for cls, attr in classes]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for mod in (licov.cloud, licov.mcgen, licov.fusion):
            assert mod.build_local_map is not before[(mod.__name__, "build_local_map")]
        assert licov.mcgen.build_local_map is licov.fusion.build_local_map
        for mod in (licov.cloud, licov.features, licov.model):
            assert mod.estimate_normals is licov.cloud.estimate_normals
        assert licov.fusion.predict is licov.model.predict
        assert licov.model.extract_features is licov.features.extract_features
        assert all(cls.__dict__[attr] is not m for (cls, attr), m in zip(classes, methods))
    finally:
        tracer.unpatch()
    assert bindings() == before
    assert all(cls.__dict__[attr] is m for (cls, attr), m in zip(classes, methods))
