"""Which licov functions are traced, and the per-layer metrics their spans give.

`install` wraps each layer's public functions (nothing under src/ is
edited); `aggregate` turns the spans of one traced command into the
`<module>.<function>.<stat>` metrics listed in PER_LAYER.
"""
from __future__ import annotations

from tracer import self_times


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(key, index, name):
    def record(attrs, args, kwargs, result):
        attrs[key] = len(_arg(args, kwargs, index, name))
    return record


def _record_map(attrs, args, kwargs, result):
    attrs["frame"] = int(_arg(args, kwargs, 2, "k"))


def _record_icp(attrs, args, kwargs, result):
    attrs["iterations"] = result.iterations_used
    attrs["converged"] = bool(result.converged)
    attrs["singular"] = bool(result.singular)


def _record_mc(attrs, args, kwargs, result):
    attrs["samples"] = result.n + result.diverged_count
    attrs["diverged"] = result.diverged_count


def _record_generate(attrs, args, kwargs, result):
    attrs["threads"] = kwargs.get("threads", 1)


def _record_train(attrs, args, kwargs, result):
    attrs["final_loss"] = float(result[1][-1])


def install(tracer):
    """Patch every traced licov function; `tracer.unpatch()` undoes it."""
    from licov import cloud, features, fusion, icp, mcgen, model, scenes

    functions = [
        (cloud, "voxel_downsample", "cloud.voxel_downsample", _count("points_in", 0, "cloud")),
        (cloud, "estimate_normals", "cloud.estimate_normals", _count("points", 0, "cloud")),
        (cloud, "build_local_map", "cloud.build_local_map", _record_map),
        (icp, "icp_point_to_plane", "icp.align", _record_icp),
        (mcgen, "generate_dataset", "mcgen.generate_dataset", _record_generate),
        (mcgen, "run_monte_carlo", "mcgen.run_monte_carlo", _record_mc),
        (mcgen, "write_dataset", "mcgen.io", None),
        (mcgen, "read_dataset", "mcgen.io", None),
        (features, "extract_features", "features.extract_features", None),
        (model, "train", "model.train", _record_train),
        (model, "head_loss_and_grad", "model.head_loss_and_grad", None),
        (model, "predict", "model.predict", None),
        (model, "save_model", "model.io", None),
        (model, "load_model", "model.io", None),
        (fusion, "run_fusion", "fusion.run_fusion", None),
        (fusion, "ekf_predict", "fusion.ekf", None),
        (fusion, "ekf_update", "fusion.ekf", None),
    ]
    for module, attr, name, record in functions:
        tracer.patch_function("licov", module, attr, name, record)
    tracer.patch_method(cloud.NeighborIndex, "__init__", "cloud.kdtree_build")
    tracer.patch_method(
        cloud.NeighborIndex, "query_batch", "cloud.query_batch", _count("points", 1, "queries")
    )
    tracer.patch_method(scenes.SyntheticSequence, "scan", "scenes.scan")


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cloud.query_batch.calls", "count", "lower"),
    ("cloud.query_batch.busy_s", "s", "lower"),
    ("cloud.query_batch.points", "count", "lower"),
    ("cloud.query_batch.p50_ms", "ms", "lower"),
    ("cloud.query_batch.p99_ms", "ms", "lower"),
    ("cloud.voxel_downsample.calls", "count", "lower"),
    ("cloud.voxel_downsample.busy_s", "s", "lower"),
    ("cloud.voxel_downsample.points_in", "count", "lower"),
    ("cloud.estimate_normals.calls", "count", "lower"),
    ("cloud.estimate_normals.busy_s", "s", "lower"),
    ("cloud.estimate_normals.points", "count", "lower"),
    ("cloud.build_local_map.calls", "count", "lower"),
    ("cloud.build_local_map.busy_s", "s", "lower"),
    ("cloud.build_local_map.self_s", "s", "lower"),
    ("cloud.build_local_map.rebuild_ratio", "ratio", "lower"),
    ("cloud.kdtree_build.calls", "count", "lower"),
    ("cloud.kdtree_build.busy_s", "s", "lower"),
    ("icp.align.calls", "count", "lower"),
    ("icp.align.self_s", "s", "lower"),
    ("icp.align.p50_ms", "ms", "lower"),
    ("icp.align.p90_ms", "ms", "lower"),
    ("icp.iterations", "count", "lower"),
    ("icp.iterations_per_align", "count", "lower"),
    ("icp.converged_frac", "ratio", "higher"),
    ("icp.singular_frac", "ratio", "lower"),
    ("mcgen.run_monte_carlo.calls", "count", "lower"),
    ("mcgen.run_monte_carlo.self_s", "s", "lower"),
    ("mcgen.samples", "count", "lower"),
    ("mcgen.diverged_frac", "ratio", "lower"),
    ("mcgen.skipped_frames", "count", "lower"),
    ("mcgen.pool_util", "ratio", "higher"),
    ("mcgen.io.busy_s", "s", "lower"),
    ("features.extract_features.calls", "count", "lower"),
    ("features.extract_features.self_s", "s", "lower"),
    ("model.train.self_s", "s", "lower"),
    ("model.train.final_loss", "1", "lower"),
    ("model.head_loss_and_grad.calls", "count", "lower"),
    ("model.head_loss_and_grad.busy_s", "s", "lower"),
    ("model.head_loss_and_grad.p50_us", "us", "lower"),
    ("model.head_loss_and_grad.p99_us", "us", "lower"),
    ("model.predict.calls", "count", "lower"),
    ("model.predict.self_s", "s", "lower"),
    ("model.io.busy_s", "s", "lower"),
    ("fusion.run_fusion.calls", "count", "lower"),
    ("fusion.run_fusion.self_s", "s", "lower"),
    ("fusion.ekf.calls", "count", "lower"),
    ("fusion.ekf.busy_s", "s", "lower"),
    ("scenes.scan.calls", "count", "lower"),
    ("scenes.scan.busy_s", "s", "lower"),
    ("cli.import.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _quantile(values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(spans, traced_wall_s, untraced_wall_s) -> dict:
    """Per-layer metrics of one traced command.

    traced_wall_s is the traced child's wall time, untraced_wall_s the
    median wall time of the same command without tracing.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name))

    def busy(name):
        return sum(s.duration for s in group(name))

    def self_s(name):
        return sum(selfs[s.sid] for s in group(name))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in group(name))

    def durations(name, scale):
        return [s.duration * scale for s in group(name)]

    m = {}
    q = "cloud.query_batch"
    m[q + ".calls"] = calls(q)
    m[q + ".busy_s"] = busy(q)
    m[q + ".points"] = total(q, "points")
    m[q + ".p50_ms"] = _quantile(durations(q, 1e3), 0.50)
    m[q + ".p99_ms"] = _quantile(durations(q, 1e3), 0.99)
    v = "cloud.voxel_downsample"
    m[v + ".calls"], m[v + ".busy_s"] = calls(v), busy(v)
    m[v + ".points_in"] = total(v, "points_in")
    n = "cloud.estimate_normals"
    m[n + ".calls"], m[n + ".busy_s"] = calls(n), busy(n)
    m[n + ".points"] = total(n, "points")
    b = "cloud.build_local_map"
    m[b + ".calls"], m[b + ".busy_s"], m[b + ".self_s"] = calls(b), busy(b), self_s(b)
    m[b + ".rebuild_ratio"] = _ratio(calls(b), len({s.attrs["frame"] for s in group(b)}))
    k = "cloud.kdtree_build"
    m[k + ".calls"], m[k + ".busy_s"] = calls(k), busy(k)

    a = "icp.align"
    m[a + ".calls"], m[a + ".self_s"] = calls(a), self_s(a)
    m[a + ".p50_ms"] = _quantile(durations(a, 1e3), 0.50)
    m[a + ".p90_ms"] = _quantile(durations(a, 1e3), 0.90)
    m["icp.iterations"] = total(a, "iterations")
    m["icp.iterations_per_align"] = _ratio(total(a, "iterations"), calls(a))
    m["icp.converged_frac"] = _ratio(total(a, "converged"), calls(a))
    m["icp.singular_frac"] = _ratio(total(a, "singular"), calls(a))

    mc = "mcgen.run_monte_carlo"
    m[mc + ".calls"], m[mc + ".self_s"] = calls(mc), self_s(mc)
    m["mcgen.samples"] = total(mc, "samples")
    m["mcgen.diverged_frac"] = _ratio(total(mc, "diverged"), total(mc, "samples"))
    m["mcgen.skipped_frames"] = sum(
        1 for s in group(mc) if s.attrs.get("error") == "TooFewValidSamples"
    )
    # A frame job's busy time is the sum of the spans it opened directly
    # under generate_dataset (scan synthesis, map build, scan filter,
    # Monte-Carlo loop); the dataset write is not part of any job.
    gen = group("mcgen.generate_dataset")
    gen_ids = {s.sid for s in gen}
    job_busy = sum(s.duration for s in spans if s.parent in gen_ids and s.name != "mcgen.io")
    capacity = sum(s.duration * s.attrs.get("threads", 1) for s in gen)
    m["mcgen.pool_util"] = _ratio(job_busy, capacity)
    m["mcgen.io.busy_s"] = busy("mcgen.io")

    f = "features.extract_features"
    m[f + ".calls"], m[f + ".self_s"] = calls(f), self_s(f)
    m["model.train.self_s"] = self_s("model.train")
    m["model.train.final_loss"] = total("model.train", "final_loss")
    h = "model.head_loss_and_grad"
    m[h + ".calls"], m[h + ".busy_s"] = calls(h), busy(h)
    m[h + ".p50_us"] = _quantile(durations(h, 1e6), 0.50)
    m[h + ".p99_us"] = _quantile(durations(h, 1e6), 0.99)
    p = "model.predict"
    m[p + ".calls"], m[p + ".self_s"] = calls(p), self_s(p)
    m["model.io.busy_s"] = busy("model.io")

    r = "fusion.run_fusion"
    m[r + ".calls"], m[r + ".self_s"] = calls(r), self_s(r)
    m["fusion.ekf.calls"], m["fusion.ekf.busy_s"] = calls("fusion.ekf"), busy("fusion.ekf")
    m["scenes.scan.calls"], m["scenes.scan.busy_s"] = calls("scenes.scan"), busy("scenes.scan")

    m["cli.import.busy_s"] = busy("cli.import")
    m["cli.self_s"] = self_s("cli")
    m["trace.coverage"] = 1.0 - _ratio(m["cli.self_s"], traced_wall_s)
    m["trace.overhead_frac"] = _ratio(traced_wall_s, untraced_wall_s) - 1.0
    return {name: m[name] for name, _, _ in PER_LAYER}
