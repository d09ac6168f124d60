"""Per-layer metrics of a traced run, and the workloads that reach them.

``calls`` counts entries into a traced function, ``self_s`` is its span
time minus the time of traced calls made inside it.  A metric of a
layer that a workload does not reach reads 0.
"""

OM, TQ, CB = "omit-search", "type-queries", "cli-batch"

# per-layer metric -> workloads that reach its layer
REACH = {
    "structures.Structure.calls": (OM,),
    "structures.Structure.self_s": (OM,),
    "evaluator.value.calls": (OM, TQ),
    "evaluator.value.self_s": (OM, TQ),
    "evaluator.value.us_per_call": (OM, TQ),
    "evaluator.entails.calls": (TQ,),
    "evaluator.entails.self_s": (TQ,),
    "omitting.enumerate_structures.yielded": (OM,),
    "omitting.enumerate_structures.self_s": (OM,),
    "omitting.search_model.examined": (OM,),
    "omitting.search_model.self_s": (OM,),
    "omitting.value_calls_per_candidate": (OM,),
    "omitting.omits.calls": (TQ,),
    "omitting.omits.self_s": (TQ,),
    "omitting.type_distance.calls": (TQ,),
    "omitting.type_distance.self_s": (TQ,),
    "omitting.generator_check.calls": (TQ,),
    "omitting.generator_check.self_s": (TQ,),
    "omitting.value_calls_per_query": (TQ,),
    "syntax.parse_formula.calls": (TQ, CB),
    "syntax.parse_formula.self_s": (TQ, CB),
    "syntax.expand_abbreviations.calls": (TQ,),
    "syntax.expand_abbreviations.self_s": (TQ,),
    "transforms.thicken.calls": (TQ,),
    "transforms.thicken.self_s": (TQ,),
    "connectives.certify.calls": (CB,),
    "connectives.certify.self_s": (CB,),
    "connectives.grid_max_error.calls": (CB,),
    "connectives.grid_max_error.self_s": (CB,),
    "connectives.grid_max_error.calls_per_certify": (CB,),
    "connectives.dag_nodes": (CB,),
    "storage.load.calls": (CB,),
    "storage.load.self_s": (CB,),
    "storage.dump_json.self_s": (CB,),
    "cli.import_ms": (CB,),
    "cli.interpreter_floor_ms": (CB,),
    "cli.handler.self_s": (CB,),
    "harness.trace_overhead_ratio": (OM, TQ, CB),
}


def metrics(workload, report, per_layer):
    """Per-layer metrics from a traced worker's report; ``per_layer`` is
    the ``per_layer`` list of BENCHMARK.json."""
    snap, extra = report["snapshot"], report["extra"]
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    values = {}
    for name in REACH:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls.get(span, 0)
        elif field == "self_s":
            values[name] = self_s.get(span, 0.0)
    value_calls = calls.get("evaluator.value", 0)
    examined = counts.get("omitting.search_model.examined", 0)
    certify_runs = extra.get("certify_invocations", 0)
    values.update({
        "evaluator.value.us_per_call":
            1e6 * self_s.get("evaluator.value", 0.0) / value_calls
            if value_calls else 0.0,
        "omitting.enumerate_structures.yielded":
            counts.get("omitting.enumerate_structures.yielded", 0),
        "omitting.search_model.examined": examined,
        "omitting.value_calls_per_candidate":
            counts.get("evaluator.value.in_search", 0) / examined
            if examined else 0.0,
        "omitting.value_calls_per_query":
            value_calls / extra["queries"] if workload == TQ else 0.0,
        "connectives.grid_max_error.calls_per_certify":
            extra["certify_grid_sweeps"] / certify_runs
            if certify_runs else 0.0,
        "connectives.dag_nodes": snap["dag_nodes"],
        "cli.import_ms": extra.get("import_ms", 0.0),
        "cli.interpreter_floor_ms": extra.get("interpreter_floor_ms", 0.0),
        "harness.trace_overhead_ratio": extra["trace_overhead_ratio"],
    })
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in per_layer}
