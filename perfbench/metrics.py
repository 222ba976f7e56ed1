"""Turns the driver's raw measurements into the benchmark's metrics, and
compares two sets of recorded runs.

Pure functions only: run.py does the I/O, tests/test_metrics.py the checks.
"""
import math
import statistics

# Metrics whose value is an exact count of the algorithm's work: any
# change between two commits at the same seed means the algorithm changed.
EXACT_COUNTS = ("core.ems_iterations", "core.ems_evals",
                "index.exact_runs_per_query", "f_measure")

PAIR_LAYERS = (("log", "log.parse"), ("graph", "graph.build"),
               ("text", "text.label"), ("core", "core.ems"),
               ("assignment", "assignment.select"))


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of `values`."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# Requests per window of serve_mixed's tail (a third of a second at
# 150 req/s), where p75 is the highest percentile with ten samples beyond
# it. On a shared 4-vCPU host some runs go through stretches where every
# wake-up of a server vCPU is slow; over 20 runs the whole-run p99 spread
# 0.81, and in such runs the median of 100-request window p90s doubled
# (a ten-run spread of 0.37), while this median of window p75s rose at
# most 1.32-fold. The whole-run p99 is kept in the run record.
SERVE_TAIL_WINDOW = 50

# Percentiles the tail is chosen from.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (value, percentile, samples_beyond), the value taken by
    nearest rank. When even the median has fewer than ten samples beyond
    it, the median is reported with the samples it does have beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = 50.0
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= 10:
            best = p
    if not ordered:
        return 0.0, best, 0
    rank = max(1, math.ceil(best / 100.0 * n))
    return ordered[rank - 1], best, n - rank


def windowed_tail(values, window):
    """The median over consecutive `window`-sample windows of each window's
    tail(), for runs long enough to hold at least two windows; tail() of
    the whole run otherwise. A host stall then moves the tail of the
    windows it falls in, not the reported median of them."""
    count = len(values) // window
    if count < 2:
        return tail(values)
    tails = [tail(values[i * window:(i + 1) * window]) for i in range(count)]
    return (median([t[0] for t in tails]), tails[0][1], tails[0][2])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, plus the details
    (tail percentile, op counts) recorded beside them."""
    if raw["kind"] == "pair":
        latencies = raw["op_ms"]
        attempted = len(latencies)
        ok = attempted
        goodput = ok / raw["timed_wall_s"]
        tail_value, tail_pct, beyond = tail(latencies)
    else:
        requests = raw["requests"]
        attempted = len(requests)
        ok_requests = [r for r in requests if r["status"] == "ok"]
        ok = len(ok_requests)
        # Failed requests show in ok_frac and goodput, not in latencies.
        latencies = [r["latency_ms"] for r in ok_requests]
        limit = raw["latency_limit_ms"]
        goodput = (sum(1 for r in ok_requests if r["latency_ms"] <= limit) /
                   raw["timed_wall_s"])
        tail_value, tail_pct, beyond = windowed_tail(latencies,
                                                     SERVE_TAIL_WINDOW)
    metrics = {
        "setup_s": _metric(median(raw["setup_s"]), "s"),
        "latency_p50_ms": _metric(median(latencies), "ms"),
        "latency_tail_ms": _metric(tail_value, "ms"),
        "goodput_ops_s": _metric(goodput, "1/s"),
        "ok_frac": _metric(ok / attempted, "frac"),
        "peak_rss_mb": _metric(raw["peak_rss_mb"], "MiB"),
        "f_measure": _metric(raw["f_measure"], "frac"),
    }
    detail = {"ops": attempted, "tail_percentile": tail_pct,
              "tail_samples_beyond": beyond}
    if raw["kind"] == "serve":
        detail["tail_window"] = SERVE_TAIL_WINDOW
        detail["run_p99_ms"] = nearest_rank(latencies, 0.99)
    return metrics, attempted, attempted - ok, detail


def _pair_layers(raw):
    """Per-op medians of the layer spans of the traced ops (zeros for the
    serve workload, which runs no pair op of its own)."""
    ops = raw.get("traced_ops", [])
    out = {}
    for prefix, span in PAIR_LAYERS:
        ms = [op["layers"].get(span, {}).get("ms", 0.0) for op in ops]
        share = [op["layers"].get(span, {}).get("ms", 0.0) / op["op_ms"]
                 for op in ops if op["op_ms"] > 0]
        out[f"{prefix}.{span.split('.')[1]}_ms"] = _metric(median(ms), "ms")
        out[f"{prefix}.{span.split('.')[1]}_share"] = _metric(median(share),
                                                              "frac")
    parse_mb_s = [op["input_bytes"] / 1e6 /
                  (op["layers"]["log.parse"]["ms"] / 1e3)
                  for op in ops if op["layers"].get("log.parse", {}).get("ms")]
    out["log.parse_mb_s"] = _metric(median(parse_mb_s), "MB/s")
    ns_per_eval = [op["layers"]["core.ems"]["ms"] * 1e6 / op["evals"]
                   for op in ops if op["evals"] > 0]
    out["core.ems_ns_per_eval"] = _metric(median(ns_per_eval), "ns")
    out["core.ems_iterations"] = _metric(
        median([op["iterations"] for op in ops]), "count")
    out["core.ems_evals"] = _metric(median([op["evals"] for op in ops]),
                                    "count")
    updates = [op["evals"] + op["pruned"] + op["skipped"] for op in ops]
    out["core.ems_pruned_frac"] = _metric(
        median([op["pruned"] / u for op, u in zip(ops, updates) if u]), "frac")
    out["core.ems_skipped_frac"] = _metric(
        median([op["skipped"] / u for op, u in zip(ops, updates) if u]),
        "frac")
    out["core.coeff_table_mb"] = _metric(
        median([op["coeff_table_bytes"] / 2**20 for op in ops]), "MiB")
    out["trace.unattributed_frac"] = _metric(
        median([op["self_ms"] / op["op_ms"] for op in ops if op["op_ms"] > 0]),
        "frac")
    out["trace.overhead_frac"] = _metric(
        median([op["op_ms"] for op in ops]) / median(raw["untraced_op_ms"]) -
        1.0 if ops else 0.0, "frac")
    return out


def _serve_layers(raw):
    """Client-side request-path metrics of the serve workload (zeros for
    the pair workloads, which do not cross these layers)."""
    requests = raw.get("requests", [])
    ok = [r for r in requests if r["status"] == "ok"]

    def kind_p50(kind):
        return median([r["latency_ms"] for r in ok if r["kind"] == kind])

    handled = [r for r in ok if r["millis"] >= 0]
    outside = [r["latency_ms"] - r["millis"] for r in handled]
    shed = sum(1 for r in requests if r["status"] in ("overloaded", "draining"))
    lookups = raw.get("cache_hits", 0) + raw.get("cache_misses", 0)
    stream = (raw.get("stream_iterations", 0) +
              raw.get("stream_iterations_saved", 0))
    return {
        "serve.match_p50_ms": _metric(kind_p50("match"), "ms"),
        "serve.append_p50_ms": _metric(kind_p50("append"), "ms"),
        "serve.topk_p50_ms": _metric(kind_p50("topk"), "ms"),
        "serve.stats_p50_ms": _metric(kind_p50("stats"), "ms"),
        "serve.handler_p50_ms": _metric(
            median([r["millis"] for r in handled]), "ms"),
        "serve.outside_handler_p50_ms": _metric(median(outside), "ms"),
        "serve.outside_handler_p99_ms": _metric(nearest_rank(outside, 0.99),
                                                "ms"),
        "serve.shed_frac": _metric(shed / len(requests) if requests else 0.0,
                                   "frac"),
        "serve.cache_hit_frac": _metric(
            raw.get("cache_hits", 0) / lookups if lookups else 0.0, "frac"),
        "serve.queue_depth_max": _metric(raw.get("queue_depth_max", 0),
                                         "count"),
        "net.send_lag_p99_ms": _metric(
            nearest_rank([r["send_lag_ms"] for r in requests], 0.99), "ms"),
        "stream.iterations_saved_frac": _metric(
            raw.get("stream_iterations_saved", 0) / stream if stream else 0.0,
            "frac"),
        "index.exact_runs_per_query": _metric(
            raw.get("topk_exact_runs", 0) / raw["topk_queries"]
            if raw.get("topk_queries") else 0.0, "count"),
        "index.pruned_frac": _metric(
            raw.get("topk_pruned", 0) / raw["topk_candidates"]
            if raw.get("topk_candidates") else 0.0, "frac"),
        "prob.em_iterations": _metric(median(raw.get("prob_iterations", [])),
                                      "count"),
    }


def per_layer(raw):
    """The per-layer metrics of one traced run."""
    metrics = _pair_layers(raw)
    metrics.update(_serve_layers(raw))
    if raw["kind"] == "pair":
        attempted = len(raw["op_ms"])
        failed = 0
    else:
        attempted = len(raw["requests"])
        failed = sum(1 for r in raw["requests"] if r["status"] != "ok")
    return metrics, attempted, failed


def compare(records_a, records_b, bounds):
    """Side-by-side report of two sets of run records.

    Returns (lines, flags): printable lines, and one message per exact
    count that differs at an equal seed or end-to-end median that got
    worse by more than its bound.
    """
    lines, flags = [], []
    workloads = sorted({r["workload"] for r in records_a + records_b})
    for workload in workloads:
        lines.append(f"== {workload}")
        for trace in (0, 1):
            a = [r for r in records_a
                 if r["workload"] == workload and r["trace"] == trace]
            b = [r for r in records_b
                 if r["workload"] == workload and r["trace"] == trace]
            if not a or not b:
                continue
            names = sorted(set(a[0]["result"]["metrics"]) &
                           set(b[0]["result"]["metrics"]))
            lines.append("  end to end (q1 / median / q3)" if trace == 0
                         else "  per layer (median)")
            for name in names:
                va = [r["result"]["metrics"][name]["value"] for r in a]
                vb = [r["result"]["metrics"][name]["value"] for r in b]
                qa, qb = quartiles(va), quartiles(vb)
                delta = ((qb[1] - qa[1]) / qa[1] * 100.0) if qa[1] else 0.0
                unit = a[0]["result"]["metrics"][name]["unit"]
                if trace == 0:
                    line = (f"    {name:<34} {qa[0]:.4g} / {qa[1]:.4g} / "
                            f"{qa[2]:.4g}  ->  {qb[0]:.4g} / {qb[1]:.4g} / "
                            f"{qb[2]:.4g} {unit}  ({delta:+.1f}%)")
                    bound = bounds.get(name)
                    if bound is not None and qa[1]:
                        worse = (qb[1] - qa[1]) / qa[1]
                        if bound["better"] == "higher":
                            worse = -worse
                        if worse > bound["bound"]:
                            line += f"  WORSE than bound {bound['bound']}"
                            flags.append(f"{workload}: {name} worse by "
                                         f"{worse:.1%} > {bound['bound']}")
                else:
                    line = (f"    {name:<34} {qa[1]:.4g} -> {qb[1]:.4g} {unit}"
                            f"  ({delta:+.1f}%)")
                lines.append(line)
            for name in EXACT_COUNTS:
                if name not in names:
                    continue
                by_seed = {r["seed"]: r["result"]["metrics"][name]["value"]
                           for r in a}
                for r in b:
                    seed = r["seed"]
                    if seed in by_seed and \
                            r["result"]["metrics"][name]["value"] != \
                            by_seed[seed]:
                        msg = (f"{workload}: {name} changed at seed {seed}: "
                               f"{by_seed[seed]} -> "
                               f"{r['result']['metrics'][name]['value']}")
                        lines.append(f"    COUNT CHANGED {msg}")
                        flags.append(msg)
    return lines, flags
