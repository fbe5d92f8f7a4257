#!/usr/bin/env python3
"""Reads the span file of a traced benchmark run and reports per layer.

    python3 perfbench/trace_report.py SPANS [--untraced RESULT.json]

Prints each layer's self time, every per-layer metric by name, the time
that no child span claims under each parent span (the residual), and,
given the result of an untraced run of the same workload and seed, the
tracing overhead on every end-to-end metric.

Span file: one span per line, tab-separated
    id  parent  name  request  start_ns  end_ns  attrs
where attrs is "-" or "key=value;key=value". Lines starting with "#meta"
carry run-level facts. A layer is the span name up to its first dot.
"""

import argparse
import collections
import json
import math
import statistics
import sys


class Span:
    __slots__ = ("id", "parent", "name", "request", "start", "end", "attrs",
                 "children")

    def __init__(self, fields):
        self.id = int(fields[0])
        self.parent = int(fields[1])
        self.name = fields[2]
        self.request = int(fields[3])
        self.start = int(fields[4])
        self.end = int(fields[5])
        self.attrs = {}
        if fields[6] != "-":
            for pair in fields[6].split(";"):
                key, _, value = pair.partition("=")
                self.attrs[key] = value
        self.children = []

    @property
    def dur_ns(self):
        return self.end - self.start

    def num(self, key, default=0.0):
        return float(self.attrs.get(key, default))


class Trace:
    def __init__(self, meta, spans):
        self.meta = meta
        self.spans = spans
        self.by_name = collections.defaultdict(list)
        index = {s.id: s for s in spans}
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent in index:
                index[s.parent].children.append(s)

    def named(self, name, **attrs):
        return [s for s in self.by_name.get(name, [])
                if all(s.attrs.get(k) == v for k, v in attrs.items())]


def load(path):
    meta = {}
    spans = []
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "#meta":
                meta[fields[1]] = fields[2]
            elif len(fields) == 7:
                spans.append(Span(fields))
    return Trace(meta, spans)


def covered_ns(span):
    """Nanoseconds of `span` covered by the union of its children."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in span.children)
    total = 0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def pct(values, q):
    """Nearest-rank percentile (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def us(spans):
    return [s.dur_ns / 1e3 for s in spans]


# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = collections.OrderedDict([
    ("workload.generate_s", "s"),
    ("sum.bootstrap_s", "s"),
    ("sum.publish_us.p50", "us/op"),
    ("sum.publish_us.p99", "us/op"),
    ("sum.users_per_publish", "count"),
    ("sum.publishes", "count"),
    ("engine.fit_us", "us/op"),
    ("engine.hit_us.p50", "us/op"),
    ("engine.hit_us.p99", "us/op"),
    ("engine.miss_us.p50", "us/op"),
    ("engine.miss_us.p99", "us/op"),
    ("engine.hit_ratio", "fraction"),
    ("engine.apply_us.p50", "us/op"),
    ("engine.apply_us.p99", "us/op"),
    ("engine.apply.matrix_us", "us/op"),
    ("engine.apply.refresh_us", "us/op"),
    ("engine.apply.rewarm_us", "us/op"),
    ("engine.apply.rows_refreshed", "count"),
    ("engine.apply.invalidated", "count"),
    ("engine.apply.rewarmed", "count"),
    ("engine.apply.invalidate_all_share", "fraction"),
    ("pipeline.read_queue_us.p50", "us/op"),
    ("pipeline.read_queue_us.p99", "us/op"),
    ("pipeline.read_batch_us", "us/op"),
    ("pipeline.batch_size", "count"),
    ("pipeline.write_queue_us", "us/op"),
    ("pipeline.write_apply_us", "us/op"),
    ("campaign.run_us", "us/op"),
    ("campaign.retrain_us", "us/op"),
    ("campaign.redemption_us", "us/op"),
    ("campaign.contacts", "count"),
    ("campaign.publishes_per_contact", "count"),
    ("loadgen.late_ops", "count"),
])


def per_layer_values(t):
    """Every per-layer metric; a layer the workload does not drive
    reports 0."""
    v = {}
    v["workload.generate_s"] = median(
        [s.dur_ns / 1e9 for s in t.named("workload.generate")])
    v["sum.bootstrap_s"] = median(
        [s.dur_ns / 1e9 for s in t.named("sum.bootstrap")])

    publishes = t.named("sum.publish")
    v["sum.publish_us.p50"] = pct(us(publishes), 0.5)
    v["sum.publish_us.p99"] = pct(us(publishes), 0.99)
    boots = t.named("sum.bootstrap")
    runs = t.named("campaign.run")
    v["sum.users_per_publish"] = mean([s.num("users") for s in publishes])
    if runs:
        # Campaign: the version delta over a round's bootstrap and loop.
        v["sum.publishes"] = (sum(s.num("publishes") for s in boots + runs)
                              / max(1, len(boots)))
    else:
        v["sum.publishes"] = sum(s.num("publishes") for s in publishes)

    fits = t.named("engine.fit")
    v["engine.fit_us"] = median(
        [s.dur_ns / 1e3 / max(1.0, s.num("users")) for s in fits])

    recs = t.named("engine.recommend")
    hits = [s for s in recs if s.attrs.get("hit") == "1"]
    misses = [s for s in recs if s.attrs.get("hit") == "0"]
    v["engine.hit_us.p50"] = pct(us(hits), 0.5)
    v["engine.hit_us.p99"] = pct(us(hits), 0.99)
    v["engine.miss_us.p50"] = pct(us(misses), 0.5)
    v["engine.miss_us.p99"] = pct(us(misses), 0.99)
    v["engine.hit_ratio"] = len(hits) / len(recs) if recs else 0.0

    applies = [s for s in t.named("engine.apply")
               if s.attrs.get("failed") != "1"]
    v["engine.apply_us.p50"] = pct(us(applies), 0.5)
    v["engine.apply_us.p99"] = pct(us(applies), 0.99)
    for part in ("matrix", "refresh", "rewarm"):
        v["engine.apply.%s_us" % part] = mean(
            [c.dur_ns / 1e3 for s in applies for c in s.children
             if c.name == "engine.apply." + part])
    v["engine.apply.rows_refreshed"] = mean([s.num("rows") for s in applies])
    v["engine.apply.invalidated"] = mean(
        [s.num("invalidated") for s in applies])
    v["engine.apply.rewarmed"] = mean([s.num("rewarmed") for s in applies])
    v["engine.apply.invalidate_all_share"] = mean(
        [s.num("all") for s in applies])

    v["pipeline.read_queue_us.p50"] = pct(
        us(t.named("pipeline.queue", lane="read")), 0.5)
    v["pipeline.read_queue_us.p99"] = pct(
        us(t.named("pipeline.queue", lane="read")), 0.99)
    v["pipeline.read_batch_us"] = pct(us(t.named("pipeline.serve")), 0.5)
    batches = float(t.meta.get("pipeline.batches", 0))
    v["pipeline.batch_size"] = (
        float(t.meta.get("pipeline.responses", 0)) / batches
        if batches else 0.0)
    v["pipeline.write_queue_us"] = pct(
        us(t.named("pipeline.queue", lane="write")), 0.5)
    v["pipeline.write_apply_us"] = pct(us(t.named("pipeline.apply")), 0.5)

    contacts = sum(s.num("contacts") for s in runs)
    v["campaign.run_us"] = (
        sum(s.dur_ns for s in runs) / 1e3 / contacts if contacts else 0.0)
    v["campaign.retrain_us"] = (
        sum(s.dur_ns for s in t.named("campaign.retrain")) / 1e3 / contacts
        if contacts else 0.0)
    redemptions = t.named("campaign.redemption")
    scored = sum(s.num("contacts") for s in redemptions)
    v["campaign.redemption_us"] = (
        sum(s.dur_ns for s in redemptions) / 1e3 / scored if scored else 0.0)
    v["campaign.contacts"] = contacts / max(1, len(boots)) if runs else 0.0
    v["campaign.publishes_per_contact"] = (
        sum(s.num("publishes") for s in runs) / contacts if contacts else 0.0)

    v["loadgen.late_ops"] = float(t.meta.get("loadgen.late_ops", 0))
    return v


def per_layer_metrics(trace):
    """The per-layer metrics in the result-line form."""
    values = per_layer_values(trace)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def layer_of(name):
    return name.split(".", 1)[0]


def print_report(trace, traced=None, untraced=None, out=sys.stdout):
    w = out.write
    w("trace report: %s, %d spans\n"
      % (trace.meta.get("workload", "?"), len(trace.spans)))

    # Self time: a span's duration minus what its children cover. A
    # span with children reports its self time as that parent's
    # residual below, not as layer time.
    self_ns = collections.Counter()
    count = collections.Counter()
    residual = collections.defaultdict(list)
    for s in trace.spans:
        if s.children:
            residual[s.name].append((s.dur_ns, s.dur_ns - covered_ns(s)))
        else:
            self_ns[layer_of(s.name)] += s.dur_ns
            count[layer_of(s.name)] += 1
    w("  layer self time (leaf spans)\n")
    for layer, ns in self_ns.most_common():
        w("    %-12s %12.3f ms over %8d spans\n"
          % (layer, ns / 1e6, count[layer]))
    w("  residual no child span claims, per parent span\n")
    for name in sorted(residual):
        rows = residual[name]
        parent = sum(r[0] for r in rows)
        rest = sum(r[1] for r in rows)
        w("    %-20s n=%-8d parent %12.3f ms  residual %12.3f ms (%5.1f%%)"
          "  mean residual %9.2f us\n"
          % (name, len(rows), parent / 1e6, rest / 1e6,
             100.0 * rest / parent if parent else 0.0, rest / 1e3 / len(rows)))
    w("  per-layer metrics\n")
    values = per_layer_values(trace)
    for name, unit in PER_LAYER_UNITS.items():
        w("    %-36s %16.4f %s\n" % (name, values[name], unit))
    late = [s.num("late_ns") / 1e6 for s in trace.named("pipeline.op")
            if "late_ns" in s.attrs]
    if late:
        w("  loadgen (sampled ops): late p99 %.3f ms, max %.3f ms\n"
          % (pct(late, 0.99), max(late)))
    if traced and untraced:
        w("  tracing overhead (traced vs untraced, same seed)\n")
        for name, m in traced.get("metrics", {}).items():
            base = untraced.get("metrics", {}).get(name)
            if not base or not base["value"]:
                continue
            w("    %-16s traced %14.6f  untraced %14.6f  %+7.2f%% %s\n"
              % (name, m["value"], base["value"],
                 100.0 * (m["value"] / base["value"] - 1.0), m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("spans")
    parser.add_argument("--untraced",
                        help="result object of an untraced run")
    parser.add_argument("--traced",
                        help="result object the traced run printed")
    args = parser.parse_args()
    trace = load(args.spans)
    traced = untraced = None
    if args.traced:
        with open(args.traced) as f:
            traced = json.load(f)
    if args.untraced:
        with open(args.untraced) as f:
            untraced = json.load(f)
    print_report(trace, traced=traced, untraced=untraced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
