#!/usr/bin/env python3
"""Small-size self-check of mecbench. Run from the root of a source checkout:

    python3 mecbench/selfcheck.py

Checks that every metric BENCHMARK.json names is printed, with its unit, for
every workload; that sim-time metrics are byte-identical across two runs at
one seed and differ at another; that the per-layer self times match a
recomputation from the span file; and that sim-mec-dns at seed 42 measures
the same program as bench_throughput. Exits 1 on the first failure.
"""
import collections
import csv
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SIM = ("sim-mec-dns", "sim-split-fetch")
# Sim-time facts of a run, from its detail line.
SIM_TIME_DETAIL = ("dns_p50_ms", "dns_mean_ms", "dns_p99_ms", "fetch_p50_ms", "fetch_p99_ms",
                   "fetch_dns_p50_ms",
                   "events_per_query", "queries_per_repetition", "dns_samples",
                   "fetch_samples")
# bench_throughput's default mec-mec row (BENCH_throughput.json).
THROUGHPUT_ROW = {"p50": 27.614, "p99": 43.011, "events_per_query": 23.00}


def check(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def run(workload, seed, trace, small=True, seconds=2):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines)
    check(ok, f"{workload} seed {seed} trace {trace} exits 0"
              + ("" if ok else f" (got {proc.returncode}): {proc.stdout[-800:]}"))
    result = json.loads(lines[-1])
    # Kept as text, so byte-identity is checked on the digits as printed.
    detail_text = next(l[len("detail "):] for l in lines if l.startswith("detail "))
    return result, json.loads(detail_text), json.loads(detail_text, parse_float=str)


def span_self_means(path):
    rows, child = {}, collections.defaultdict(float)
    with open(path, newline="") as f:
        for r in csv.DictReader(f):
            duration = int(r["end_ns"]) - int(r["start_ns"])
            rows[r["id"]] = (r["name"], duration)
            if int(r["parent"]) >= 0:
                child[r["parent"]] += duration
    total, count = collections.defaultdict(float), collections.Counter()
    for key, (name, duration) in rows.items():
        total[name] += duration - child.get(key, 0.0)
        count[name] += 1
    return {name: total[name] / count[name] for name in total}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, detail, _ = run(workload, 7, trace)
            check(result["correct"] and result["attempted"] >= 1,
                  f"{workload} trace {trace} answers correctly")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"],
                      f"{workload} trace {trace} reports {metric['name']} [{metric['unit']}]")
            check(set(result["metrics"]) == {m["name"] for m in spec[key]},
                  f"{workload} trace {trace} reports no unlisted metric")
            if trace == 1:
                means = span_self_means(detail["span_file"])
                pairs = {"simnet.step": "simnet.step_ns", "dns.stub.issue": "dns.stub.issue_ns",
                         "dns.wire.decode": "dns.wire.decode_ns",
                         "dns.wire.encode": "dns.wire.encode_ns",
                         "dns.zone.lookup": "dns.zone.lookup_ns",
                         "netio.recv_handler": "netio.recv_handler_ns",
                         "netio.timer": "netio.timer_ns", "netio.send": "netio.send_ns"}
                for span, metric in pairs.items():
                    if span not in means:
                        continue
                    reported = result["metrics"][metric]["value"]
                    check(abs(reported - means[span]) <= 1e-6 * max(1.0, abs(means[span])),
                          f"{workload} {metric} = span-file self time ({reported:.1f} ns)")

    for workload in SIM:
        a = run(workload, 11, 0)
        b = run(workload, 11, 0)
        c = run(workload, 12, 0)
        facts = lambda r: [r[2][k] for k in SIM_TIME_DETAIL]
        check(facts(a) == facts(b), f"{workload} sim-time metrics identical at one seed")
        check(facts(a) != facts(c), f"{workload} sim-time metrics differ at another seed")

    out = os.path.join(BUILD, "mecbench-out", "BENCH_throughput.json")
    proc = subprocess.run([os.path.join(BUILD, "bench_throughput"), "--deployments=mec-mec",
                           "--workers", "1", "--json-out", out], cwd=ROOT,
                          capture_output=True, text=True)
    check(proc.returncode == 0, "bench_throughput runs")
    with open(out) as f:
        row = json.load(f)["scenarios"][0]
    _, detail, _ = run("sim-mec-dns", 42, 0, small=False, seconds=0.1)
    ours = {"p50": detail["dns_p50_ms"], "p99": detail["dns_p99_ms"],
            "events_per_query": detail["events_per_query"]}
    for key, expected in THROUGHPUT_ROW.items():
        check(ours[key] == row[key], f"sim-mec-dns seed 42 {key} {ours[key]} == bench_throughput {row[key]}")
        check(round(row[key], 3) == expected, f"bench_throughput {key} is {expected}")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
