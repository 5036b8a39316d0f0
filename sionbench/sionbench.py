#!/usr/bin/env python3
"""sionbench: the host-time benchmark of the sion library.

The library's results are virtual seconds from a machine model; this
benchmark measures the other clock: how long the simulator itself takes on
the host, and how much memory it needs. Each workload runs in its own
process of the `sionbench` driver binary (sionbench.cpp), which this script
builds on first use into .bench_build/ at the repository root.

  sionbench.py run [--workload W ...] [--seed N] [--seconds S] [--trace 0|1]
                   [--size full|smoke] [--runs K] [--report PATH] [--append]
      Runs each workload, prints every metric as `workload metric value
      unit`, checks the correctness oracle, writes one bench::Report JSON
      (default .bench_build/sionbench_report.json), and prints as its last
      line one JSON object {correct, attempted, failed, metrics}. With
      --trace 1 it reports the per-layer metrics instead of the end-to-end
      ones, prints each span's self time and writes the spans to
      sionbench_trace.json next to the report.
  sionbench.py compare BASE.json NEW.json
      Judges NEW against BASE, one row per workload: gain, regression,
      unresolved or same, per end-to-end metric (see judge()).
  sionbench.py smoke
      Every workload at --size smoke: report shape, oracle, no failures.
  sionbench.py expect
      Regenerates sionbench_expected.json, the committed virtual makespans
      and SimFs counters the oracle compares against.

Metric names, units, directions and bounds come from BENCHMARK.json at the
repository root.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "sionbench")
BINARY = os.path.join(BUILD_DIR, "sionbench")
EXPECTED = os.path.join(HERE, "sionbench_expected.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("create_storm", "bandwidth_sharded", "checkpoint_codec",
             "buddy_remap")
# Virtual makespans of these do not depend on the seed: fill payloads, no
# loss. The others are pinned for DEFAULT_SEED only.
SEED_FREE = ("create_storm", "bandwidth_sharded")
DEFAULT_SEED = 1
MIB = 1024.0 * 1024.0
# SimFs counters that are per-layer metrics ("simfs.<name>").
COUNTERS = ("creates", "opens", "writes", "reads", "bytes_written",
            "bytes_read", "lock_transfers")
# Seconds a workload process may take beyond its --seconds budget.
RUN_SLACK_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def benchmark_spec():
    if not os.path.exists(BENCHMARK):
        raise BenchError(f"{BENCHMARK} is missing")
    return load_json(BENCHMARK)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no sion sources under {ROOT}/src: sionbench "
                         "builds the library from the repository it sits in")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", BUILD_DIR, "--target", "sionbench",
                    "-j", str(min(4, os.cpu_count() or 1))])
    return BINARY


def run_build_step(cmd):
    # Build chatter goes to stderr: stdout ends with the result line.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if proc.returncode != 0:
        raise BenchError(f"build step failed ({proc.returncode}): "
                         f"{' '.join(cmd)}")


# ---------------------------------------------------------------------------
# One workload process
# ---------------------------------------------------------------------------

def run_driver(binary, workload, seed, seconds, trace, size, tag,
               shards=None):
    """Runs one workload process; returns (report, spans or None)."""
    os.makedirs(BUILD, exist_ok=True)
    report_path = os.path.join(BUILD, f"run-{workload}-{tag}.json")
    spans_path = os.path.join(BUILD, f"spans-{workload}-{tag}.json")
    for path in (report_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}",
           f"--size={size}", f"--json={report_path}",
           f"--trace-out={spans_path}"]
    if shards is not None:
        cmd.append(f"--shards={shards}")
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=sys.stderr,
                          timeout=seconds + RUN_SLACK_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: driver exited with {proc.returncode}")
    report = load_json(report_path)
    spans = load_json(spans_path)["spans"] if trace else None
    os.remove(report_path)
    if trace:
        os.remove(spans_path)
    return report, spans


def tables(report):
    return {t["name"]: t for t in report["tables"]}


def rows_as_dicts(table):
    return [dict(zip(table["columns"], row)) for row in table["rows"]]


# ---------------------------------------------------------------------------
# Correctness oracle
# ---------------------------------------------------------------------------

def observed(report):
    """Per-rep virtual makespans and SimFs counters, untraced and traced."""
    t = tables(report)
    vtime = {}
    for row in rows_as_dicts(t["vtime"]):
        vtime.setdefault(row["rep"], {"traced": row["traced"], "vtime": {}})
        vtime[row["rep"]]["vtime"][row["phase"]] = row["makespan"]
    counts = {}
    for row in rows_as_dicts(t["counts"]):
        counts.setdefault(row["rep"], {})[row["counter"]] = row["value"]
    return vtime, counts


def expected_entry(expected, size, workload, seed):
    per_workload = expected.get(size, {}).get(workload, {})
    if workload in SEED_FREE:
        return per_workload.get("any")
    return per_workload.get(f"seed={seed}")


def check_oracle(report, expected, size, workload, seed):
    """Returns a list of oracle violations (empty = pass)."""
    vtime, counts = observed(report)
    problems = []
    for traced in (0, 1):
        reps = [r for r, v in sorted(vtime.items()) if v["traced"] == traced]
        for r in reps[1:]:
            if vtime[r]["vtime"] != vtime[reps[0]]["vtime"]:
                problems.append(f"rep {r} makespans {vtime[r]['vtime']} != "
                                f"rep {reps[0]} {vtime[reps[0]]['vtime']}")
    reps = sorted(counts)
    for r in reps[1:]:
        if counts[r] != counts[reps[0]]:
            problems.append(f"rep {r} SimFs counters differ from rep "
                            f"{reps[0]}")
    entry = expected_entry(expected, size, workload, seed)
    untraced = [r for r, v in sorted(vtime.items()) if v["traced"] == 0]
    if entry is not None and untraced:
        got = vtime[untraced[0]]["vtime"]
        if got != entry["vtime"]:
            problems.append(f"makespans {got} != committed {entry['vtime']}")
        if counts.get(untraced[0]) != entry["counts"]:
            problems.append("SimFs counters differ from the committed ones")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def timed_reps(report, traced):
    """Reps that feed the time medians: rep 0 is the warm-up (it faults in
    the process's first stack slabs and heap), counted but not timed."""
    return [r for r in rows_as_dicts(tables(report)["reps"])
            if r["traced"] == traced and r["rep"] > 0]


def end_to_end(report):
    reps = timed_reps(report, 0)
    write_s = statistics.median(r["write_s"] for r in reps)
    read_s = statistics.median(r["read_s"] for r in reps)
    ops_per_rep = reps[0]["attempted"]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "write_s": (write_s, "s"),
        "read_s": (read_s, "s"),
        "task_ops_per_s": (ops_per_rep / (write_s + read_s), "ops/s"),
        "peak_rss_mib": (report["host"]["peak_rss_bytes"] / MIB, "MiB"),
    }


def op_totals(report):
    """Ops attempted and failed over every rep, and the untraced rep count."""
    reps = rows_as_dicts(tables(report)["reps"])
    return (int(sum(r["attempted"] for r in reps)),
            int(sum(r["failed"] for r in reps)),
            sum(1 for r in reps if r["traced"] == 0))


def span_layers(spans):
    """Self time per span name, averaged over traced reps, and the smallest
    share of a phase's wall time that its segment spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    reps = {s["rep"] for s in spans}
    self_time = {}
    coverage = []
    for s in spans:
        covered = sum(c["end"] - c["start"] for c in children.get(s["id"], []))
        duration = s["end"] - s["start"]
        self_time[s["name"]] = (self_time.get(s["name"], 0.0)
                                + (duration - covered) / len(reps))
        if s["name"] in ("write", "read") and duration > 0:
            coverage.append(covered / duration)
    return self_time, min(coverage)


def per_layer(report, spans):
    t = tables(report)
    metrics = {row["metric"]: (row["value"], row["unit"])
               for row in rows_as_dicts(t["probes"])}
    _, counts = observed(report)
    first = counts[min(counts)]
    for name in COUNTERS:
        metrics[f"simfs.{name}"] = (int(first[name]), "count")
    metrics["simfs.stored_per_user_byte"] = (
        rows_as_dicts(t["reps"])[0]["stored_per_user_byte"], "ratio")
    wall = [statistics.median(r["write_s"] + r["read_s"]
                              for r in timed_reps(report, traced))
            for traced in (0, 1)]
    metrics["trace.overhead"] = (wall[1] / wall[0] - 1.0, "ratio")
    self_time, coverage = span_layers(spans)
    metrics["trace.dispatch_s"] = (self_time["par.dispatch_s"], "s")
    metrics["trace.reap_s"] = (self_time["par.reap_s"], "s")
    return metrics, self_time, coverage


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_layers(workload, self_time):
    """Self times partition the rep span, so they sum to its duration."""
    total = sum(self_time.values())
    layers = {}
    for name, value in self_time.items():
        layer = name.split(".")[0] if "." in name else "bench"
        layers[layer] = layers.get(layer, 0.0) + value
    print(f"{workload} self time per traced rep ({total:.6f} s):")
    for title, items in (("span", self_time), ("layer", layers)):
        for name, value in sorted(items.items(), key=lambda kv: -kv[1]):
            print(f"  {title} {name:26s} {value:12.6f} s "
                  f"{value / total:7.1%}")


def cmd_run(args):
    spec = benchmark_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    binary = args.binary or build()
    expected = load_json(EXPECTED)
    workloads = args.workload or list(WORKLOADS)
    started = time.monotonic()
    results = []  # (workload, run, correct, attempted, failed, metrics)
    all_spans = []
    layer_rows = []
    peak_rss = 0
    for workload in workloads:
        for k in range(args.runs):
            report, spans = run_driver(binary, workload, args.seed,
                                       args.seconds, args.trace, args.size,
                                       tag=f"{os.getpid()}-{k}")
            peak_rss = max(peak_rss, report["host"]["peak_rss_bytes"])
            problems = check_oracle(report, expected, args.size, workload,
                                    args.seed)
            for p in problems:
                log(f"ORACLE {workload}: {p}")
            attempted, failed, nreps = op_totals(report)
            if args.trace:
                metrics, self_time, coverage = per_layer(report, spans)
                for s in spans:
                    all_spans.append(dict(s, workload=workload, run=k))
                for name, value in sorted(self_time.items()):
                    layer_rows.append([workload, k, name, value])
            else:
                metrics = end_to_end(report)
            missing = [m for m in wanted if m not in metrics]
            if missing:
                raise BenchError(f"{workload}: no value for {missing}")
            metrics = {m: metrics[m] for m in wanted}
            correct = not problems and failed == 0
            print(f"{workload} reps {nreps} (untraced, one warm-up)")
            for name, (value, unit) in metrics.items():
                print(f"{workload} {name} {fmt(value)} {unit}")
            print(f"{workload} fail_ratio {fmt(failed / attempted)} ratio")
            print(f"{workload} oracle {'pass' if not problems else 'FAIL'}")
            if args.trace:
                print(f"{workload} span_coverage {fmt(coverage)} ratio")
                print_layers(workload, self_time)
            results.append((workload, k, correct, attempted, failed, metrics))

    out_dir = os.path.dirname(os.path.abspath(args.report))
    os.makedirs(out_dir, exist_ok=True)
    write_report(args, results, layer_rows, peak_rss,
                 time.monotonic() - started)
    if args.trace:
        trace_path = os.path.join(out_dir, "sionbench_trace.json")
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"spans": all_spans}, f)
        log(f"wrote {trace_path}")

    final = {
        "correct": all(r[2] for r in results),
        "attempted": sum(r[3] for r in results),
        "failed": sum(r[4] for r in results),
        "metrics": {},
    }
    for workload in workloads:
        mine = [r[5] for r in results if r[0] == workload]
        for name in wanted:
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            final["metrics"][key] = {
                "value": statistics.median(m[name][0] for m in mine),
                "unit": mine[0][name][1],
            }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def write_report(args, results, layer_rows, peak_rss, wall):
    """One bench::Report (scripts/check_bench_json.py schema): a table per
    workload with one row per run; --append adds rows to an existing
    report, so runs of two commits can alternate into two files."""
    doc = None
    if args.append and os.path.exists(args.report):
        doc = load_json(args.report)
    if doc is None:
        doc = {"bench": "sionbench",
               "title": "Host time and memory of the sion simulator",
               "host": {"wall_seconds": 0.0, "peak_rss_bytes": 0},
               "time_unit": "host_seconds",
               "params": {"size": args.size, "trace": int(args.trace),
                          "seconds": args.seconds},
               "tables": []}
    doc["host"]["wall_seconds"] += wall
    doc["host"]["peak_rss_bytes"] = max(doc["host"]["peak_rss_bytes"],
                                        peak_rss)
    by_name = {t["name"]: t for t in doc["tables"]}

    def add_row(name, columns, row):
        table = by_name.get(name)
        if table is None:
            table = {"name": name, "columns": columns, "rows": []}
            by_name[name] = table
            doc["tables"].append(table)
        if table["columns"] != columns:
            raise BenchError(f"{args.report}: table {name} has other "
                             "columns; cannot append runs of another mode")
        table["rows"].append(row)

    for workload, _, correct, attempted, failed, metrics in results:
        add_row(workload,
                ["seed", "correct", "attempted", "failed"] + sorted(metrics),
                [args.seed, int(correct), attempted, failed]
                + [metrics[m][0] for m in sorted(metrics)])
    for row in layer_rows:
        add_row("layers", ["workload", "run", "span", "self_s"], row)
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    log(f"wrote {args.report}")


# ---------------------------------------------------------------------------
# compare: the rule for claiming a gain or a regression
# ---------------------------------------------------------------------------

MIN_PAIRS = 10
WIN_RATE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(base, new, better, bound):
    """Verdict for one metric on one workload. `base` and `new` hold one
    value per run; run i of each side forms pair i. A gain needs at least
    MIN_PAIRS pairs, a win in WIN_RATE of them and a median difference
    beyond the base's interquartile range. A regression is a median worse
    by more than `bound`; when either side's spread exceeds the bound the
    metric is unresolved instead, unless every new run beats every base
    run."""
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    q1b, q3b = quartiles(base)
    q1n, q3n = quartiles(new)
    spread = max((q3b - q1b) / abs(mb) if mb else 0.0,
                 (q3n - q1n) / abs(mn) if mn else 0.0)
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_RATE * len(pairs)
            and sign * (mn - mb) > q3b - q1b):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif change < -bound:
        verdict = "regression"
    else:
        verdict = "same"
    return verdict, change, spread


def cmd_compare(args):
    spec = benchmark_spec()
    base, new = load_json(args.base), load_json(args.new)
    base_t, new_t = tables(base), tables(new)
    regressions = 0
    for workload in WORKLOADS:
        if workload not in base_t or workload not in new_t:
            continue
        b = rows_as_dicts(base_t[workload])
        n = rows_as_dicts(new_t[workload])
        fail_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        fail_n = sum(r["failed"] for r in n) / sum(r["attempted"] for r in n)
        cells = []
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in base_t[workload]["columns"]:
                continue
            verdict, change, spread = judge([r[name] for r in b],
                                            [r[name] for r in n],
                                            m["better"], m["bound"])
            if verdict == "gain" and fail_n > fail_b:
                verdict = "no-gain(fail_ratio rose)"
            regressions += verdict == "regression"
            cells.append(f"{name}={verdict}({change:+.1%},spread "
                         f"{spread:.1%})")
        if fail_n > fail_b:
            cells.append(f"fail_ratio rose {fail_b:.3g}->{fail_n:.3g}")
        pairs = min(len(b), len(n))
        if pairs < MIN_PAIRS:
            cells.append(f"(under {MIN_PAIRS} pairs: no gain can be claimed)")
        print(f"{workload} pairs={pairs} " + " ".join(cells))
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# smoke and expect
# ---------------------------------------------------------------------------

def cmd_smoke(args):
    """Every workload at smoke size, untraced and traced: the result line's
    shape, the oracle against the committed smoke makespans, no failures."""
    spec = benchmark_spec()
    binary = args.binary or build()
    expected = load_json(EXPECTED)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in WORKLOADS:
            report, spans = run_driver(binary, workload, DEFAULT_SEED, 0,
                                       trace, "smoke", tag="smoke")
            if expected_entry(expected, "smoke", workload,
                              DEFAULT_SEED) is None:
                raise BenchError(f"{workload}: no committed smoke makespans")
            problems = check_oracle(report, expected, "smoke", workload,
                                    DEFAULT_SEED)
            if problems:
                raise BenchError(f"{workload}: oracle: {problems}")
            attempted, failed, _ = op_totals(report)
            if attempted < 1 or failed != 0:
                raise BenchError(f"{workload}: {failed} of {attempted} ops "
                                 "failed")
            if trace:
                got, _, coverage = per_layer(report, spans)
                if coverage < 0.95:
                    raise BenchError(f"{workload}: spans cover only "
                                     f"{coverage:.1%} of a phase")
            else:
                got = end_to_end(report)
            for name, unit in wanted.items():
                value, got_unit = got.get(name, (None, None))
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value) or got_unit != unit:
                    raise BenchError(f"{workload}: {name} = {value!r} "
                                     f"{got_unit}, want a number in {unit}")
            print(f"ok {workload} {kind}")
    return 0


def pinned(binary, workload, size, seed, shards=None):
    report, _ = run_driver(binary, workload, seed, 0, False, size,
                           tag="expect", shards=shards)
    problems = check_oracle(report, {}, size, workload, seed)
    if problems or op_totals(report)[1] != 0:
        raise BenchError(f"{workload}: unstable or failing: {problems}")
    vtime, counts = observed(report)
    first = min(vtime)
    return {"vtime": vtime[first]["vtime"], "counts": counts[first]}


def cmd_expect(args):
    """Pins virtual makespans and counters. Seed-free workloads must agree
    across two seeds, and bandwidth_sharded's 2-shard values must equal the
    sequential engine's."""
    binary = args.binary or build()
    expected = {}
    for size in ("full", "smoke"):
        for workload in WORKLOADS:
            entry = pinned(binary, workload, size, DEFAULT_SEED)
            if workload in SEED_FREE:
                other = pinned(binary, workload, size, DEFAULT_SEED + 1)
                if other != entry:
                    raise BenchError(f"{workload}: makespans depend on seed")
                if workload == "bandwidth_sharded":
                    serial = pinned(binary, workload, size, DEFAULT_SEED,
                                    shards=1)
                    if serial != entry:
                        raise BenchError(f"{workload}: 2 shards differ from "
                                         "the sequential engine")
                key = "any"
            else:
                key = f"seed={DEFAULT_SEED}"
            expected.setdefault(size, {})[workload] = {key: entry}
            log(f"pinned {size} {workload} {key}")
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {EXPECTED}")
    return 0


# ---------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", action="append", choices=WORKLOADS)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=20.0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--size", choices=("full", "smoke"), default="full")
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--report",
                     default=os.path.join(BUILD, "sionbench_report.json"))
    run.add_argument("--append", action="store_true")
    run.add_argument("--binary")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("new")
    for name in ("smoke", "expect"):
        p = sub.add_parser(name)
        p.add_argument("--binary")
    args = parser.parse_args(argv)
    commands = {"run": cmd_run, "compare": cmd_compare, "smoke": cmd_smoke,
                "expect": cmd_expect}
    try:
        return commands[args.command](args)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as err:
        log(f"sionbench: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
