#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced.  It checks that each run emits every metric BENCHMARK.json
names, with its unit, that every correctness gate passes, and that the
per-layer metrics of the layers a workload exercises are not zero.

    python3 perfbench/smoke.py      # from the root of a checkout, ~1 min
"""

import json
import subprocess
import sys

# Per-layer metrics that must be measured (non-zero) on each workload:
# the layers it exercises.  The others read 0 there by design.
EXERCISED = {
    "paper_fig4": [
        "harness.probes", "harness.probe_s", "harness.prepare_s",
        "sim.events_per_tx", "sim.dispatch_s", "core.sink_s",
        "core.sink_calls", "core.minor_words_per_tx", "disk.log_writes",
        "disk.flush_completions", "disk.flush_backlog_peak",
        "trace.coverage_pct",
    ],
    "serve_commit": [
        "serve.exec_begin_us", "serve.exec_write_us", "serve.exec_commit_us",
        "serve.wire_us", "serve.ack_p99_us", "store.pwrites_per_commit",
        "store.barriers_per_commit", "store.bytes_per_commit",
        "store.append_us", "store.sync_us", "store.append_sync_us",
        "trace.coverage_pct",
    ],
    "restart": [
        "store.attach_s", "store.scan_s", "store.scan_mb_per_s",
        "store.image_mb", "store.segments", "store.live_ratio",
        "recovery.lift_s", "recovery.redo_s", "recovery.records_scanned",
        "trace.coverage_pct",
        # the short serve session of the traced restart run
        "serve.exec_begin_us", "serve.exec_write_us", "serve.exec_commit_us",
        "serve.wire_us", "serve.ack_p99_us", "store.pwrites_per_commit",
        "store.barriers_per_commit", "store.bytes_per_commit",
        "store.append_us", "store.sync_us", "store.append_sync_us",
    ],
    "sharded_2pc": [
        "sim.events_per_tx", "sim.dispatch_s", "core.sink_s",
        "core.sink_calls", "disk.log_writes", "disk.flush_completions",
        "shard.sink_s", "shard.route_engine_s", "shard.mailbox_ops_per_tx",
        "shard.prepares_per_cross_tx", "trace.coverage_pct",
    ],
}


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    # serve_commit is not in BENCHMARK.json (too noisy to bound on a
    # shared host) but stays runnable, so it is smoke-tested too.
    for name in [w["name"] for w in spec["workloads"]] + ["serve_commit"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", name, "--seed", "42",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--tiny"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            tag = f"{name} --trace {trace}"
            before = len(problems)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: a correctness gate failed: "
                                f"{result['failed']} of {result['attempted']}")
            metrics = result["metrics"]
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} in {got['unit']}, "
                                    f"not {m['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{tag}: unexpected metrics {sorted(extra)}")
            wanted = (EXERCISED[name] if trace else
                      [m["name"] for m in spec["end_to_end"]])
            for m in wanted:
                if m in metrics and metrics[m]["value"] == 0:
                    problems.append(f"{tag}: {m} is 0")
            print(("ok  " if len(problems) == before else "FAIL") + f" {tag}",
                  flush=True)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
