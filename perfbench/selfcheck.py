#!/usr/bin/env python3
"""Self-check for the repository benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root. For every workload in BENCHMARK.json, and
for qn2-shipping, it makes short runs (--seconds 1) and checks that

- each run prints a well-formed result whose metric names and units are
  exactly those BENCHMARK.json declares, with correct=true and
  success_rate 1.0;
- two runs at one seed give bit-identical exact counts: wire bytes,
  transfers, peak heap, retained nodes, and the codec, call and batch
  counts;
- a different seed changes the query stream.

Exits non-zero on the first failure.
"""

import json
import re
import subprocess
import sys

SEED, OTHER_SEED = 1, 2

# counts that must repeat exactly at one seed, by the --trace mode that
# reports them
EXACT = {
    0: ["wire_bytes_per_query", "transfers_per_query", "peak_heap_mb",
        "success_rate"],
    1: ["xml.retained_nodes_per_query", "xrpc.calls_per_query",
        "xrpc.batch_envelopes_per_query", "effects.overlapped_per_query",
        "xrpc.codec_compiled_per_query", "xrpc.codec_decodes_per_query",
        "xrpc.codec_event_shreds_per_query", "xrpc.codec_bailout_ratio",
        "projection.wire_to_doc_ratio", "gc.minor_mwords_per_query",
        "gc.major_collections_per_query", "query.text_repeat_share"],
}


def fail(msg):
    print("selfcheck: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def run(spec, workload, seed, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace}: exit "
             f"{out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} seed {seed} trace {trace}: incorrect\n{out.stderr}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail(f"{workload} trace {trace}: metrics {got} != declared {want}")
    stream = re.search(r"stream=([0-9a-f]+)", out.stderr)
    if not stream:
        fail(f"{workload}: no stream digest on stderr")
    return result["metrics"], stream.group(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    # qn2-shipping is not in BENCHMARK.json (see NOTES.md) but is checked
    names = [w["name"] for w in spec["workloads"]] + ["qn2-shipping"]
    for w in names:
        streams = set()
        for trace in (0, 1):
            a, sa = run(spec, w, SEED, trace)
            b, sb = run(spec, w, SEED, trace)
            streams.add(sa)
            if sa != sb:
                fail(f"{w}: one seed gave two streams")
            for k in EXACT[trace]:
                if a[k]["value"] != b[k]["value"]:
                    fail(f"{w}: {k} differs at one seed: "
                         f"{a[k]['value']!r} vs {b[k]['value']!r}")
            if trace == 0 and a["success_rate"]["value"] != 1:
                fail(f"{w}: success_rate {a['success_rate']['value']}")
        _, other = run(spec, w, OTHER_SEED, 0)
        if other in streams:
            fail(f"{w}: seeds {SEED} and {OTHER_SEED} gave the same stream")
        print(f"selfcheck: {w} ok", file=sys.stderr)
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
