#!/usr/bin/env python3
"""The count gate: perfbench's exact counts against a committed golden.

Runs each benchmark workload once, traced, at one seed and the smallest
amount of work:

    bash perfbench/run.sh --workload W --seed 1 --seconds 1 --trace 1

and compares the fields below with .github/perfbench-counts.json. For a
seed these are counts of work done (rows, simulator steps, leaps, model
events, store operations), not timings, so they repeat exactly and noise
cannot turn the gate red; any difference comes from the code. A change
that moves a count rewrites the golden in the same diff:

    python3 .github/perfbench-counts.py            # check (CI)
    python3 .github/perfbench-counts.py --update   # rewrite the golden

Run it from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perfbench-counts.json")
WORKLOADS = ["paper-sweep", "mix-aperiodic", "store-warm", "serve-mixed"]
# Fields of the result line (the last line of standard output).
RESULT_FIELDS = ["correct", "attempted", "failed"]
# Fields of the result line's metrics.
METRICS = [
    "sim.steps",
    "sim.periods_leapt",
    "sim.model.l2_accesses",
    "sim.model.bus_grants",
    "sim.model.mem_txns",
    "store.gets",
    "store.puts",
    "serve.simulated_jobs",
]
# Counts that depend on scheduling rather than on the code: how many of
# serve-mixed's concurrent warm resubmissions a queued run absorbs moves
# its store reads by a few hundred from run to run.
UNSTABLE = {("serve-mixed", "store.gets")}


def counts(workload):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    details, result = (json.loads(line) for line in out.splitlines()[-2:])
    got = {"rows_sha256": details["rows_sha256"]}
    for f in RESULT_FIELDS:
        got[f] = result[f]
    for m in METRICS:
        if (workload, m) not in UNSTABLE:
            v = result["metrics"][m]["value"]
            got[m] = int(v) if v == int(v) else v
    return got


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true", help="rewrite the golden from this run")
    args = ap.parse_args()
    if args.update:
        golden = {w: counts(w) for w in WORKLOADS}
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
        return
    with open(GOLDEN) as f:
        golden = json.load(f)
    bad = 0
    for w in WORKLOADS:
        want, got = golden.get(w, {}), counts(w)
        diffs = [(k, want.get(k), got.get(k)) for k in sorted(set(want) | set(got))
                 if want.get(k) != got.get(k)]
        for k, a, b in diffs:
            print(f"{w}: {k}: golden {a}, got {b}")
        print(f"{w}: {'FAIL' if diffs else 'ok'} ({len(got)} fields)")
        bad += len(diffs)
    if bad:
        print(f"{bad} count(s) differ from {os.path.relpath(GOLDEN)}; "
              "a change that moves them reruns with --update and says why", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
