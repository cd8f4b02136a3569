#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON produced by `serve_sparse --trace`
(or any trace::write_chrome_file output).

Checks, in order:

  1. The file parses as JSON and has a non-empty `traceEvents` array of
     complete "X" (duration) events: name, cat, ts, dur, pid, tid.
  2. Per-op coverage: the "op" category (one span per plan op
     execution, emitted by trace::run_op_instrumented) contains at
     least --min-ops DISTINCT op names — a trace with fewer means the
     instrumentation fell off part of the plan.
  3. Executor coverage: at least one "queue" span (enqueue -> start
     wait) exists when --require-queue is set.
  4. Sanity: every event has dur >= 0 and ts >= 0.

Prints a category -> {span count, distinct names} summary so the CI log
shows what the trace actually captured.

Usage: validate_trace.py <trace.json> [--min-ops N] [--require-queue]
Exit 0 = valid, 1 = invalid (message says which check failed).
"""

import argparse
import collections
import json
import sys


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate a serve_sparse --trace Chrome trace JSON")
    parser.add_argument("trace", help="path to the trace JSON")
    parser.add_argument("--min-ops", type=int, default=1,
                        help="minimum DISTINCT op names required in the "
                             "'op' category (default 1)")
    parser.add_argument("--require-queue", action="store_true",
                        help="additionally require >= 1 'queue' "
                             "(enqueue->start wait) span")
    args = parser.parse_args(argv[1:])

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"FAIL: cannot load {args.trace} as JSON: {err}")
        return 1

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        print(f"FAIL: {args.trace} has no non-empty 'traceEvents' array")
        return 1

    by_cat = collections.defaultdict(collections.Counter)
    for i, ev in enumerate(events):
        for field in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            if field not in ev:
                print(f"FAIL: event #{i} missing field '{field}': {ev}")
                return 1
        if ev["ph"] != "X":
            print(f"FAIL: event #{i} has ph={ev['ph']!r}, expected complete "
                  f"'X' events only")
            return 1
        if ev["ts"] < 0 or ev["dur"] < 0:
            print(f"FAIL: event #{i} has negative ts/dur: {ev}")
            return 1
        by_cat[ev["cat"]][ev["name"]] += 1

    print(f"{args.trace}: {len(events)} events")
    for cat in sorted(by_cat):
        names = by_cat[cat]
        print(f"  cat '{cat}': {sum(names.values())} spans, "
              f"{len(names)} distinct names "
              f"({', '.join(sorted(names)[:8])}{', ...' if len(names) > 8 else ''})")

    op_names = by_cat.get("op", {})
    if len(op_names) < args.min_ops:
        print(f"FAIL: 'op' category has {len(op_names)} distinct op names, "
              f"need >= {args.min_ops} -- per-op instrumentation is not "
              f"covering the plan")
        return 1

    if args.require_queue and not by_cat.get("queue"):
        print("FAIL: no 'queue' spans -- executor queue-wait "
              "instrumentation missing from the trace")
        return 1

    print("trace validation passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
