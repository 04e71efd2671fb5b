#!/usr/bin/env python3
"""Year-replay smoke gate for CI.

Compares the YEAR_SMOKE replay entry of a freshly generated BENCH_core.json
against the committed baseline:

  * the metric-record digest must match bit-for-bit (the year-scale
    workload exercises deep diurnal queue swings the evaluation months
    don't, so a digest drift here can pass the monthly replays); and
  * the calibration-normalized wall-clock must not regress by more than
    --max-slowdown (default 1.2, i.e. a >20% slowdown fails).

micro_components times YEAR_SMOKE as the median of repeated runs, each
preceded by a fixed calibration loop that runs none of the simulator's code,
and records the median of the per-run seconds / calibration ratios as
"normalized". Comparing that ratio instead of raw seconds lets a baseline
recorded on one host gate a run on another; the "host" fingerprints of both
files are printed beside the verdict.

Usage: check_year_smoke.py CURRENT.json BASELINE.json [--max-slowdown=X]
"""

import json
import sys

ENTRY = "YEAR_SMOKE"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    for replay in doc.get("replays", []):
        if replay.get("name") == ENTRY:
            return doc.get("host", "unknown host"), replay
    raise SystemExit(f"{path}: no {ENTRY} replay entry")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    max_slowdown = 1.2
    for a in argv[1:]:
        if a.startswith("--max-slowdown="):
            max_slowdown = float(a.split("=", 1)[1])
    if len(args) != 2:
        raise SystemExit(__doc__)
    current_path, baseline_path = args
    current_host, current = load(current_path)
    baseline_host, baseline = load(baseline_path)

    failures = []
    digest_ok = current.get("digest") == baseline.get("digest")
    if not digest_ok:
        failures.append(
            f"digest changed: {baseline.get('digest')} -> "
            f"{current.get('digest')} (schedule results differ)"
        )
    for path, entry in ((current_path, current), (baseline_path, baseline)):
        if float(entry.get("normalized", 0.0)) <= 0:
            failures.append(
                f"{path}: {ENTRY} has no calibration-normalized timing "
                "(regenerate it with bench/micro_components --core-json)"
            )
    base_n = float(baseline.get("normalized", 0.0))
    cur_n = float(current.get("normalized", 0.0))
    if base_n > 0 and cur_n > base_n * max_slowdown:
        failures.append(
            f"wall-clock regression: normalized {base_n:.3f} -> {cur_n:.3f} "
            f"(>{(max_slowdown - 1) * 100:.0f}% slower)"
        )

    status = "FAIL" if failures else "ok"
    print(
        f"{ENTRY}: jobs={current.get('jobs')} "
        f"normalized={cur_n:.3f} (baseline {base_n:.3f}) "
        f"median={float(current.get('seconds', 0.0)):.4f}s "
        f"over {current.get('reps')} runs "
        f"(baseline {float(baseline.get('seconds', 0.0)):.4f}s) "
        f"digest={'identical' if digest_ok else 'CHANGED'} {status}"
    )
    print(f"  current host:  {current_host}")
    print(f"  baseline host: {baseline_host}")
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
