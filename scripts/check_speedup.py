#!/usr/bin/env python3
"""CI speedup gate: assert json_a's timing is >= min_ratio x json_b's.

Usage:
    check_speedup.py JSON_A[,JSON_A...] JSON_B[,JSON_B...] KEY MIN_RATIO LABEL
                     [--key-b KEY_B]

JSON_A holds the slow/baseline timing, JSON_B the fast/optimized one; the
gate passes when value_a / value_b >= MIN_RATIO. KEY selects the value:

  * bench-harness JSON (bench/BenchCommon.h writeBenchJson): KEY is a
    top-level numeric field such as "profile_ms", "serve_ms", "total_ms";
  * google-benchmark JSON: KEY is a benchmark name in the "benchmarks"
    list (e.g. "BM_ForestFitClassA/1", or an aggregate such as
    "BM_TreeFit/1_median" from --benchmark_repetitions) and the value is
    its "real_time". An entry that reports an error (error_occurred) fails
    the gate instead of being read as a timing.

--key-b reads a different key from JSON_B (defaults to KEY); pass the
same file twice with --key-b to compare two entries of one
google-benchmark report.

JSON_A and JSON_B may each be a comma-separated list of the same length:
pair i is (JSON_A[i], JSON_B[i]), and the gate compares the median of the
per-pair ratios with MIN_RATIO. On a host whose speed swings with load,
pairs of runs taken back to back (in alternating order) see the same
phase on both sides, so their ratios are steadier than one ratio of two
single runs.

--tolerance-json PREFIX additionally gates *accuracy* in the same call:
every top-level numeric field of both JSONs whose name starts with PREFIX
(e.g. the serving bench's "app_energy_j_*" attribution table) must agree
within --rel-tol relative error, measured as |b - a| / max(|a|, floor)
with floor = 1e-9 x the largest |a| so near-zero entries cannot blow the
ratio up — the same definition ml::maxRelativeError uses. The gate fails
if the two files expose different PREFIX key sets or none at all (a
missing table must not pass vacuously).

On failure prints a GitHub Actions ::error:: annotation and exits 1.
"""

import argparse
import json
import statistics
import sys


def load_value(path, key):
    with open(path) as f:
        doc = json.load(f)
    if key in doc:
        return float(doc[key])
    for bench in doc.get("benchmarks", []):
        if bench.get("name") == key:
            if bench.get("error_occurred"):
                raise SystemExit(f"::error::{path}: benchmark {key!r} "
                                 f"reported an error: "
                                 f"{bench.get('error_message', '')}")
            return float(bench["real_time"])
    raise SystemExit(f"::error::{path}: no top-level field or benchmark "
                     f"named {key!r}")


def numeric_fields(path, prefix):
    with open(path) as f:
        doc = json.load(f)
    return {k: float(v) for k, v in doc.items()
            if k.startswith(prefix)
            and isinstance(v, (int, float)) and not isinstance(v, bool)}


def check_tolerance(json_a, json_b, prefix, rel_tol, label):
    """Returns 0 if every PREFIX field agrees within rel_tol, else 1."""
    fields_a = numeric_fields(json_a, prefix)
    fields_b = numeric_fields(json_b, prefix)
    if not fields_a:
        print(f"::error::{label}: {json_a} has no numeric fields matching "
              f"{prefix!r}; the tolerance gate would pass vacuously")
        return 1
    if set(fields_a) != set(fields_b):
        diff = sorted(set(fields_a) ^ set(fields_b))
        print(f"::error::{label}: {prefix!r} key sets differ between "
              f"{json_a} and {json_b}: {', '.join(diff)}")
        return 1
    floor = 1e-9 * max(abs(v) for v in fields_a.values())
    worst_key, worst_err = None, -1.0
    for key in sorted(fields_a):
        denom = max(abs(fields_a[key]), floor)
        err = abs(fields_b[key] - fields_a[key]) / denom if denom > 0 else 0.0
        if err > worst_err:
            worst_key, worst_err = key, err
    print(f"{label}: {len(fields_a)} {prefix!r} fields, worst relative "
          f"error {worst_err:.3e} at {worst_key} "
          f"(required <= {rel_tol:.3e})")
    if worst_err > rel_tol:
        print(f"::error::{label}: {worst_key} differs by {worst_err:.3e} "
              f"relative ({fields_a[worst_key]} vs {fields_b[worst_key]}), "
              f"tolerance {rel_tol:.3e}")
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("json_a", help="baseline (slow) timing JSON, or a "
                        "comma-separated list of them")
    parser.add_argument("json_b", help="optimized (fast) timing JSON, or a "
                        "comma-separated list as long as JSON_A's")
    parser.add_argument("key", help="timing field or benchmark name")
    parser.add_argument("min_ratio", type=float,
                        help="required value_a / value_b ratio")
    parser.add_argument("label", help="human-readable gate name for logs")
    parser.add_argument("--key-b", default=None,
                        help="key to read from JSON_B (default: KEY)")
    parser.add_argument("--tolerance-json", metavar="PREFIX", default=None,
                        help="also require every top-level numeric field "
                             "starting with PREFIX to agree between the two "
                             "JSONs within --rel-tol relative error")
    parser.add_argument("--rel-tol", type=float, default=1e-4,
                        help="relative-error bound for --tolerance-json "
                             "(default: 1e-4, ml/QuantizedModel's "
                             "documented bound)")
    args = parser.parse_args()

    key_b = args.key_b if args.key_b is not None else args.key
    files_a, files_b = args.json_a.split(","), args.json_b.split(",")
    if len(files_a) != len(files_b):
        raise SystemExit(f"::error::{args.label}: JSON_A lists "
                         f"{len(files_a)} files, JSON_B {len(files_b)}")
    pairs = list(zip(files_a, files_b))
    ratios = []
    for json_a, json_b in pairs:
        value_a = load_value(json_a, args.key)
        value_b = load_value(json_b, key_b)
        if value_b <= 0:
            raise SystemExit(f"::error::{args.label}: non-positive optimized "
                             f"timing {value_b} in {json_b}")
        ratios.append(value_a / value_b)
    ratio = statistics.median(ratios)
    if len(pairs) == 1:
        print(f"{args.label}: baseline={value_a:.1f} optimized={value_b:.1f} "
              f"ratio={ratio:.2f}x (required >= {args.min_ratio:.2f}x)")
    else:
        print(f"{args.label}: {len(pairs)} pairs, ratios "
              f"{', '.join(f'{r:.2f}' for r in ratios)}, "
              f"median={ratio:.2f}x (required >= {args.min_ratio:.2f}x)")
    status = 0
    if ratio < args.min_ratio:
        print(f"::error::{args.label}: expected >= {args.min_ratio:.2f}x "
              f"speedup, got {ratio:.2f}x")
        status = 1
    if args.tolerance_json is not None:
        for json_a, json_b in pairs:
            status |= check_tolerance(json_a, json_b, args.tolerance_json,
                                      args.rel_tol, args.label)
    return status


if __name__ == "__main__":
    sys.exit(main())
