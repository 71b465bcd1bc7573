#!/usr/bin/env python3
"""Validate a JSON metrics export (`pnm ... --metrics-out FILE
--metrics-format json`) against a golden key set.

Metric *values* are timing-dependent, so CI pins only the shape: the file
must be valid JSON and its sorted top-level key set must equal the golden
list (one key per line, # comments allowed). Exit 0 on match, 1 with a diff
otherwise.

Each ingest shard exports its own `ingest_queue_depth_shard<i>` gauge. With
`--shards N` the golden's per-shard keys are replaced by exactly those of
shards 0..N-1, so one golden pins the key set of any shard count.
"""
import argparse
import json
import re
import sys

SHARD_KEY = re.compile(r"ingest_queue_depth_shard\d+")


def main(metrics_path, golden_path, shards=None):
    with open(metrics_path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            print(f"{metrics_path}: invalid JSON: {e}", file=sys.stderr)
            return 1
    if not isinstance(data, dict):
        print(f"{metrics_path}: top level is not an object", file=sys.stderr)
        return 1

    with open(golden_path, encoding="utf-8") as f:
        want = sorted(
            line.strip()
            for line in f
            if line.strip() and not line.lstrip().startswith("#")
        )
    if shards is not None:
        want = sorted(
            [k for k in want if not SHARD_KEY.fullmatch(k)]
            + [f"ingest_queue_depth_shard{i}" for i in range(shards)]
        )
    got = sorted(data.keys())

    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        for k in missing:
            print(f"missing metric key: {k}", file=sys.stderr)
        for k in extra:
            print(f"unexpected metric key: {k}", file=sys.stderr)
        print(
            f"{metrics_path}: key set differs from {golden_path} "
            f"({len(missing)} missing, {len(extra)} unexpected)",
            file=sys.stderr,
        )
        return 1

    print(f"{metrics_path}: OK ({len(got)} metric keys match {golden_path})")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("metrics", metavar="METRICS.json")
    parser.add_argument("golden", metavar="GOLDEN.keys")
    parser.add_argument("--shards", type=int, metavar="N",
                        help="ingest shards of the export (expects shard keys 0..N-1)")
    args = parser.parse_args()
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be at least 1")
    sys.exit(main(args.metrics, args.golden, args.shards))
