#!/usr/bin/env python3
"""Compare two BENCH_<n>.json trajectory records and gate on regressions.

Diffs every benchmark key shared by the two records (per suite, per backend
series) as a real_time ratio new/old, prints an aligned table, and exits
non-zero if a *gated* benchmark regressed past the tolerance. Gated means the
name starts with one of the --gate prefixes (default: the replay-pipeline and
batch-verify series the ROADMAP's throughput story is judged on); everything
else is reported but never fails the run. Keys present on only one side are
listed as new/removed — trajectory records legitimately gain and lose
benchmarks as the suite grows, so that is informational, not an error.

Usage:
  scripts/bench_compare.py OLD.json NEW.json [--tolerance 0.15]
      [--gate BM_ReplayPipeline --gate BM_BatchVerify] [--out report.json]

Typical CI use — gate the committed trajectory (deterministic, runs anywhere):
  scripts/bench_compare.py BENCH_5.json BENCH_6.json --tolerance 0.15

--out writes a machine-readable JSON report (rows + verdict) for artifact
upload next to the human table on stdout.
"""

import argparse
import json
import sys

DEFAULT_GATES = [
    "BM_ReplayPipeline",
    "BM_BatchVerify",
    "BM_SimulatorEvents",
    "BM_CampaignSweep",
    "BM_CrossPacketVerify",
]


def flatten(record):
    """{(suite, series, bench-name): real_time_ns} for one BENCH_n.json."""
    out = {}
    for suite, payload in record.get("suites", {}).items():
        for series in ("scalar", "auto"):
            for name, row in payload.get(series, {}).items():
                rt = row.get("real_time_ns")
                if rt is not None:
                    out[(suite, series, name)] = float(rt)
    return out


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3f}us"
    return f"{ns:.1f}ns"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("old", help="baseline BENCH_<n>.json")
    ap.add_argument("new", help="candidate BENCH_<n+1>.json")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed slowdown on gated benchmarks (0.15 = +15%%)",
    )
    ap.add_argument(
        "--gate",
        action="append",
        default=None,
        metavar="PREFIX",
        help="benchmark-name prefix that fails the run on regression "
        "(repeatable; default: %s)" % ", ".join(DEFAULT_GATES),
    )
    ap.add_argument("--out", help="write a JSON report here (CI artifact)")
    args = ap.parse_args()
    gates = args.gate if args.gate else DEFAULT_GATES

    with open(args.old) as f:
        old_record = json.load(f)
    with open(args.new) as f:
        new_record = json.load(f)
    old = flatten(old_record)
    new = flatten(new_record)

    rows = []
    for key in sorted(set(old) | set(new)):
        suite, series, name = key
        gated = any(name.startswith(g) for g in gates)
        if key not in new:
            rows.append(
                {"suite": suite, "series": series, "name": name, "old_ns": old[key],
                 "new_ns": None, "ratio": None, "gated": gated, "status": "removed"}
            )
            continue
        if key not in old:
            rows.append(
                {"suite": suite, "series": series, "name": name, "old_ns": None,
                 "new_ns": new[key], "ratio": None, "gated": gated, "status": "new"}
            )
            continue
        ratio = new[key] / old[key] if old[key] else float("inf")
        if ratio > 1.0 + args.tolerance:
            status = "REGRESSED" if gated else "slower"
        elif ratio < 1.0 - args.tolerance:
            status = "faster"
        else:
            status = "ok"
        rows.append(
            {"suite": suite, "series": series, "name": name, "old_ns": old[key],
             "new_ns": new[key], "ratio": round(ratio, 4), "gated": gated,
             "status": status}
        )

    name_w = max([len(r["name"]) for r in rows] + [9])
    suite_w = max([len(r["suite"]) for r in rows] + [5])
    header = (
        f"{'suite':<{suite_w}}  {'ser':<6}  {'benchmark':<{name_w}}  "
        f"{'old':>10}  {'new':>10}  {'ratio':>7}  status"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        old_s = fmt_ns(r["old_ns"]) if r["old_ns"] is not None else "-"
        new_s = fmt_ns(r["new_ns"]) if r["new_ns"] is not None else "-"
        ratio_s = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
        mark = "*" if r["gated"] else " "
        print(
            f"{r['suite']:<{suite_w}}  {r['series']:<6}  {r['name']:<{name_w}}  "
            f"{old_s:>10}  {new_s:>10}  {ratio_s:>7}  {r['status']}{mark}"
        )
    print(f"\n* = gated prefix ({', '.join(gates)}), tolerance +{args.tolerance:.0%}")

    regressed = [r for r in rows if r["status"] == "REGRESSED"]

    # Serve-plane gate: a record carrying a "serve" section (BENCH_7+) must
    # show loadgen throughput at or above its recorded target fraction of the
    # in-process replay pipeline — the socket hop staying a thin shell is part
    # of the trajectory contract, not an optional extra.
    serve_vs = new_record.get("serve", {}).get("vs_replay_pipeline")
    serve_failed = bool(serve_vs) and not serve_vs.get("meets_target", False)
    if serve_vs:
        print(
            f"serve loadgen: {serve_vs['ratio']:.3f}x of "
            f"{serve_vs['benchmark']} (target {serve_vs['target']}x) -> "
            f"{'FAIL' if serve_failed else 'ok'}"
        )

    # Provenance-overhead gate: a record carrying a "provenance_overhead"
    # section (BENCH_9+) must hold always-on tracing at or under its recorded
    # on/off budget — observability that taxes the hot path more than ~2%
    # stops being always-on in practice.
    prov = new_record.get("provenance_overhead")
    prov_failed = bool(prov) and not prov.get("meets_target", False)
    if prov and "overhead" in prov:
        print(
            f"provenance overhead: {prov['overhead']:.4f}x of the untraced "
            f"replay (target <= {prov['target']}x) -> "
            f"{'FAIL' if prov_failed else 'ok'}"
        )
    elif prov:
        print("provenance overhead: section present but ratio missing -> FAIL")

    verdict = "fail" if (regressed or serve_failed or prov_failed) else "pass"
    if args.out:
        with open(args.out, "w") as f:
            json.dump(
                {"old": args.old, "new": args.new, "tolerance": args.tolerance,
                 "gates": gates, "serve": serve_vs,
                 "provenance_overhead": prov,
                 "verdict": verdict, "rows": rows},
                f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")

    if regressed:
        print(
            f"\nFAIL: {len(regressed)} gated benchmark(s) regressed past "
            f"+{args.tolerance:.0%}:",
            file=sys.stderr,
        )
        for r in regressed:
            print(
                f"  {r['suite']}/{r['series']}/{r['name']}: "
                f"{fmt_ns(r['old_ns'])} -> {fmt_ns(r['new_ns'])} "
                f"({r['ratio']:.3f}x)",
                file=sys.stderr,
            )
        raise SystemExit(1)
    if serve_failed:
        print(
            f"\nFAIL: serve loadgen at {serve_vs['ratio']:.3f}x of "
            f"{serve_vs['benchmark']} (target {serve_vs['target']}x)",
            file=sys.stderr,
        )
        raise SystemExit(1)
    if prov_failed:
        print(
            f"\nFAIL: provenance overhead at {prov.get('overhead', '?')}x of "
            f"the untraced replay (target <= {prov.get('target', '?')}x)",
            file=sys.stderr,
        )
        raise SystemExit(1)
    print(f"OK: no gated regression (compared {len(rows)} rows)")


if __name__ == "__main__":
    main()
