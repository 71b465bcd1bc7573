#!/usr/bin/env python3
"""Check a Chrome trace-event export (`pnm ... --span-trace FILE`, or the
daemon's GET /spans): spans ("X", dur >= 0) including `verify_batch`, and
provenance instants ("i") named `prov:*` in category `provenance` with a
16-character `trace_id`, merged into one stream. Exit 0 when clean, 1 with
the first failed check otherwise.
"""
import json
import sys


def check(path):
    events = json.load(open(path, encoding="utf-8"))["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    prov = [e for e in events if e["ph"] == "i"]
    names = {e["name"] for e in spans}
    assert events, "no events"
    assert len(spans) + len(prov) == len(events), "an event is neither X nor i"
    assert all(e["dur"] >= 0 for e in spans), "negative span duration"
    assert "verify_batch" in names, f"no verify_batch span among {sorted(names)}"
    assert prov, "no provenance instants in the stream"
    for e in prov:
        assert e["name"].startswith("prov:") and e["cat"] == "provenance", e
        assert len(e["args"]["trace_id"]) == 16, e
    return f"{len(spans)} spans over {len(names)} scopes, {len(prov)} provenance instants"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} SPANS.json")
    try:
        print(f"{sys.argv[1]}: OK ({check(sys.argv[1])})")
    except (AssertionError, KeyError, TypeError, ValueError, OSError) as e:
        sys.exit(f"{sys.argv[1]}: {type(e).__name__}: {e}")
