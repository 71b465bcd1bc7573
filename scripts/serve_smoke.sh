#!/usr/bin/env bash
# End-to-end smoke of the `pnm serve` daemon against the checked-in corpus:
#
#   1. start the daemon on the corpus campaign (ephemeral ports, port file);
#   2. replay three corpus traces over three concurrent loadgen connections
#      and require every per-stream digest receipt to equal the committed
#      `pnm replay` golden for that trace — the serve determinism contract;
#      then stream two damaged copies (a flipped record byte, a cut mid-frame)
#      and require each receipt to equal `pnm replay` of the damaged file;
#   3. scrape /metrics through scripts/check_prom.py (exposition lint) and
#      check the serve-plane series are present, then scrape /spans and
#      require valid Chrome trace-event JSON with verify-path spans (the
#      daemon runs with --span-trace so collection is live);
#   4. POST /rekey to epoch 1, then stream one more session and require the sink
#      to acknowledge every record under the new keys (zero drops);
#   5. require GET /drain to be refused (405), POST /drain and require the final report to account for every record of
#      every session, then require the daemon process to exit 0;
#   6. flight-recorder drill on a second daemon: kill -9 a loadgen client
#      mid-stream, require the digest-mismatch anomaly counter to fire and
#      the anomaly-triggered `.pnmflight` dump to validate through
#      scripts/check_flight.py — including sampled provenance events from
#      the very session that was aborted — and fetch the same dump over the
#      admin plane with `pnm flight-dump`.
#
# CI runs this under ASan+UBSan so a leak, race window, or UB in the socket
# and session paths aborts the job rather than hiding behind a lucky run.
#
# Usage: scripts/serve_smoke.sh [path-to-pnm-binary]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
pnm_bin="${1:-$repo_root/build/tools/pnm}"
corpus_dir="$repo_root/tests/corpus"
traces=(mark-removal mark-insertion no-mark)

if [[ ! -x "$pnm_bin" ]]; then
  echo "error: pnm binary not found at $pnm_bin (build first, or pass a path)" >&2
  exit 1
fi

workdir="$(mktemp -d /tmp/pnm_serve_smoke.XXXXXX)"
daemon_pid=""
daemon2_pid=""
victim_pid=""
cleanup() {
  for pid in "$victim_pid" "$daemon_pid" "$daemon2_pid"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

trace_paths=""
for t in "${traces[@]}"; do
  trace_paths="${trace_paths:+$trace_paths,}$corpus_dir/$t.pnmtrace"
done

# --- 1. daemon up -----------------------------------------------------------
"$pnm_bin" serve --campaign "$corpus_dir/${traces[0]}.pnmtrace" \
  --shards 2 --port-file "$workdir/ports.txt" \
  --span-trace "$workdir/spans.json" \
  > "$workdir/serve.log" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 100); do
  [[ -s "$workdir/ports.txt" ]] && break
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "error: daemon died during startup:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
tcp_port="$(sed -n 's/^tcp=//p' "$workdir/ports.txt")"
admin_port="$(sed -n 's/^admin=//p' "$workdir/ports.txt")"
if [[ -z "$tcp_port" || -z "$admin_port" ]]; then
  echo "error: daemon never wrote its port file" >&2
  exit 1
fi
echo "daemon up: sessions on :$tcp_port, admin on :$admin_port"

# admin PATH [curl args...]; /rekey and /drain take -X POST.
admin() { curl -fsS --max-time 30 "${@:2}" "http://127.0.0.1:$admin_port$1"; }

[[ "$(admin /healthz)" == "ok" ]] || { echo "error: /healthz not ok" >&2; exit 1; }

# --- 2. concurrent sessions, digest-vs-golden -------------------------------
"$pnm_bin" loadgen --port "$tcp_port" --traces "$trace_paths" \
  --connections 3 --repeat 2 --json "$workdir/loadgen1.json" \
  | tee "$workdir/loadgen1.out"

for t in "${traces[@]}"; do
  golden="$(cat "$corpus_dir/$t.digest")"
  got=$(grep -c "^stream digest: $corpus_dir/$t.pnmtrace $golden\$" \
        "$workdir/loadgen1.out" || true)
  if [[ "$got" -ne 2 ]]; then
    echo "error: expected 2 sessions of $t to report golden digest $golden," >&2
    echo "       found $got (loadgen output above)" >&2
    exit 1
  fi
  echo "digest ok (x2 concurrent sessions): $t"
done

# --- 2b. damaged traces: one framer behind sockets and files ----------------
# Two damaged copies of the campaign trace: one byte flipped inside a record
# payload (that frame fails its CRC and is skipped) and one cut in the middle
# of a record frame (the whole frames before the cut are streamed). Each
# session's Digest receipt must equal what `pnm replay` prints for the same
# damaged file.
python3 - "$corpus_dir/${traces[0]}.pnmtrace" "$workdir" <<'EOF'
import struct, sys
data = open(sys.argv[1], "rb").read()
frames, pos = [], 8  # magic + u16 version
while pos + 4 <= len(data):
    (length,) = struct.unpack_from("<I", data, pos)
    frames.append((pos, length))
    pos += 4 + length + 4
records = frames[1:]  # frame 0 is the header
start, length = records[len(records) // 3]
flipped = bytearray(data)
flipped[start + 4 + length // 2] ^= 0xFF
open(sys.argv[2] + "/flipped.pnmtrace", "wb").write(flipped)
start, length = records[2 * len(records) // 3]
open(sys.argv[2] + "/cut.pnmtrace", "wb").write(data[:start + 4 + length // 2])
EOF
"$pnm_bin" loadgen --port "$tcp_port" \
  --traces "$workdir/flipped.pnmtrace,$workdir/cut.pnmtrace" \
  --connections 2 --json "$workdir/loadgen3.json" | tee "$workdir/loadgen3.out"
for d in flipped cut; do
  want="$("$pnm_bin" replay --in "$workdir/$d.pnmtrace" | sed -n 's/^verdict digest: //p')"
  got="$(sed -n "s|^stream digest: $workdir/$d.pnmtrace ||p" "$workdir/loadgen3.out")"
  if [[ -z "$want" || "$got" != "$want" ]]; then
    echo "error: $d trace: session digest '$got' != replay digest '$want'" >&2
    exit 1
  fi
  echo "damaged-trace digest ok: $d ($got)"
done

# --- 3. /metrics through the exposition linter ------------------------------
admin /metrics > "$workdir/metrics.prom"
python3 "$repo_root/scripts/check_prom.py" "$workdir/metrics.prom"
for series in pnm_serve_sessions_total pnm_serve_records_total \
              pnm_ingest_records_total pnm_packets_verified_total \
              pnm_serve_key_epoch; do
  grep -q "^$series" "$workdir/metrics.prom" \
    || { echo "error: /metrics missing $series" >&2; exit 1; }
done
echo "metrics scrape ok ($(wc -l < "$workdir/metrics.prom") lines)"

# --- 3b. /spans: span ring + provenance rings as one Chrome trace ------------
admin /spans > "$workdir/spans_live.json"
python3 - "$workdir/spans_live.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "span ring empty despite --span-trace + ingest traffic"
spans = [e for e in events if e["ph"] == "X"]
prov = [e for e in events if e["ph"] == "i"]
assert len(spans) + len(prov) == len(events), "unexpected event phase"
names = {e["name"] for e in spans}
assert "verify_batch" in names, f"no verify-path spans in {sorted(names)}"
for e in spans:
    assert e["dur"] >= 0, e
# Default 1-in-64 sampling over 720 records: provenance instants must be
# interleaved in the same stream (the unified export).
assert prov, "no provenance instants in the merged /spans stream"
for e in prov:
    assert e["name"].startswith("prov:") and e["cat"] == "provenance", e
    assert len(e["args"]["trace_id"]) == 16, e
print(f"/spans ok: {len(spans)} spans over {len(names)} scopes "
      f"+ {len(prov)} provenance instants")
EOF

# --- 4. live rekey, then a full session under the new epoch -----------------
rekey_json="$(admin /rekey -X POST)"
[[ "$rekey_json" == '{"epoch":1}' ]] \
  || { echo "error: /rekey returned $rekey_json" >&2; exit 1; }

"$pnm_bin" loadgen --port "$tcp_port" \
  --traces "$corpus_dir/${traces[0]}.pnmtrace" \
  --json "$workdir/loadgen2.json" > "$workdir/loadgen2.out"
python3 - "$workdir/loadgen1.json" "$workdir/loadgen2.json" <<'EOF'
import json, sys
lg1 = json.load(open(sys.argv[1]))
lg2 = json.load(open(sys.argv[2]))
assert lg1["ok"] and lg2["ok"], (lg1.get("error"), lg2.get("error"))
# 6 pre-rekey sessions over 3 traces -> per-session record count is uniform
# per trace; the post-rekey session must ack the same count for trace[0] as
# each pre-rekey session did on average per session pair.
per_session = lg1["records"] // lg1["sessions"]
assert lg2["sessions"] == 1
assert lg2["records"] > 0
print(f"post-rekey session acknowledged {lg2['records']} records "
      f"(pre-rekey average {per_session}/session): zero drops")
EOF

# --- 5. drain and account for everything ------------------------------------
get_drain="$(curl -sS --max-time 30 -o /dev/null -w '%{http_code}' \
  "http://127.0.0.1:$admin_port/drain")"
[[ "$get_drain" == "405" ]] \
  || { echo "error: GET /drain answered $get_drain, want 405" >&2; exit 1; }
[[ "$(admin /healthz)" == "ok" ]] \
  || { echo "error: daemon unhealthy after GET /drain" >&2; exit 1; }
drain_json="$(admin /drain -X POST)"
echo "drain: $drain_json"
python3 - "$workdir/loadgen1.json" "$workdir/loadgen2.json" "$workdir/loadgen3.json" <<EOF
import json, sys
lg1, lg2, lg3 = (json.load(open(path)) for path in sys.argv[1:4])
drain = json.loads('$drain_json')
expect = lg1["records"] + lg2["records"] + lg3["records"]
assert drain["records"] == expect, (drain, expect)
assert drain["sessions"] == lg1["sessions"] + lg2["sessions"] + lg3["sessions"], drain
assert drain["key_epoch"] == 1, drain
assert len(drain["digest"]) == 64, drain
print(f"drain accounted for {drain['records']} records over "
      f"{drain['sessions']} sessions at epoch {drain['key_epoch']}")
EOF

wait "$daemon_pid"
daemon_pid=""
echo "daemon exited cleanly"

# --- 6. flight-recorder drill: abort a client mid-stream --------------------
# A fresh daemon with a dense provenance sample rate (so the aborted stream
# is guaranteed to have sampled deliver events in the rings), an armed
# anomaly watchdog and a flight-dump path. The victim loadgen paces one
# frame per 2ms, stretching its stream to ~seconds, so kill -9 always lands
# mid-stream.
flight_file="$workdir/anomaly.pnmflight"
"$pnm_bin" serve --campaign "$corpus_dir/${traces[0]}.pnmtrace" \
  --shards 2 --port-file "$workdir/ports2.txt" \
  --flight-dump "$flight_file" --watchdog-ms 50 --provenance-rate 2 \
  > "$workdir/serve2.log" 2>&1 &
daemon2_pid=$!

for _ in $(seq 1 100); do
  [[ -s "$workdir/ports2.txt" ]] && break
  if ! kill -0 "$daemon2_pid" 2>/dev/null; then
    echo "error: flight-drill daemon died during startup:" >&2
    cat "$workdir/serve2.log" >&2
    exit 1
  fi
  sleep 0.1
done
tcp2_port="$(sed -n 's/^tcp=//p' "$workdir/ports2.txt")"
admin2_port="$(sed -n 's/^admin=//p' "$workdir/ports2.txt")"
admin2() { curl -fsS --max-time 30 "${@:2}" "http://127.0.0.1:$admin2_port$1"; }
echo "flight-drill daemon up: sessions on :$tcp2_port, admin on :$admin2_port"

"$pnm_bin" loadgen --port "$tcp2_port" \
  --traces "$corpus_dir/${traces[0]}.pnmtrace" --repeat 20 --pace-us 2000 \
  > "$workdir/victim.out" 2>&1 &
victim_pid=$!

# Wait until the victim's stream has a good handful of records on the wire
# (at rate 1-in-2 that guarantees sampled deliver events from this session),
# then cut it down.
for _ in $(seq 1 200); do
  records="$(admin2 /metrics | sed -n 's/^pnm_serve_records_total //p')"
  [[ -n "$records" && "${records%%.*}" -ge 10 ]] && break
  if ! kill -0 "$victim_pid" 2>/dev/null; then
    echo "error: victim loadgen finished before it could be aborted" >&2
    exit 1
  fi
  sleep 0.05
done
kill -9 "$victim_pid" 2>/dev/null
wait "$victim_pid" 2>/dev/null || true
victim_pid=""
echo "victim loadgen killed mid-stream after $records record(s)"

# The session thread notices the dead socket and notes a digest-mismatch
# anomaly (stream ended, no digest receipt); poll the per-kind counter.
mismatches=0
for _ in $(seq 1 200); do
  mismatches="$(admin2 /metrics \
    | sed -n 's/^pnm_obs_anomaly_digest_mismatch_total //p')"
  [[ -n "$mismatches" && "${mismatches%%.*}" -ge 1 ]] && break
  sleep 0.05
done
if [[ -z "$mismatches" || "${mismatches%%.*}" -lt 1 ]]; then
  echo "error: digest-mismatch anomaly never fired after the abort" >&2
  admin2 /metrics | grep '^pnm_obs_anomaly' >&2 || true
  exit 1
fi
echo "anomaly counter fired: pnm_obs_anomaly_digest_mismatch_total=$mismatches"

# The anomaly wrote the flight file on its own; it must carry the anomaly
# note AND sampled provenance from the aborted session.
[[ -s "$flight_file" ]] \
  || { echo "error: anomaly did not write $flight_file" >&2; exit 1; }
python3 "$repo_root/scripts/check_flight.py" "$flight_file" \
  --require-anomaly digest_mismatch --require-provenance --session-events

# Same dump over the admin plane, via the CLI.
"$pnm_bin" flight-dump --admin-port "$admin2_port" \
  --out "$workdir/ondemand.pnmflight"
python3 "$repo_root/scripts/check_flight.py" "$workdir/ondemand.pnmflight" \
  --require-anomaly digest_mismatch --require-provenance --session-events
echo "flight dumps validated (anomaly-triggered + pnm flight-dump)"

drain2_json="$(admin2 /drain -X POST)"
echo "flight-drill drain: $drain2_json"
wait "$daemon2_pid"
daemon2_pid=""
echo "flight-drill daemon exited cleanly"
echo "serve smoke OK"
