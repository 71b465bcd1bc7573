#!/usr/bin/env bash
# Regenerate the checked-in trace corpus (tests/corpus/): one recorded
# campaign per attack kind plus the clean source-only run, with a golden
# verdict digest next to each trace. Deterministic: fixed seeds, fixed
# topology, and the verdict digest excludes wall-clock fields, so the same
# tool version always reproduces byte-identical .digest files.
#
# Usage: scripts/gen_corpus.sh [path-to-pnm-binary]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
pnm_bin="${1:-$repo_root/build/tools/pnm}"
corpus_dir="$repo_root/tests/corpus"

if [[ ! -x "$pnm_bin" ]]; then
  echo "error: pnm binary not found at $pnm_bin (build first, or pass a path)" >&2
  exit 1
fi

mkdir -p "$corpus_dir"

packets=120
seed=42

# record <name> <attack> <forwarders>: capture one campaign and its golden.
record() {
  local name="$1" attack="$2" forwarders="$3"
  local trace="$corpus_dir/$name.pnmtrace"
  echo "recording $name -> $trace"
  "$pnm_bin" record --out "$trace" --attack "$attack" \
    --forwarders "$forwarders" --packets "$packets" --seed "$seed" >/dev/null
  local digest
  digest="$("$pnm_bin" replay --in "$trace" | sed -n 's/^verdict digest: //p')"
  if [[ -z "$digest" ]]; then
    echo "error: replay of $trace produced no digest" >&2
    exit 1
  fi
  echo "$digest" > "$corpus_dir/$name.digest"
}

attacks=(
  source-only
  no-mark
  mark-insertion
  mark-removal
  removal-blind
  mark-reorder
  mark-altering
  selective-drop
  drop-any-marked
  identity-swap
)

for attack in "${attacks[@]}"; do
  record "$attack" "$attack" 8
done

# Wide field: 150 forwarders span several exhaustive-verify sweep chunks, so
# replay exercises the early exit past the first chunk; the mark-altering
# mole's broken marks force some packets through the full sweep.
record wide-mark-altering mark-altering 150

echo "corpus written to $corpus_dir"
