#!/bin/sh
# Smoke tests over the real ftpcensus and honeypotd binaries.
#
# 1. Observability: run a small census with live progress enabled and a
#    metrics snapshot, then verify the snapshot parses and carries the
#    counters and latency histograms every stage is supposed to populate,
#    and no enumerator retries: the default world is benign, and its
#    eof/protocol failures are non-FTP responders answering for the host.
#    Then the same for a 2-shard census through the identification funnel
#    over a (still benign) world with services on port 21. Then the §VIII
#    honeypot study at its default shape (the paper's 8 honeypots and 457
#    attackers, one visit per bot-target pair): its snapshot must count every bot and
#    every one of the 457 x 8 sessions.
# 2. Streaming notices across kill/resume: run a 2-shard census with
#    -notify uninterrupted, then cut the same census mid-scan with
#    -timeout (rate-limited so the deadline lands inside discovery) and
#    resume it from its checkpoint. The resumed notices and ledger must
#    match the uninterrupted run's byte for byte — the ledger after
#    sorting (shards finish hosts in scheduling order) and after dropping
#    the wall-clock fields (scanned_at, and the mtimes some servers stamp
#    with the current time).
set -eu

cd "$(dirname "$0")/.."

work="$(mktemp -d /tmp/ftpcensus-smoke.XXXXXX)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/ftpcensus" ./cmd/ftpcensus
go build -o "$work/honeypotd" ./cmd/honeypotd
census="$work/ftpcensus"

"$census" -scale 65536 -progress 1s -metrics-out "$work/metrics.json" -quiet
go run ./scripts/checkmetrics "$work/metrics.json"
"$census" -scale 65536 -service-mix default -identify -identify-wait 500ms -shards 2 \
	-metrics-out "$work/funnel-metrics.json" -quiet
go run ./scripts/checkmetrics "$work/funnel-metrics.json"
"$work/honeypotd" -seed 2015 -metrics-out "$work/honeypot-metrics.json" >/dev/null
for want in '"attacker.bots": 457,' '"attacker.sessions": 3656,'; do
	if ! grep -qF "$want" "$work/honeypot-metrics.json"; then
		echo "smoke: honeypotd snapshot lacks $want" >&2
		exit 1
	fi
done
echo "smoke: metrics snapshots OK"

common="-scale 65536 -shards 2 -quiet"
# shellcheck disable=SC2086 # $common is a deliberate word list
"$census" $common -out "$work/full.jsonl" -notify "$work/full.txt"
# shellcheck disable=SC2086
"$census" $common -out "$work/cut.jsonl" -notify "$work/cut.txt" \
	-checkpoint "$work/cp.bin" -rate 10000 -timeout 2s
if [ ! -f "$work/cp.bin" ]; then
	echo "smoke: the -timeout run finished before its deadline; no checkpoint to resume" >&2
	exit 1
fi
full=$(wc -l <"$work/full.jsonl")
cut=$(wc -l <"$work/cut.jsonl")
if [ "$cut" -ge "$full" ]; then
	echo "smoke: the cut run streamed $cut of $full records; the cut did not land mid-scan" >&2
	exit 1
fi
# shellcheck disable=SC2086
"$census" $common -out "$work/cut.jsonl" -notify "$work/cut.txt" -resume "$work/cp.bin"

if ! cmp "$work/full.txt" "$work/cut.txt"; then
	echo "smoke: resumed notices differ from the uninterrupted run" >&2
	exit 1
fi
normalize() {
	sed -E 's/"scanned_at":"[^"]*",?//; s/"mtime":"[^"]*",?//g' "$1" | LC_ALL=C sort
}
normalize "$work/full.jsonl" >"$work/full.sorted"
normalize "$work/cut.jsonl" >"$work/cut.sorted"
if ! cmp "$work/full.sorted" "$work/cut.sorted"; then
	echo "smoke: resumed ledger differs from the uninterrupted run" >&2
	exit 1
fi

# -notify after -resume needs the ledger the earlier records live in.
# shellcheck disable=SC2086
if "$census" $common -notify "$work/x.txt" -resume "$work/none.bin" 2>"$work/err.txt"; then
	echo "smoke: -notify -resume without -out was accepted" >&2
	exit 1
fi
grep -q -- "-notify with -resume needs -out" "$work/err.txt"
echo "smoke: resumed -notify run matches the uninterrupted run ($cut of $full records before the cut)"
