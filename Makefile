# Tier-1 verification flow plus the perf harness.
#
#   make tier1   — what every PR must keep green: build, vet, full test
#                  suite, and race-mode tests on the scan-path packages.
#   make chaos   — the fault-injection suite under the race detector:
#                  hostile servers, malformed protocol input, budget and
#                  degradation paths.
#   make bench   — regenerate the scan-path benchmark numbers (BENCH json).

GO ?= go

# Packages whose hot paths are exercised by many goroutines; always raced.
# The honeypot accumulator and attacker fleet are mutated by hundreds of
# concurrent sessions, so they belong here too.
RACE_PKGS = ./internal/simnet ./internal/zmap ./internal/worldgen ./internal/obs \
	./internal/honeypot ./internal/attacker

# Packages holding the chaos suite: fault injection, hostile worlds, the
# enumerator's retry/degradation layer, the identification stage's hostile
# banners (drip, stall, mid-banner EOF, garbage), and the end-to-end
# hostile census.
CHAOS_PKGS = ./internal/simnet ./internal/ftp ./internal/listparse \
	./internal/enumerator ./internal/worldgen ./internal/identify \
	./internal/core ./internal/attacker

.PHONY: build test vet vet-obs race race-full race-sharded race-server tier1 chaos bench bench-server bench-identify bench-longitudinal bench-honeypot smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The metrics layer sits on every hot path; vet it on its own so a
# tier1 failure names the package directly.
vet-obs:
	$(GO) vet ./internal/obs

race:
	$(GO) test -race $(RACE_PKGS)

# Extended race coverage: the pipeline, the analysis fold and its snapshot
# merges, and the delta engine.
race-full: race
	$(GO) test -race ./internal/core ./internal/analysis ./internal/delta

# Sharded census under the race detector: N concurrent shard pipelines
# share one world, collector, stream sink, and metrics registry, and the
# aggregator snapshots merge across them — exactly the surfaces a data
# race would corrupt silently. The checkpoint/resume suite rides along:
# mid-scan halts, periodic quiescent checkpoints, and resume validation
# all cut across those same shared structures.
race-sharded:
	$(GO) test -race -run 'TestSharded|TestSnapshot|TestAggregatorMerge|TestSynced|TestKeepOpen|TestChildCounter|TestKillAndResume|TestPeriodicCheckpoint|TestResumeValidation|TestCheckpoint' \
		./internal/core ./internal/analysis ./internal/dataset ./internal/obs

# Server core under the race detector: pooled sessions, the connection
# governor's shared reaper, token buckets, and the in-memory driver are all
# mutated by concurrent session goroutines.
race-server:
	$(GO) test -race ./internal/ftpserver ./internal/honeypot

tier1: build vet vet-obs test race race-sharded race-server smoke

# Observability smoke test: a real ftpcensus run with live progress must
# produce a parseable, non-empty metrics snapshot.
smoke:
	scripts/smoke.sh

# Chaos suite: every fault class must yield a classified partial record —
# no hangs, no silent host drops — with the race detector watching.
# KillAndResume belongs here too: it kills a census mid-scan over benign
# *and* hostile worlds and demands byte-identical recovery.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Hostile|Benign|Malformed|Truncated|Oversized|MidReply|UnexpectedEOF|KillAndResume' $(CHAOS_PKGS)

bench:
	scripts/bench.sh

# Server-core benchmark: concurrent-session throughput (100/1k/10k tiers
# over simnet and loopback TCP) plus per-command steady-state allocations.
bench-server:
	PKG=./internal/ftpserver \
	BENCH='BenchmarkServerConcurrentSessions|BenchmarkSessionCommands' \
	BENCHTIME=20000x scripts/bench.sh BENCH_7.json

# Staged-funnel benchmark: per-class identification round-trips, the
# shed-vs-enumerate trade on one service host, and the full mixed-world
# census with the legacy two-stage pipeline versus the staged funnel.
bench-identify:
	BENCH='BenchmarkIdentifyRoundTrip|BenchmarkShedVsEnumerate|BenchmarkMixedCensus' \
	BENCHTIME=3x scripts/bench.sh BENCH_8.json

# Longitudinal benchmark: checkpoint frame encode/decode, the resume-time
# aggregate merge, and a 100k-host ledger diff.
bench-longitudinal:
	PKG=./internal/delta \
	BENCH='BenchmarkCheckpointEncode|BenchmarkCheckpointDecode|BenchmarkResumeMerge|BenchmarkDiffLedgers' \
	BENCHTIME=100x scripts/bench.sh BENCH_9.json

# Honeypot fleet benchmark: 100 differentiated honeypots absorbing a
# million-session attacker campaign through the streaming accumulators —
# live-B/session must stay fractional (population-bounded memory) — plus
# the legacy-scale §VIII study for the report tables.
bench-honeypot:
	BENCH='BenchmarkHoneypotFleetMemory|BenchmarkSectionVIII_Honeypot' \
	BENCHTIME=1x scripts/bench.sh BENCH_10.json
