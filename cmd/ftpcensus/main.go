// Command ftpcensus runs the full measurement pipeline — world synthesis,
// ZMap-style discovery, enumeration, analysis — and prints every table and
// figure from the paper's evaluation.
//
// Usage:
//
//	ftpcensus -seed 42 -scale 2048 -out census.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/core"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/notify"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/report"
	"ftpcloud/internal/worldgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ftpcensus: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed     = flag.Uint64("seed", 42, "world and scan-order seed")
		scale    = flag.Int("scale", 2048, "divisor of the paper's full-Internet population")
		epoch    = flag.Uint64("epoch", 0, "world epoch: later epochs churn hosts, upgrade versions, and reallocate tail ASes deterministically")
		workers  = flag.Int("workers", 64, "enumeration worker count")
		retries  = flag.Int("retries", 2, "discovery probe retries")
		rate     = flag.Int("rate", 0, "cap discovery probes per second across all shards (0 = unthrottled)")
		loss     = flag.Float64("loss", 0.02, "simulated probe loss rate")
		out      = flag.String("out", "", "write the per-host dataset (JSONL) to this file")
		notifyTo = flag.String("notify", "", "write per-AS disclosure notices to this file")
		csvTo    = flag.String("figure1-csv", "", "write Figure 1's CDF series (CSV) to this file")
		quiet    = flag.Bool("quiet", false, "suppress the table report")
		timeout  = flag.Duration("timeout", 30*time.Minute, "overall run deadline")
		shards   = flag.Int("shards", 1,
			"fan the census out over this many cooperating shard pipelines")
		snapshotOut = flag.String("snapshot-out", "",
			"write the merged aggregate snapshot (binary checkpoint) to this file")
		checkpointTo = flag.String("checkpoint", "",
			"write a resumable checkpoint to this file on truncation (and periodically); removed after a clean finish")
		checkpointEvery = flag.Duration("checkpoint-every", 30*time.Second,
			"periodic checkpoint interval when -checkpoint is set (0 = truncation-only)")
		resumeFrom = flag.String("resume", "",
			"resume a truncated census from this checkpoint file; -out is trimmed to the checkpointed ledger and appended to")

		serviceMix = flag.String("service-mix", "",
			"put non-FTP services on port 21: \"default\" or weights like http=4,tls=2,ssh=2,telnet=1,garbage=2,silent=1 (empty = off)")
		identifyOn = flag.Bool("identify", false,
			"insert the LZR-style identification stage: fingerprint each discovered endpoint and shed non-FTP services before enumeration")
		identifyWait = flag.Duration("identify-wait", 0,
			"identification banner wait before sending the trigger (0 = default 2s)")
		identifyWorkers = flag.Int("identify-workers", 0,
			"workers identification adds to each shard's pool of -workers (0 = default 32)")

		hostile = flag.Float64("hostile", 0,
			"fraction of FTP hosts given a hostile fault personality")
		faultMix = flag.String("fault-mix", "",
			"hostile class weights, e.g. latency=1,drip=2,rst=1,stall=1,garbage=1,eof=1")
		enumTimeout = flag.Duration("enum-timeout", 0,
			"per-operation enumerator timeout (0 = default 15s)")
		enumRetries = flag.Int("enum-retries", 0,
			"enumerator attempts for transient faults: control and data dials, banner timeouts and resets (0 = default 2)")
		hostBudget = flag.Duration("host-budget", 0,
			"wall-clock budget per enumerated host (0 = default 2m, negative = off)")
		byteBudget = flag.Int64("byte-budget", 0,
			"data-channel byte budget per host (0 = default 64MiB, negative = off)")

		progress = flag.Duration("progress", 0,
			"emit a progress line to stderr at this interval (0 = off)")
		debugAddr = flag.String("debug-addr", "",
			"serve /debug/pprof, /debug/vars and /metrics on this address")
		metricsOut = flag.String("metrics-out", "",
			"write the final metrics snapshot (JSON) to this file")
	)
	flag.Parse()

	// Shard counts outside [1,63] are config errors: zero or negative
	// pipelines cannot carry a census, and beyond 63 the per-shard probe
	// floor (1/s) makes the aggregate rate wildly overshoot -rate.
	if *shards < 1 || *shards > 63 {
		return fmt.Errorf("-shards %d out of range: must be between 1 and 63", *shards)
	}

	// A non-positive -scale means the census default, as in core.NewCensus.
	if *scale < 1 {
		*scale = 2048
	}
	world := worldgen.DefaultParams(*seed, *scale)
	world.Epoch = *epoch
	world.HostileRate = *hostile
	var err error
	if world.FaultMix, err = worldgen.ParseFaultMix(*faultMix); err != nil {
		return err
	}
	// The empty flag keeps the benign world bit-identical to pre-service
	// seeds; "default" opts into the LZR-shaped mix without spelling it out.
	if *serviceMix == "default" {
		world.ServiceMix = worldgen.DefaultServiceMix()
	} else if *serviceMix != "" {
		if world.ServiceMix, err = worldgen.ParseServiceMix(*serviceMix); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	reg := obs.NewRegistry()

	// A resumed run picks up the checkpoint's aggregate and cursors, and
	// continues the interrupted ledger in place. It keeps checkpointing to
	// the same file unless told otherwise, so a second kill resumes from
	// the later position and a clean finish removes the consumed file.
	var resumeSnap *analysis.Snapshot
	if *resumeFrom != "" {
		// Notices must cover the hosts seen before the checkpoint too, and
		// only the ledger still holds those records.
		if *notifyTo != "" && *out == "" {
			return fmt.Errorf("-notify with -resume needs -out: notices for the records streamed before the checkpoint are rebuilt from that ledger")
		}
		var err error
		if resumeSnap, err = readCheckpoint(*resumeFrom); err != nil {
			return err
		}
		if *checkpointTo == "" {
			*checkpointTo = *resumeFrom
		}
		fmt.Fprintf(os.Stderr, "ftpcensus: resuming from %s (%d records already streamed)\n",
			*resumeFrom, resumeSnap.Checkpoint.Streamed)
	}

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, "ftpcensus", reg)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "ftpcensus: debug endpoints at http://%s/debug/pprof/ and /debug/vars\n", dbg.Addr())
	}
	if *metricsOut != "" {
		// Snapshot on every exit path — a truncated or failed run still
		// leaves its metrics behind for postmortem.
		defer func() {
			if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "ftpcensus: metrics snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "ftpcensus: wrote metrics snapshot to %s\n", *metricsOut)
			}
		}()
	}

	var result *core.Result
	if *snapshotOut != "" {
		// Mirror the -metrics-out defer: a truncated run's aggregate is a
		// valid mergeable dataset (and a longitudinal diff input), so it
		// is persisted on every exit path that produced one — not only
		// the happy path.
		defer func() {
			if result == nil {
				return
			}
			if err := writeAggregateSnapshot(result, *snapshotOut); err != nil {
				fmt.Fprintf(os.Stderr, "ftpcensus: aggregate snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "ftpcensus: wrote aggregate snapshot to %s\n", *snapshotOut)
			}
		}()
	}

	var policy *core.CheckpointPolicy
	if *checkpointTo != "" {
		policy = &core.CheckpointPolicy{
			Every: *checkpointEvery,
			Write: func(snap *analysis.Snapshot) error {
				return writeCheckpointAtomic(snap, *checkpointTo)
			},
		}
	}

	sharded, err := core.NewShardedCensus(core.CensusConfig{
		Seed:            *seed,
		Scale:           *scale,
		Params:          &world,
		EnumWorkers:     *workers,
		Retries:         *retries,
		ScanRate:        *rate,
		LossRate:        *loss,
		Checkpoint:      policy,
		Resume:          resumeSnap,
		RetainRecords:   core.RetainNone,
		Identify:        *identifyOn,
		IdentifyWait:    *identifyWait,
		IdentifyWorkers: *identifyWorkers,
		EnumTimeout:     *enumTimeout,
		EnumRetry:       enumerator.RetryPolicy{Attempts: *enumRetries},
		HostBudget:      *hostBudget,
		ByteBudget:      *byteBudget,
		Metrics:         reg,
	}, *shards)
	if err != nil {
		return err
	}
	census := sharded.Census
	shardNote := ""
	if sharded.Shards > 1 {
		shardNote = fmt.Sprintf(", %d shards", sharded.Shards)
	}
	fmt.Fprintf(os.Stderr, "ftpcensus: scanning %d addresses (scale 1:%d, seed %d%s)\n",
		census.World.ScanSize, *scale, *seed, shardNote)

	// Every consumer of the records streams: the JSONL ledger is written
	// as each enumeration finishes, and the notify builder folds each
	// record into per-AS findings, so the census never retains the
	// dataset. The sinks attach once the world exists, because the
	// notices attribute findings through its AS database. A resume
	// appends to the interrupted ledger after trimming it to exactly the
	// records the checkpoint accounts for, so the finished file carries no
	// duplicates and no post-checkpoint stragglers; the kept records are
	// replayed into the notify builder so the notices cover the whole run.
	var sinks []dataset.Sink
	var notices *notify.Builder
	if *notifyTo != "" {
		notices = notify.NewBuilder(census.World.ASDB)
	}
	var streamSink *dataset.WriterSink
	ran := false
	if *out != "" && resumeSnap != nil {
		var replay dataset.Sink
		if notices != nil {
			replay = notices
		}
		f, err := openLedgerForResume(*out, resumeSnap.Checkpoint.Streamed, replay)
		if err != nil {
			return err
		}
		streamSink = dataset.NewWriterSink(f)
		defer func() {
			if !ran {
				streamSink.Close()
			}
		}()
	} else if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		streamSink = dataset.NewWriterSink(f)
		// Until Run takes ownership of the sink chain, every early-error
		// return must flush/close the handle and clear the empty file it
		// would otherwise leave behind.
		defer func() {
			if ran {
				return
			}
			streamSink.Close()
			if streamSink.Count() == 0 {
				os.Remove(*out)
			}
		}()
	}
	if streamSink != nil {
		sinks = append(sinks, streamSink)
	}
	if notices != nil {
		sinks = append(sinks, notices)
	}
	if len(sinks) > 0 {
		census.Config.StreamTo = dataset.Tee(sinks...)
	}

	if *progress > 0 {
		rep := &obs.Reporter{Registry: reg, Interval: *progress, Format: censusProgress}
		stop := rep.Start(ctx)
		defer stop()
	}

	ran = true // Run owns the sink chain from here: it flushes and closes it.
	result, err = sharded.Run(ctx)
	if err != nil {
		return err
	}
	if result.Truncated {
		fmt.Fprintf(os.Stderr,
			"ftpcensus: *** TRUNCATED at %s — partial results below (%d records enumerated) ***\n",
			result.TruncatedBy, result.Observed)
	}
	if *checkpointTo != "" {
		if result.Truncated {
			fmt.Fprintf(os.Stderr, "ftpcensus: checkpoint written to %s — continue with -resume %s\n",
				*checkpointTo, *checkpointTo)
		} else if os.Remove(*checkpointTo) == nil {
			// A clean finish needs no resume point; leaving a stale
			// periodic checkpoint behind would invite resuming a
			// completed census.
			fmt.Fprintf(os.Stderr, "ftpcensus: clean finish — removed checkpoint %s\n", *checkpointTo)
		}
	}
	fmt.Fprintf(os.Stderr, "ftpcensus: discovery %v (%d probed, %d responsive); enumeration %v (%d records)\n",
		result.ScanDuration.Round(time.Millisecond), result.Probed, result.Responded,
		result.EnumDuration.Round(time.Millisecond), result.Observed)

	if *identifyOn {
		snap := reg.Snapshot()
		fmt.Fprintf(os.Stderr, "ftpcensus: identification: %d dials, %d passed to enumeration (%d on the identifying connection), %d shed, %d errors\n",
			snap.Counters["identify.dials"], snap.Counters["identify.passed"], snap.Counters["identify.handoffs"],
			snap.Counters["identify.shed"], snap.Counters["identify.errors"])
	}

	if r := result.Robustness; r.Partial > 0 || len(r.Failures) > 0 || *hostile > 0 {
		fmt.Fprintf(os.Stderr,
			"ftpcensus: robustness: %d partial, %d terminated, %d truncated, %d dirs skipped, %d retries\n",
			r.Partial, r.Terminated, r.Truncated, r.SkippedDirs, r.Retries)
		if len(r.Failures) > 0 {
			classes := make([]string, 0, len(r.Failures))
			for c := range r.Failures {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			parts := make([]string, 0, len(classes))
			for _, c := range classes {
				parts = append(parts, fmt.Sprintf("%s=%d", c, r.Failures[c]))
			}
			fmt.Fprintf(os.Stderr, "ftpcensus: failure classes: %s\n", strings.Join(parts, " "))
		}
	}

	if streamSink != nil {
		// Run already flushed and closed the sink chain.
		fmt.Fprintf(os.Stderr, "ftpcensus: streamed %d records to %s\n", streamSink.Count(), *out)
	}

	if *notifyTo != "" {
		f, err := os.Create(*notifyTo)
		if err != nil {
			return err
		}
		list := notices.Notices()
		for i, n := range list {
			if i > 0 {
				fmt.Fprintln(f, strings.Repeat("-", 72))
			}
			fmt.Fprintln(f, notify.Render(n))
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ftpcensus: wrote %d notices to %s\n", len(list), *notifyTo)
	}

	tables := result.ComputeTables()

	if *csvTo != "" {
		if err := os.WriteFile(*csvTo, []byte(report.Figure1CSV(tables.ASConcentration)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ftpcensus: wrote Figure 1 series to %s\n", *csvTo)
	}

	if !*quiet {
		if result.Truncated {
			fmt.Printf("*** TRUNCATED at %s — partial ledger (%d records) ***\n\n",
				result.TruncatedBy, result.Observed)
		}
		// RenderFull is Render plus the unexpected-services ledger; on runs
		// without an identification stage the bytes are identical.
		fmt.Println(tables.RenderFull())
	}
	return nil
}

// censusProgress renders one progress line tuned to the census pipeline:
// probe rate, discovery yield, enumeration throughput, live worker load,
// per-shard progress when the census is sharded, and any failure classes
// that moved during the interval. The unprefixed counters are the merged
// view — shard counters feed them on every increment — so the headline
// numbers are identical between sharded and single-pipeline runs.
func censusProgress(w io.Writer, delta, cur obs.Snapshot, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	fmt.Fprintf(w, "progress: probed=%d (%.0f/s) responded=%d enumerated=%d (%.1f/s) inflight=%d",
		cur.Counters["zmap.probed"], float64(delta.Counters["zmap.probed"])/secs,
		cur.Counters["zmap.responded"],
		cur.Counters["census.observed"], float64(delta.Counters["census.observed"])/secs,
		cur.Gauges["enum.inflight"])

	// With the identification stage active, show the funnel's midsection:
	// how fast endpoints are being fingerprinted and how many were shed
	// before burning an enumeration slot.
	if cur.Counters["identify.dials"] > 0 {
		fmt.Fprintf(w, " identified=%d (%.1f/s) shed=%d",
			cur.Counters["identify.dials"], float64(delta.Counters["identify.dials"])/secs,
			cur.Counters["identify.shed"])
	}

	var shardCounts []string
	for name := range cur.Counters {
		if strings.HasPrefix(name, "shard") && strings.HasSuffix(name, ".census.observed") {
			shardCounts = append(shardCounts, fmt.Sprintf("%s=%d",
				strings.TrimSuffix(name, ".census.observed"), cur.Counters[name]))
		}
	}
	if len(shardCounts) > 0 {
		sort.Strings(shardCounts)
		fmt.Fprintf(w, " [%s]", strings.Join(shardCounts, " "))
	}

	var classes []string
	for name := range delta.Counters {
		if strings.HasPrefix(name, "census.failure.") && delta.Counters[name] > 0 {
			classes = append(classes, name)
		}
	}
	if len(classes) > 0 {
		sort.Strings(classes)
		parts := make([]string, 0, len(classes))
		for _, name := range classes {
			parts = append(parts, fmt.Sprintf("%s=+%d",
				strings.TrimPrefix(name, "census.failure."), delta.Counters[name]))
		}
		fmt.Fprintf(w, " failures: %s", strings.Join(parts, " "))
	}
	fmt.Fprintln(w)
}

// readCheckpoint loads and sanity-checks a resume file. Deep validation
// (seed, epoch, shards, config digest) happens in core when the census
// starts; this only rejects files that are not checkpoints at all.
func readCheckpoint(path string) (*analysis.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := analysis.DecodeSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint %s: %w", path, err)
	}
	if snap.Checkpoint == nil {
		return nil, fmt.Errorf("%s is an aggregate snapshot, not a resumable checkpoint", path)
	}
	return snap, nil
}

// writeCheckpointAtomic persists a checkpoint via tmp+rename so a crash
// mid-write can never leave a torn file where the previous good checkpoint
// was — the file either holds the old checkpoint or the new one.
func writeCheckpointAtomic(snap *analysis.Snapshot, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := snap.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// openLedgerForResume trims the interrupted JSONL ledger to exactly the
// first streamed lines the checkpoint accounts for, then reopens it for
// appending. Trimming matters in the crash case: records streamed after
// the last checkpoint was written would otherwise duplicate when the
// resumed run re-observes their hosts. When replay is non-nil, each kept
// record is decoded and fed to it, so a sink attached to the resumed run
// sees the records streamed before the checkpoint too.
func openLedgerForResume(path string, streamed int, replay dataset.Sink) (*os.File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resume ledger: %w", err)
	}
	offset := 0
	for i := 0; i < streamed; i++ {
		n := bytes.IndexByte(raw[offset:], '\n')
		if n < 0 {
			return nil, fmt.Errorf("resume ledger %s holds %d records but the checkpoint accounts for %d — wrong file?",
				path, i, streamed)
		}
		if replay != nil {
			rec := &dataset.HostRecord{}
			if err := json.Unmarshal(raw[offset:offset+n], rec); err != nil {
				return nil, fmt.Errorf("resume ledger %s line %d: %w", path, i+1, err)
			}
			if err := replay.Observe(rec); err != nil {
				return nil, fmt.Errorf("resume ledger %s line %d: %w", path, i+1, err)
			}
		}
		offset += n + 1
	}
	if err := os.Truncate(path, int64(offset)); err != nil {
		return nil, fmt.Errorf("resume ledger: %w", err)
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// writeAggregateSnapshot persists the run's mergeable accumulator state —
// the checkpoint form a later run (or a longitudinal diff) can decode with
// analysis.DecodeSnapshot and merge into its own aggregate.
func writeAggregateSnapshot(result *core.Result, path string) error {
	snap := result.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
