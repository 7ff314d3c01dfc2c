package core

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/worldgen"
)

// cancelAtSink forwards records to an inner sink and cancels the run's
// context once n records have passed — a deterministic (record-counted)
// mid-run kill switch.
type cancelAtSink struct {
	inner  dataset.Sink
	n      int
	seen   int
	cancel context.CancelFunc
}

func (s *cancelAtSink) Observe(rec *dataset.HostRecord) error {
	if err := s.inner.Observe(rec); err != nil {
		return err
	}
	s.seen++
	if s.seen == s.n {
		s.cancel()
	}
	return nil
}

func (s *cancelAtSink) Close() error { return s.inner.Close() }

// sortedLines splits a JSONL buffer into sorted lines. Record completion
// order is nondeterministic even uninterrupted (workers race), so ledgers
// compare as sets; byte-identity means identical sorted lines.
func sortedLines(t *testing.T, raw []byte) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// resumeConfig builds the shared census configuration for the equivalence
// tests: streaming mode, small world, optional hostility.
func resumeConfig(seed uint64, scale int, hostile bool) CensusConfig {
	// A fixed clock keeps ScannedAt identical across runs — JSONL
	// byte-identity is part of the equivalence contract.
	stamp := time.Date(2016, 2, 22, 0, 0, 0, 0, time.UTC)
	cfg := CensusConfig{
		Seed:          seed,
		Scale:         scale,
		RetainRecords: RetainNone,
		Now:           func() time.Time { return stamp },
	}
	if hostile {
		cfg = withWorld(cfg, func(p *worldgen.Params) { p.HostileRate = 0.2 })
	}
	return cfg
}

// runReference runs the census uninterrupted and returns its rendered
// tables (the unexpected-services ledger included), sorted ledger, and
// result.
func runReference(t *testing.T, cfg CensusConfig, shards int) (string, []string, *Result) {
	t.Helper()
	var ledger bytes.Buffer
	cfg.StreamTo = dataset.NewWriterSink(&ledger)
	sc, err := NewShardedCensus(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.ComputeTables().RenderFull(), sortedLines(t, ledger.Bytes()), res
}

// TestKillAndResumeEquivalence: a census killed mid-run and resumed from
// its truncation checkpoint produces tables and JSONL byte-identical to the
// same census run uninterrupted — benign and hostile worlds, single and
// sharded, and the identification funnel over a mixed world, where one
// worker pool both sheds service hosts and enumerates FTP hosts on the
// connection identification opened. This is the tentpole acceptance
// criterion.
func TestKillAndResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hostile bool
		funnel  bool
		shards  int
	}{
		{"benign/1shard", false, false, 1},
		{"benign/4shards", false, false, 4},
		{"hostile/1shard", true, false, 1},
		{"hostile/4shards", true, false, 4},
		{"funnel/1shard", false, true, 1},
		{"funnel/2shards", false, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resumeConfig(11, 32768, tc.hostile)
			if tc.funnel {
				cfg = withWorld(cfg, func(p *worldgen.Params) { p.ServiceMix = worldgen.DefaultServiceMix() })
				cfg.Identify = true
				// Generous: under the race detector a busy pool can
				// delay a client-first service's reply past a short
				// trigger window, and the flipped classification would
				// fail the comparison for reasons unrelated to resume.
				cfg.IdentifyWait = 500 * time.Millisecond
			}
			wantRender, wantLedger, wantRes := runReference(t, cfg, tc.shards)

			// First leg: same census, killed after 5 records reach the
			// ledger. The checkpoint policy turns the cancellation into a
			// graceful halt + drain + checkpoint write.
			var checkpoint *analysis.Snapshot
			var ledger bytes.Buffer
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			killCfg := cfg
			// Throttle the walk so the kill lands mid-scan even when the
			// race detector slows enumeration to a crawl: at 100k probes/s
			// the ~112k-address walk takes >1s, while the 5th record (from
			// hosts near the walk's start) arrives within tens of ms. Rate
			// only paces the scan, so the result is still comparable to
			// the unthrottled reference.
			killCfg.ScanRate = 100_000
			killCfg.StreamTo = &cancelAtSink{inner: dataset.NewWriterSink(&ledger), n: 5, cancel: cancel}
			killCfg.Checkpoint = &CheckpointPolicy{
				Write: func(s *analysis.Snapshot) error {
					checkpoint = s
					return nil
				},
			}
			sc, err := NewShardedCensus(killCfg, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			res1, err := sc.Run(ctx)
			if err != nil {
				t.Fatalf("killed run returned error: %v", err)
			}
			if !res1.Truncated {
				t.Fatal("killed run not flagged truncated")
			}
			if checkpoint == nil {
				t.Fatal("truncation wrote no checkpoint")
			}
			cp := checkpoint.Checkpoint
			if cp == nil {
				t.Fatal("checkpoint snapshot carries no checkpoint state")
			}
			if !cp.Truncated {
				t.Error("checkpoint not marked as written on truncation")
			}
			if len(cp.Cursors) != tc.shards {
				t.Fatalf("checkpoint has %d cursors, want %d", len(cp.Cursors), tc.shards)
			}
			// The halt drained everything emitted: the ledger holds
			// exactly the records the checkpoint counts, no truncation
			// needed before appending.
			if got := len(sortedLines(t, ledger.Bytes())); got != cp.Streamed {
				t.Fatalf("ledger holds %d records, checkpoint says %d", got, cp.Streamed)
			}
			if res1.Observed >= wantRes.Observed {
				t.Fatalf("kill was not mid-run: %d of %d records already observed", res1.Observed, wantRes.Observed)
			}

			// The checkpoint survives serialization (what the CLI does).
			raw, err := checkpoint.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := analysis.DecodeSnapshotBytes(raw)
			if err != nil {
				t.Fatal(err)
			}

			// Second leg: resume, appending to the same ledger.
			resCfg := cfg
			resCfg.StreamTo = dataset.NewWriterSink(&ledger)
			resCfg.Resume = decoded
			sc2, err := NewShardedCensus(resCfg, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := sc2.Run(context.Background())
			if err != nil {
				t.Fatalf("resumed run returned error: %v", err)
			}
			if res2.Truncated {
				t.Error("resumed run flagged truncated")
			}

			if got := res2.ComputeTables().RenderFull(); got != wantRender {
				t.Errorf("resumed tables diverge from uninterrupted run:\n got:\n%s\nwant:\n%s", got, wantRender)
			}
			gotLedger := sortedLines(t, ledger.Bytes())
			if len(gotLedger) != len(wantLedger) {
				t.Fatalf("concatenated ledger holds %d records, want %d", len(gotLedger), len(wantLedger))
			}
			for i := range wantLedger {
				if gotLedger[i] != wantLedger[i] {
					t.Fatalf("ledger line %d diverges:\n got %s\nwant %s", i, gotLedger[i], wantLedger[i])
				}
			}
			if res2.Observed != wantRes.Observed {
				t.Errorf("Observed %d, want %d", res2.Observed, wantRes.Observed)
			}
			if res2.Probed != wantRes.Probed {
				t.Errorf("Probed %d, want %d — halves must cover the space exactly once", res2.Probed, wantRes.Probed)
			}
			if res2.Responded != wantRes.Responded {
				t.Errorf("Responded %d, want %d", res2.Responded, wantRes.Responded)
			}
		})
	}
}

// stallSink forwards records to an inner sink, stalling once at the n-th
// record until block closes — holding the run open long enough for the
// periodic checkpoint ticker to fire deterministically.
type stallSink struct {
	inner dataset.Sink
	n     int
	seen  int
	block chan struct{}
}

func (s *stallSink) Observe(rec *dataset.HostRecord) error {
	s.seen++
	if s.seen == s.n {
		<-s.block
	}
	return s.inner.Observe(rec)
}

func (s *stallSink) Close() error { return s.inner.Close() }

// Flush forwards to the inner writer so the checkpoint coordinator's
// pre-write flush reaches the buffered ledger.
func (s *stallSink) Flush() error {
	if f, ok := s.inner.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// TestPeriodicCheckpointResumesLikeSIGKILL: a periodic checkpoint taken at
// a quiescent point mid-run, plus the ledger bytes flushed at that moment,
// reconstruct the full census exactly — the SIGKILL story: a run killed
// without warning resumes from its last periodic write.
func TestPeriodicCheckpointResumesLikeSIGKILL(t *testing.T) {
	cfg := resumeConfig(23, 32768, false)
	wantRender, wantLedger, wantRes := runReference(t, cfg, 1)

	// The stall holds the pipeline open ~80ms; the 10ms ticker fires
	// during it, waits out the stall in its quiescence poll, and writes a
	// checkpoint with the ledger flushed. Write captures both.
	var lastSnap []byte
	var lastLedger []byte
	var ledger bytes.Buffer
	stall := &stallSink{inner: dataset.NewWriterSink(&ledger), n: 3, block: make(chan struct{})}
	time.AfterFunc(80*time.Millisecond, func() { close(stall.block) })

	runCfg := cfg
	runCfg.StreamTo = stall
	runCfg.Checkpoint = &CheckpointPolicy{
		Every: 10 * time.Millisecond,
		Write: func(s *analysis.Snapshot) error {
			raw, err := s.EncodeBytes()
			if err != nil {
				return err
			}
			lastSnap = raw
			lastLedger = append([]byte(nil), ledger.Bytes()...)
			return nil
		},
	}
	c, err := NewCensus(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("census with periodic checkpoints failed: %v", err)
	}
	if res.Truncated {
		t.Fatal("uncancelled run flagged truncated")
	}
	// Periodic checkpointing must not perturb the run itself.
	if got := res.ComputeTables().RenderFull(); got != wantRender {
		t.Error("periodic checkpointing changed the census tables")
	}
	if lastSnap == nil {
		t.Fatal("no periodic checkpoint fired during an ~80ms run with a 10ms ticker")
	}

	// Crash recovery: resume from the last periodic write, appending to
	// the ledger bytes as they were at that instant.
	decoded, err := analysis.DecodeSnapshotBytes(lastSnap)
	if err != nil {
		t.Fatal(err)
	}
	cp := decoded.Checkpoint
	if cp == nil {
		t.Fatal("periodic snapshot carries no checkpoint state")
	}
	if cp.Truncated {
		t.Error("periodic checkpoint marked as truncation write")
	}
	if got := len(sortedLines(t, lastLedger)); cp.Streamed != got {
		t.Fatalf("periodic checkpoint says %d streamed, captured ledger holds %d", cp.Streamed, got)
	}

	recovered := bytes.NewBuffer(append([]byte(nil), lastLedger...))
	resCfg := cfg
	resCfg.StreamTo = dataset.NewWriterSink(recovered)
	resCfg.Resume = decoded
	c2, err := NewCensus(resCfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.ComputeTables().RenderFull(); got != wantRender {
		t.Error("recovered tables diverge from uninterrupted run")
	}
	gotLedger := sortedLines(t, recovered.Bytes())
	if len(gotLedger) != len(wantLedger) {
		t.Fatalf("recovered ledger holds %d records, want %d", len(gotLedger), len(wantLedger))
	}
	for i := range wantLedger {
		if gotLedger[i] != wantLedger[i] {
			t.Fatalf("recovered ledger line %d diverges", i)
		}
	}
	if res2.Observed != wantRes.Observed {
		t.Errorf("recovered Observed %d, want %d", res2.Observed, wantRes.Observed)
	}
}

// TestResumeValidation: a checkpoint from a different world or pipeline
// shape is refused with ErrCheckpointMismatch, never silently continued.
func TestResumeValidation(t *testing.T) {
	cfg := resumeConfig(31, 262144, false)

	// Produce a real checkpoint by killing a run immediately.
	var checkpoint *analysis.Snapshot
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := cfg
	killCfg.StreamTo = &cancelAtSink{inner: &dataset.Collector{}, n: 1, cancel: cancel}
	killCfg.Checkpoint = &CheckpointPolicy{Write: func(s *analysis.Snapshot) error {
		checkpoint = s
		return nil
	}}
	c, err := NewCensus(killCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if checkpoint == nil {
		t.Fatal("no checkpoint written")
	}

	run := func(mutate func(*CensusConfig, *analysis.Snapshot), shards int) error {
		resCfg := cfg
		snap := *checkpoint
		cp := *checkpoint.Checkpoint
		snap.Checkpoint = &cp
		resCfg.Resume = &snap
		mutate(&resCfg, &snap)
		sc, err := NewShardedCensus(resCfg, shards)
		if err != nil {
			return err
		}
		_, err = sc.Run(context.Background())
		return err
	}

	cases := map[string]func() error{
		"different seed": func() error {
			return run(func(c *CensusConfig, _ *analysis.Snapshot) { c.Seed = 99 }, 1)
		},
		"different epoch": func() error {
			return run(func(c *CensusConfig, _ *analysis.Snapshot) {
				*c = withWorld(*c, func(p *worldgen.Params) { p.Epoch = 2 })
			}, 1)
		},
		"different shards": func() error {
			return run(func(*CensusConfig, *analysis.Snapshot) {}, 4)
		},
		"different measurement knobs": func() error {
			return run(func(c *CensusConfig, _ *analysis.Snapshot) { c.Retries = 3 }, 1)
		},
		"plain aggregate": func() error {
			return run(func(_ *CensusConfig, s *analysis.Snapshot) { s.Checkpoint = nil }, 1)
		},
	}
	for name, f := range cases {
		if err := f(); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: got %v, want ErrCheckpointMismatch", name, err)
		}
	}

	// The untouched checkpoint must still be accepted.
	if err := run(func(*CensusConfig, *analysis.Snapshot) {}, 1); err != nil {
		t.Errorf("valid checkpoint refused: %v", err)
	}
}
