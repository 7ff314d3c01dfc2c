package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/zmap"
)

// CheckpointPolicy makes a census resumable. With a policy configured,
// caller cancellation no longer tears the pipeline down: the scanners halt
// at a batch boundary, everything already emitted drains through the sink
// chain, and Write receives a snapshot whose per-shard cursors exactly
// cover the records the run folded (and streamed). A later run configured
// with Resume continues from that snapshot as if the interruption never
// happened.
type CheckpointPolicy struct {
	// Write persists one checkpoint snapshot — on truncation always, and
	// at each quiescent point when Every is set. It is never called
	// concurrently with itself. Must not be nil.
	Write func(*analysis.Snapshot) error
	// Every enables periodic checkpoints: at this interval the coordinator
	// parks the scanners, waits for in-flight work to drain, flushes the
	// ledger, and writes a snapshot — so even a SIGKILL loses at most one
	// interval of work. Zero disables periodic writes (truncation still
	// checkpoints).
	Every time.Duration
	// DrainGrace bounds how long truncation waits for in-flight work to
	// drain before hard-canceling the pipeline. After a hard cancel no
	// checkpoint is written — the cursors are no longer exact. Zero means
	// 30s.
	DrainGrace time.Duration
}

// ErrCheckpointMismatch rejects a Resume snapshot written under a different
// world or pipeline configuration; continuing it would silently change the
// measurement semantics mid-series.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match census configuration")

// shardRuntime exposes one running shard's live pieces to the checkpoint
// coordinator: the scanner (halt/pause/cursor), the aggregate, and the
// accounting that defines quiescence. ready closes once the fields are
// published (scanner nil means setup failed).
type shardRuntime struct {
	ready      chan struct{}
	scanner    *zmap.Scanner
	agg        *analysis.Aggregator
	robust     *Robustness
	accepted   atomic.Uint64
	sinkFailed atomic.Bool
}

// runN executes n shard pipelines (n==1 is the plain census) and merges
// their partial results. It owns the checkpoint machinery: the detached
// pipeline context, the halt watcher, the periodic quiescent coordinator,
// and the truncation checkpoint write.
func (c *Census) runN(callerCtx context.Context, n int) (*Result, error) {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		return nil, fmt.Errorf("core: %d shards exceeds the source-address budget (max %d)", n, maxShards)
	}
	start := time.Now()

	resume, err := c.resumeState(n)
	if err != nil {
		return nil, err
	}

	// With a checkpoint policy the pipelines run under a context detached
	// from the caller's: cancellation must not abort in-flight work, or
	// the committed cursors would not cover what drained. The halt watcher
	// below translates caller cancellation into a graceful stop. Without a
	// policy the legacy behavior stands — caller cancellation cuts the
	// pipeline directly.
	policy := c.Config.Checkpoint
	var pipeCtx context.Context
	var cancel context.CancelFunc
	if policy != nil {
		pipeCtx, cancel = context.WithCancel(context.WithoutCancel(callerCtx))
	} else {
		pipeCtx, cancel = context.WithCancel(callerCtx)
	}
	defer cancel()

	collector, err := enumerator.NewSimCollector(c.Network, CollectorIP, 3100)
	if err != nil {
		return nil, fmt.Errorf("core: collector: %w", err)
	}
	defer collector.Close()

	// One merged ledger: with several shards the caller's sink observes
	// records from N drain goroutines, so serialize it; each shard gets a
	// KeepOpen view and the real Close happens once, below.
	var stream dataset.Sink
	if c.Config.StreamTo != nil {
		stream = c.Config.StreamTo
		if n > 1 {
			stream = dataset.Synced(stream)
		}
	}

	runtimes := make([]*shardRuntime, n)
	for i := range runtimes {
		runtimes[i] = &shardRuntime{ready: make(chan struct{})}
	}

	pipesDone := make(chan struct{})
	var hardCanceled atomic.Bool
	var watcherDone chan struct{}
	if policy != nil {
		watcherDone = make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-pipesDone:
				return
			case <-callerCtx.Done():
			}
			// Halt every scanner at its next batch boundary; in-flight
			// work keeps draining under the detached pipeline context,
			// so when the pipelines finish the cursors are exact.
			for _, rt := range runtimes {
				<-rt.ready
				if rt.scanner != nil {
					rt.scanner.Halt()
				}
			}
			grace := policy.DrainGrace
			if grace <= 0 {
				grace = 30 * time.Second
			}
			select {
			case <-pipesDone:
			case <-time.After(grace):
				// The drain is stuck; cut it. The cursors no longer
				// bound what drained, so the checkpoint is skipped.
				hardCanceled.Store(true)
				cancel()
			}
		}()
	}

	var stopTicker func()
	if policy != nil && policy.Every > 0 {
		stopTicker = obs.Every(pipeCtx, policy.Every, func() {
			c.quiescentCheckpoint(pipeCtx, runtimes, n)
		})
	}

	outcomes := make([]*shardOutcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		spec := shardSpec{
			sourceBase:     simnet.IP(uint64(ScannerBase) + uint64(i)*shardSourceStride),
			identifySource: simnet.IP(uint64(IdentifyBase) + uint64(i)*shardSourceStride),
			collector:      collector,
			stream:         stream,
		}
		if n > 1 {
			spec.index, spec.total = i, n
			spec.prefix = fmt.Sprintf("shard%d.", i)
		}
		if resume != nil {
			spec.startCursor = resume.Cursors[i]
		}
		wg.Add(1)
		go func(i int, spec shardSpec) {
			defer wg.Done()
			outcomes[i] = c.runShard(pipeCtx, cancel, start, spec, runtimes[i])
		}(i, spec)
	}
	wg.Wait()
	close(pipesDone)
	if stopTicker != nil {
		stopTicker()
	}
	if watcherDone != nil {
		<-watcherDone
	}

	var streamErr error
	if c.Config.StreamTo != nil {
		streamErr = c.Config.StreamTo.Close()
	}

	// With the pipelines detached from the caller, truncation shows on
	// callerCtx, not pipeCtx — assemble reads whichever context carries
	// the caller's intent.
	assembleCtx := pipeCtx
	if policy != nil {
		assembleCtx = callerCtx
	}
	result, runErr := c.assemble(assembleCtx, start, outcomes, streamErr)

	// The truncation checkpoint: written after everything drained and
	// merged, so it is the exact state an uninterrupted run would have
	// passed through. Skipped after a hard cancel (cursors not exact) and
	// after a sink failure (the ledger is suspect).
	if policy != nil && runErr == nil && result != nil && result.Truncated && !hardCanceled.Load() {
		snap := result.agg.Snapshot()
		cursors := make([]uint64, n)
		for i, rt := range runtimes {
			if rt.scanner != nil {
				cursors[i] = rt.scanner.Cursor()
			}
		}
		snap.Checkpoint = c.checkpointState(n, cursors, result.Observed, result.Probed, result.Responded, true, result.Robustness)
		if werr := policy.Write(snap); werr != nil {
			runErr = fmt.Errorf("core: writing truncation checkpoint: %w", werr)
		} else {
			c.Config.Metrics.Counter("census.checkpoints").Inc()
		}
	}
	return result, runErr
}

// quiescentCheckpoint pauses every scanner, waits until everything emitted
// has been accounted (dead or accepted by the sink chain), flushes the
// ledger, writes a checkpoint, and resumes the walk. Runs on the obs.Every
// goroutine, so invocations never overlap.
func (c *Census) quiescentCheckpoint(pipeCtx context.Context, runtimes []*shardRuntime, n int) {
	for _, rt := range runtimes {
		select {
		case <-rt.ready:
		case <-pipeCtx.Done():
			return
		}
		if rt.scanner == nil {
			return
		}
	}
	for _, rt := range runtimes {
		rt.scanner.Pause()
	}
	defer func() {
		for _, rt := range runtimes {
			rt.scanner.Resume()
		}
	}()

	// Quiescence: with the producers parked, emitted is frozen, so the
	// in-flight count only decreases. accepted is bumped after each
	// record's folds complete, so pending == 0 is also the memory barrier
	// that makes reading the aggregates below race-free.
	for {
		pending := uint64(0)
		for _, rt := range runtimes {
			if rt.sinkFailed.Load() {
				return
			}
			pending += rt.scanner.Emitted() - rt.scanner.Dead() - rt.accepted.Load()
		}
		if pending == 0 {
			break
		}
		select {
		case <-pipeCtx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}

	// Flush the raw stream (not the Synced wrapper — at quiescence no
	// Observe is in flight) so the ledger on disk holds exactly the
	// records the checkpoint counts.
	if f, ok := c.Config.StreamTo.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			c.Config.Metrics.Counter("census.checkpoint_errors").Inc()
			return
		}
	}

	agg := analysis.NewAggregator(nil, nil)
	var robust Robustness
	var probed, responded uint64
	cursors := make([]uint64, n)
	for i, rt := range runtimes {
		agg.Merge(rt.agg)
		robust.Merge(*rt.robust)
		probed += rt.scanner.Stats.Probed.Load()
		responded += rt.scanner.Stats.Responded.Load()
		cursors[i] = rt.scanner.Cursor()
	}
	if r := c.Config.Resume; r != nil && r.Checkpoint != nil {
		agg.MergeSnapshot(r)
		robust.Merge(robustFromState(r.Checkpoint.Robustness))
		probed += r.Checkpoint.Probed
		responded += r.Checkpoint.Responded
	}
	snap := agg.Snapshot()
	snap.Checkpoint = c.checkpointState(n, cursors, agg.Observed(), probed, responded, false, robust)
	if err := c.Config.Checkpoint.Write(snap); err != nil {
		c.Config.Metrics.Counter("census.checkpoint_errors").Inc()
		return
	}
	c.Config.Metrics.Counter("census.checkpoints").Inc()
}

// checkpointState assembles the census-position half of a checkpoint.
func (c *Census) checkpointState(n int, cursors []uint64, observed int, probed, responded uint64, truncated bool, robust Robustness) *analysis.CheckpointState {
	streamed := 0
	if c.Config.StreamTo != nil {
		// The stream sink sits first in every shard's chain, so every
		// observed record is on the ledger: line count == Observed.
		streamed = observed
	}
	p := c.World.Params
	return &analysis.CheckpointState{
		Seed:         p.Seed,
		Epoch:        p.Epoch,
		Scale:        p.Scale,
		Shards:       n,
		ScanSize:     c.World.ScanSize,
		ConfigDigest: c.configDigest(),
		Cursors:      cursors,
		Streamed:     streamed,
		Probed:       probed,
		Responded:    responded,
		Truncated:    truncated,
		Robustness:   robustState(robust),
	}
}

// resumeState validates the configured Resume snapshot against this census
// and shard count, returning its checkpoint state (nil when not resuming).
func (c *Census) resumeState(n int) (*analysis.CheckpointState, error) {
	if c.Config.Resume == nil {
		return nil, nil
	}
	cp := c.Config.Resume.Checkpoint
	if cp == nil {
		return nil, fmt.Errorf("%w: snapshot carries no checkpoint state (a plain aggregate cannot seed the scan position)", ErrCheckpointMismatch)
	}
	p := c.World.Params
	switch {
	case cp.Seed != p.Seed:
		return nil, fmt.Errorf("%w: seed %d != %d", ErrCheckpointMismatch, cp.Seed, p.Seed)
	case cp.Epoch != p.Epoch:
		return nil, fmt.Errorf("%w: epoch %d != %d", ErrCheckpointMismatch, cp.Epoch, p.Epoch)
	case cp.Scale != p.Scale:
		return nil, fmt.Errorf("%w: scale %d != %d", ErrCheckpointMismatch, cp.Scale, p.Scale)
	case cp.ScanSize != c.World.ScanSize:
		return nil, fmt.Errorf("%w: scan size %d != %d", ErrCheckpointMismatch, cp.ScanSize, c.World.ScanSize)
	case cp.Shards != n:
		return nil, fmt.Errorf("%w: checkpoint has %d shards, resuming with %d", ErrCheckpointMismatch, cp.Shards, n)
	case len(cp.Cursors) != n:
		return nil, fmt.Errorf("%w: %d cursors for %d shards", ErrCheckpointMismatch, len(cp.Cursors), n)
	case cp.ConfigDigest != c.configDigest():
		return nil, fmt.Errorf("%w: measurement configuration changed (digest %#x != %#x)", ErrCheckpointMismatch, cp.ConfigDigest, c.configDigest())
	}
	return cp, nil
}

// configDigest fingerprints every knob beyond (seed, epoch, scale, shards)
// that changes what a census observes; resume refuses a checkpoint whose
// digest differs. Parallelism, retention, and metrics wiring are excluded —
// they change how the run executes, not what it measures.
func (c *Census) configDigest() uint64 {
	h := fnv.New64a()
	cfg := c.Config
	p := c.World.Params
	// PORT validation and certificate collection are always on; their
	// terms stay in the text so digests of older checkpoints still match.
	fmt.Fprintf(h, "retries=%d loss=%g portprobe=true tls=true cap=%d identify=%t idwait=%s enumtimeout=%s enumretry=%+v hostbudget=%s bytebudget=%d",
		cfg.Retries, cfg.LossRate, cfg.RequestCap,
		cfg.Identify, cfg.IdentifyWait, cfg.EnumTimeout, cfg.EnumRetry, cfg.HostBudget, cfg.ByteBudget)
	fmt.Fprintf(h, " hostile=%g faultmix=%+v servicemix=%+v churn=%g/%g/%g",
		p.HostileRate, p.FaultMix, p.ServiceMix, p.ChurnRate, p.UpgradeRate, p.ReallocRate)
	return h.Sum64()
}

// robustState converts the live robustness ledger to its serialized form.
func robustState(r Robustness) analysis.RobustnessState {
	s := analysis.RobustnessState{
		Records:     r.Records,
		Partial:     r.Partial,
		Terminated:  r.Terminated,
		Truncated:   r.Truncated,
		SkippedDirs: r.SkippedDirs,
		Retries:     r.Retries,
		DataBytes:   r.DataBytes,
	}
	if len(r.Failures) > 0 {
		s.Failures = make(map[string]int, len(r.Failures))
		for class, n := range r.Failures {
			s.Failures[class] = n
		}
	}
	return s
}

// robustFromState is the inverse of robustState.
func robustFromState(s analysis.RobustnessState) Robustness {
	r := Robustness{
		Records:     s.Records,
		Partial:     s.Partial,
		Terminated:  s.Terminated,
		Truncated:   s.Truncated,
		SkippedDirs: s.SkippedDirs,
		Retries:     s.Retries,
		DataBytes:   s.DataBytes,
	}
	if len(s.Failures) > 0 {
		r.Failures = make(map[string]int, len(s.Failures))
		for class, n := range s.Failures {
			r.Failures[class] = n
		}
	}
	return r
}
