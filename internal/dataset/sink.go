package dataset

import (
	"io"
	"sync"
)

// Sink consumes host records as a census emits them, one at a time. This is
// the streaming counterpart of a record slice: the pipeline pushes each
// record through a sink chain the moment the enumerator finishes a host, so
// nothing forces the whole dataset to stay resident.
//
// Observe is always called from a single goroutine at a time; sinks need no
// internal locking. Close flushes buffered state and releases resources;
// after Close no further Observe calls arrive.
type Sink interface {
	Observe(rec *HostRecord) error
	Close() error
}

// WriterSink streams records to an io.Writer as JSONL. If the underlying
// writer is an io.Closer (a file), Close closes it after flushing.
type WriterSink struct {
	w *Writer
	c io.Closer
}

// NewWriterSink wraps w for streaming persistence.
func NewWriterSink(w io.Writer) *WriterSink {
	s := &WriterSink{w: NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Observe appends one record to the JSONL stream.
func (s *WriterSink) Observe(rec *HostRecord) error { return s.w.Write(rec) }

// Count returns the number of records written so far.
func (s *WriterSink) Count() int { return s.w.Count() }

// Flush pushes buffered records through to the underlying writer without
// closing it. A checkpoint coordinator calls this at quiescence so the
// on-disk ledger contains exactly the records the checkpoint counts. Only
// safe when no Observe is in flight.
func (s *WriterSink) Flush() error { return s.w.Flush() }

// Close flushes the buffer and closes the underlying writer when it is
// closable.
func (s *WriterSink) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Collector retains every record in memory — what a census keeps in
// RetainAll mode, and the natural sink for tests.
type Collector struct {
	Records []*HostRecord
}

// Observe appends the record.
func (c *Collector) Observe(rec *HostRecord) error {
	c.Records = append(c.Records, rec)
	return nil
}

// Close is a no-op.
func (c *Collector) Close() error { return nil }

// Counter counts records, forwarding each to Next when one is set.
type Counter struct {
	Next Sink
	n    int
}

// Observe counts and forwards.
func (c *Counter) Observe(rec *HostRecord) error {
	c.n++
	if c.Next != nil {
		return c.Next.Observe(rec)
	}
	return nil
}

// Count returns how many records were observed.
func (c *Counter) Count() int { return c.n }

// Close closes the forwarding target.
func (c *Counter) Close() error {
	if c.Next != nil {
		return c.Next.Close()
	}
	return nil
}

// Synced adapts a sink for concurrent producers by serializing Observe and
// Close under a mutex. The Sink contract promises one goroutine at a time;
// when several pipelines share one ledger (the sharded census streaming to
// a single JSONL sink), Synced restores that promise at the merge point.
func Synced(s Sink) Sink {
	return &syncedSink{s: s}
}

type syncedSink struct {
	mu sync.Mutex
	s  Sink
}

func (s *syncedSink) Observe(rec *HostRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Observe(rec)
}

func (s *syncedSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Close()
}

// KeepOpen returns a view of s whose Close is a no-op. Sink chains close
// everything they own; when a sink is shared across several chains, each
// chain gets a KeepOpen view and the owner closes the real sink once after
// every chain has finished.
func KeepOpen(s Sink) Sink {
	return keepOpenSink{s: s}
}

type keepOpenSink struct {
	s Sink
}

func (s keepOpenSink) Observe(rec *HostRecord) error { return s.s.Observe(rec) }

func (s keepOpenSink) Close() error { return nil }

// Tee fans every record out to each sink in order. Observe stops at the
// first failing sink; Close closes every sink and reports the first error.
// Flush flushes every sink that has a Flush method, so a checkpoint that
// flushes a tee still reaches the ledger inside it.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return multiSink(sinks)
}

type multiSink []Sink

func (m multiSink) Observe(rec *HostRecord) error {
	for _, s := range m {
		if err := s.Observe(rec); err != nil {
			return err
		}
	}
	return nil
}

func (m multiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m multiSink) Flush() error {
	var first error
	for _, s := range m {
		if f, ok := s.(interface{ Flush() error }); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
