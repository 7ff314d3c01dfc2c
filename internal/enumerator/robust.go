package enumerator

import (
	"errors"
	"hash/fnv"
	"io"
	"net"
	"strings"
	"time"

	"ftpcloud/internal/ftp"
)

// Failure classes recorded in HostRecord.FailureClass. They partition every
// way a hostile or broken server can end an enumeration, so census-level
// robustness counters can attribute degradation instead of lumping it all
// under "error".
const (
	FailConnect     = "connect"      // dial failed after retries
	FailTimeout     = "timeout"      // a per-command deadline expired
	FailReset       = "reset"        // connection reset mid-session
	FailEOF         = "eof"          // premature EOF mid-reply
	FailProtocol    = "protocol"     // oversized/malformed protocol data
	FailStall       = "stall"        // stalled data channel
	FailBudgetTime  = "budget-time"  // per-host time budget exhausted
	FailBudgetBytes = "budget-bytes" // per-host byte budget exhausted
	FailIO          = "io"           // other transport error
)

// RetryPolicy bounds transport-level retries of transient faults with
// jittered exponential backoff. Retries apply to connection establishment
// (control and data dials; a refusal is final) and to a banner read that
// timed out or was reset — the operations a transient fault can defeat
// without invalidating session state. A banner that ends in EOF, a protocol
// violation or another I/O error is the host's answer and ends the host at
// once: a responder that hangs up or speaks another protocol does the same
// on every dial. Mid-session command failures are never retried blindly:
// replaying a command after an ambiguous failure risks double-counting
// against the request cap and confusing stateful servers.
type RetryPolicy struct {
	// Attempts is the total number of tries (1 = no retry). Zero means
	// the default of 2.
	Attempts int
	// BaseDelay seeds the exponential backoff (default 50ms); attempt i
	// waits BaseDelay << i, half of it jittered.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts == 0 {
		p.Attempts = 2
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the sleep before retry attempt (1-based). The jitter is
// deterministic per (target, attempt) — half fixed, half hashed — so census
// runs reproduce while fleets still decorrelate their retry storms.
func (p RetryPolicy) backoff(target string, attempt int) time.Duration {
	d := p.BaseDelay << uint(attempt-1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	h := fnv.New64a()
	io.WriteString(h, target)
	x := h.Sum64() ^ uint64(attempt)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x ^= x >> 31
	half := uint64(d) / 2
	if half == 0 {
		return d
	}
	return time.Duration(half + x%half)
}

// Budget-exhaustion sentinels surfaced by readData.
var (
	errBudgetTime  = errors.New("enumerator: host time budget exhausted")
	errBudgetBytes = errors.New("enumerator: host byte budget exhausted")
)

// classifyErr maps a transport or protocol error onto a failure class. It is
// transport-agnostic: simnet's injected resets and the kernel's ECONNRESET
// both contain "connection reset", net.Error.Timeout() covers real and
// simulated deadlines, and ftp.ErrProtocol covers hostile framing.
func classifyErr(err error) string {
	if err == nil {
		return ""
	}
	var ne net.Error
	switch {
	case errors.Is(err, errBudgetTime):
		return FailBudgetTime
	case errors.Is(err, errBudgetBytes):
		return FailBudgetBytes
	case errors.As(err, &ne) && ne.Timeout():
		return FailTimeout
	case errors.Is(err, ftp.ErrProtocol):
		return FailProtocol
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return FailEOF
	case strings.Contains(err.Error(), "connection reset"):
		return FailReset
	default:
		return FailIO
	}
}

// budget tracks the per-host time and byte ceilings that mirror the paper's
// ≤500-request cap: a hostile server must not be able to hold a worker
// indefinitely or feed it unbounded data.
type budget struct {
	deadline time.Time // zero = unlimited
	maxBytes int64     // 0 = unlimited
	bytes    int64
}

// timeLeft returns the remaining time budget; ok=false when exhausted.
func (b *budget) timeLeft() (time.Duration, bool) {
	if b.deadline.IsZero() {
		return 0, true
	}
	left := time.Until(b.deadline)
	return left, left > 0
}

// addBytes accounts data-channel bytes; ok=false when the byte budget is
// newly exhausted.
func (b *budget) addBytes(n int64) bool {
	b.bytes += n
	return b.maxBytes == 0 || b.bytes <= b.maxBytes
}

// markDegraded records a degradation on the record: Partial is set and the
// first observed failure class is kept (later, secondary failures usually
// cascade from the first).
func (s *session) markDegraded(class string) {
	s.rec.Partial = true
	if s.rec.FailureClass == "" {
		s.rec.FailureClass = class
	}
}
