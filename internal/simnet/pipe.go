package simnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// pipeBufSize is the per-direction buffer capacity. Buffering (unlike
// net.Pipe's rendezvous semantics) lets a writer run ahead of a slow reader,
// which is how kernel TCP behaves and what keeps thousands of concurrent
// simulated sessions cheap. See BenchmarkAblationPipe for the measured gap.
const pipeBufSize = 64 * 1024

// ErrTimeout is returned (wrapped in net.OpError-compatible form) when a
// deadline expires.
var ErrTimeout = errors.New("simnet: i/o timeout")

// timeoutError adapts ErrTimeout to the net.Error interface expected by
// callers that check Timeout().
type timeoutError struct{}

func (timeoutError) Error() string   { return "simnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// halfPipe is one direction of a duplex connection: a bounded byte queue
// with blocking reads/writes, close semantics, and deadline support.
type halfPipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte // ring-free: simple slice queue, compacted on read
	closed bool   // write side closed: reads drain then EOF, writes fail

	readDeadline  deadline
	writeDeadline deadline
}

func newHalfPipe() *halfPipe {
	h := &halfPipe{}
	h.cond = sync.NewCond(&h.mu)
	h.readDeadline.wake = h.cond.Broadcast
	h.writeDeadline.wake = h.cond.Broadcast
	return h
}

// deadline manages a single settable deadline; when it fires it wakes
// blocked goroutines so they can observe expiry. Its one timer is created
// on the first arm and re-armed with Reset afterwards, because ftp.Conn
// re-arms a deadline before every read and write and a new timer each time
// would allocate on every control-channel operation. A wake left over from
// an earlier arm is harmless: waiters re-check expired() before returning
// a timeout.
type deadline struct {
	t     time.Time
	timer *time.Timer
	wake  func()
}

func (d *deadline) set(t time.Time) {
	d.t = t
	if t.IsZero() {
		d.stop()
		return
	}
	dur := time.Until(t)
	if dur <= 0 {
		d.stop()
		d.wake()
		return
	}
	if d.timer == nil {
		d.timer = time.AfterFunc(dur, d.wake)
		return
	}
	d.timer.Reset(dur)
}

// stop cancels a pending timer without clearing the deadline itself.
// Called on close: a stopped timer is released from the runtime timer heap
// immediately, instead of pinning the pipe (via the wake closure) until the
// deadline would have fired.
func (d *deadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
	}
}

func (d *deadline) expired() bool {
	return !d.t.IsZero() && !time.Now().Before(d.t)
}

func (h *halfPipe) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for len(p) > 0 {
		switch {
		case h.closed:
			return total, io.ErrClosedPipe
		case h.writeDeadline.expired():
			return total, timeoutError{}
		case len(h.buf) < pipeBufSize:
			n := pipeBufSize - len(h.buf)
			if n > len(p) {
				n = len(p)
			}
			h.buf = append(h.buf, p[:n]...)
			p = p[n:]
			total += n
			h.cond.Broadcast()
		default:
			h.cond.Wait()
		}
	}
	return total, nil
}

func (h *halfPipe) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case len(h.buf) > 0:
			n := copy(p, h.buf)
			rest := copy(h.buf, h.buf[n:])
			h.buf = h.buf[:rest]
			h.cond.Broadcast()
			return n, nil
		case h.closed:
			return 0, io.EOF
		case h.readDeadline.expired():
			return 0, timeoutError{}
		default:
			h.cond.Wait()
		}
	}
}

func (h *halfPipe) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	// Blocked goroutines observe closed before any deadline check, so the
	// pending wake-ups are no longer needed.
	h.readDeadline.stop()
	h.writeDeadline.stop()
	h.cond.Broadcast()
}

func (h *halfPipe) setReadDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.readDeadline.set(t)
}

func (h *halfPipe) setWriteDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.writeDeadline.set(t)
}

// Conn is one endpoint of a simulated TCP connection. It implements
// net.Conn.
type Conn struct {
	rd     *halfPipe // data flowing toward this endpoint
	wr     *halfPipe // data flowing away from this endpoint
	local  Addr
	remote Addr

	closeOnce sync.Once
	onClose   func()
}

var _ net.Conn = (*Conn)(nil)

// NewConnPair builds both endpoints of a connection between two addresses.
func NewConnPair(client, server Addr) (clientEnd, serverEnd *Conn) {
	toServer := newHalfPipe()
	toClient := newHalfPipe()
	clientEnd = &Conn{rd: toClient, wr: toServer, local: client, remote: server}
	serverEnd = &Conn{rd: toServer, wr: toClient, local: server, remote: client}
	return clientEnd, serverEnd
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.rd.read(p) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close tears down both directions, like a TCP RST|FIN from this side.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.rd.close()
		c.wr.close()
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}
