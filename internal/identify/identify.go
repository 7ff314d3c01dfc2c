// Package identify is the census pipeline's middle stage: LZR-style
// service identification ("LZR: Identifying Unexpected Internet Services").
// Discovery only proves a port accepts connections; a large share of those
// endpoints speak something other than the expected protocol, or nothing at
// all. Burning a full enumeration slot — connection, banner timeout, login
// attempts, retries — on every such endpoint is the cost LZR eliminated:
// identify reads only the first response bytes off a fresh connection
// (waiting briefly for a server-first banner, then sending one minimal
// trigger for client-first protocols), fingerprints the protocol, and
// routes. An FTP endpoint that greeted unprompted keeps its connection: Open
// hands it to the enumerator with the banner bytes already read, so the host
// is dialed once. Everything else is recorded and shed after exactly one
// connection and at most one trigger round-trip.
package identify

import (
	"context"
	"net"
	"time"

	"ftpcloud/internal/fingerprint"
)

// Dialer abstracts connection establishment, mirroring enumerator.Dialer so
// the stage runs over the simulated network or real sockets.
type Dialer interface {
	Dial(network, address string) (net.Conn, error)
}

// Defaults.
const (
	// DefaultBannerWait is how long identify waits for a server-first
	// banner before concluding the protocol is client-first (or silent)
	// and sending the trigger.
	DefaultBannerWait = 2 * time.Second
	// DefaultMaxBytes caps how much of the first response is read — LZR's
	// economy is reading a handshake, not a payload.
	DefaultMaxBytes = 256
)

// trigger is the one probe sent to endpoints that stay quiet: a minimal
// HTTP request. Client-first protocols answer it in kind (HTTP with a
// response line, TLS with an alert record), and anything that stays silent
// through both windows is shed as dead air.
var trigger = []byte("GET / HTTP/1.0\r\n\r\n")

// Config parameterizes identification.
type Config struct {
	// Dialer establishes connections. Required.
	Dialer Dialer
	// BannerWait bounds the wait for server-first bytes; zero means
	// DefaultBannerWait. The same window bounds the post-trigger read.
	BannerWait time.Duration
	// MaxBytes caps the first-response read; zero means DefaultMaxBytes.
	MaxBytes int
}

// Result is one endpoint's identification outcome.
type Result struct {
	// IP is the endpoint.
	IP string
	// Protocol is the sniffed wire protocol: ProtoFTP routes to the
	// enumerator, everything else is shed. ProtoNone covers silent
	// accepts and endpoints whose connection failed outright.
	Protocol fingerprint.Protocol
	// Banner holds the first response bytes (at most MaxBytes).
	Banner string
	// Triggered reports that the endpoint stayed quiet through the
	// banner window and was probed with the minimal trigger.
	Triggered bool
	// Err records a connection-level failure (dial error); the endpoint
	// is shed as ProtoNone.
	Err error
}

// Identify classifies one endpoint with a single connection: wait for a
// banner, else send the trigger, sniff whatever came back first. The
// connection is closed before it returns.
func Identify(ctx context.Context, cfg Config, ip string) Result {
	res, conn := Open(ctx, cfg, ip)
	if conn != nil {
		conn.Close()
	}
	return res
}

// Open is Identify that keeps the connection when it is worth keeping: an
// endpoint that sniffed as FTP without the trigger is returned live, its
// read deadline cleared. The server has then seen no bytes from us, and
// Result.Banner holds every byte read off the connection, so an FTP client
// continues the session by replaying Banner ahead of it. In every other case
// the connection is closed and Open returns nil.
func Open(ctx context.Context, cfg Config, ip string) (Result, net.Conn) {
	res := Result{IP: ip, Protocol: fingerprint.ProtoNone}
	wait := cfg.BannerWait
	if wait <= 0 {
		wait = DefaultBannerWait
	}
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}

	conn, err := cfg.Dialer.Dial("tcp", net.JoinHostPort(ip, "21"))
	if err != nil {
		res.Err = err
		return res, nil
	}
	if d, ok := ctx.Deadline(); ok && time.Until(d) < wait {
		wait = time.Until(d)
	}
	sniff(conn, wait, maxBytes, &res)
	if res.Protocol != fingerprint.ProtoFTP || res.Triggered {
		conn.Close()
		return res, nil
	}
	conn.SetReadDeadline(time.Time{})
	return res, conn
}

// sniff reads the endpoint's first response off conn into res: the banner
// if one arrives within wait, else the answer to the trigger.
func sniff(conn net.Conn, wait time.Duration, maxBytes int, res *Result) {
	buf := make([]byte, maxBytes)
	conn.SetReadDeadline(time.Now().Add(wait))
	n, readErr := conn.Read(buf)
	if n == 0 {
		// Quiet so far: either client-first or dead air. One trigger
		// round-trip decides which — unless the peer already hung up.
		if readErr != nil && !isTimeout(readErr) {
			return
		}
		res.Triggered = true
		if _, err := conn.Write(trigger); err != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(wait))
		n, _ = conn.Read(buf)
		if n == 0 {
			return
		}
	}
	// A dripping peer's first chunk can be a byte or two — too short to
	// tell a sliced "2" from real garbage. Keep reading within the window
	// only while the evidence is that thin; decisive openings (any known
	// protocol, or enough bytes to call garbage honestly) return at once.
	for n < maxBytes && indecisive(buf[:n]) {
		conn.SetReadDeadline(time.Now().Add(wait))
		m, err := conn.Read(buf[n:])
		n += m
		if m == 0 || err != nil {
			break
		}
	}
	res.Banner = string(buf[:n])
	res.Protocol = fingerprint.SniffProtocol(buf[:n])
}

// indecisive reports that the bytes so far are both unrecognized and too few
// to rule a protocol out — the only case worth waiting for more.
func indecisive(b []byte) bool {
	return len(b) < 8 && fingerprint.SniffProtocol(b) == fingerprint.ProtoGarbage
}

// isTimeout reports whether a read error is a deadline expiry rather than a
// closed connection.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
