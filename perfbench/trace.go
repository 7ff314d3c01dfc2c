package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftpcloud/internal/simnet"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the tracer started; Parent indexes the tracer's span list (-1 for a root).
// Trace is the span's request identity: the target IP on a census, the
// session number on the honeypot fleet.
type span struct {
	Trace      uint64
	Name       string
	Start, End int64
	Parent     int32
}

// connKind tells a server-side connection's client apart by its source
// address, which is all a handler wrapper sees of the caller.
type connKind uint8

const (
	connEnum connKind = iota
	connIdentify
	connSession
)

var connSpanName = [...]string{
	connEnum:     "conn.enum",
	connIdentify: "conn.identify",
	connSession:  "conn.session",
}

// tracer times the calls a simnet Network makes into its HostProvider and
// the server-side connections the provider's handlers serve. It wraps the
// provider from outside the program: Lookup is timed, PortOpen is delegated
// untouched so the probe fast path is unchanged, and every Handler is
// wrapped so each connection becomes a span with one child span per
// command.
type tracer struct {
	t0 time.Time
	// classify names the client of a connection from its source address.
	classify func(src simnet.IP) connKind
	// bySession keys traces by connection number instead of target IP.
	bySession bool

	lookups  atomic.Int64
	lookupNS atomic.Int64
	sessions atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(classify func(simnet.IP) connKind, bySession bool) *tracer {
	return &tracer{t0: time.Now(), classify: classify, bySession: bySession}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// scanningProvider is what both providers the benchmark wraps implement:
// worldgen.World and simnet.StaticProvider.
type scanningProvider interface {
	simnet.HostProvider
	simnet.PortScanner
}

// wrap returns a provider that behaves exactly like inner but records spans.
func (t *tracer) wrap(inner scanningProvider) simnet.HostProvider {
	return &tracedProvider{inner: inner, tr: t}
}

type tracedProvider struct {
	inner scanningProvider
	tr    *tracer
}

// PortOpen delegates the probe fast path without timing it.
func (p *tracedProvider) PortOpen(ip simnet.IP, port uint16) bool {
	return p.inner.PortOpen(ip, port)
}

// Lookup times the provider's host materialization.
func (p *tracedProvider) Lookup(ip simnet.IP) simnet.Host {
	start := time.Now()
	h := p.inner.Lookup(ip)
	p.tr.lookupNS.Add(int64(time.Since(start)))
	p.tr.lookups.Add(1)
	if h == nil {
		return nil
	}
	return tracedHost{Host: h, ip: ip, tr: p.tr}
}

type tracedHost struct {
	simnet.Host
	ip simnet.IP
	tr *tracer
}

func (h tracedHost) Handler(port uint16) simnet.Handler {
	inner := h.Host.Handler(port)
	if inner == nil {
		return nil
	}
	return simnet.HandlerFunc(func(nw *simnet.Network, conn net.Conn) {
		tc := h.tr.open(conn, h.ip)
		defer tc.finish()
		inner.ServeConn(nw, tc)
	})
}

// open starts a connection span.
func (t *tracer) open(conn net.Conn, target simnet.IP) *tracedConn {
	kind := connSession
	if src, ok := conn.RemoteAddr().(simnet.Addr); ok && t.classify != nil {
		kind = t.classify(src.IP)
	}
	id := uint64(target)
	if t.bySession {
		id = t.sessions.Add(1)
	}
	tc := &tracedConn{Conn: conn, tr: t, cur: -1, lineStart: true}
	tc.spans = append(tc.spans, span{Trace: id, Name: connSpanName[kind], Start: t.now(), Parent: -1})
	return tc
}

// tracedConn is the server side of one connection. A command span runs from
// the read that delivered its verb to the last reply byte written before the
// next verb arrives. After a successful AUTH TLS the bytes are ciphertext, so
// that command's span runs until the connection closes.
type tracedConn struct {
	net.Conn
	tr *tracer

	mu        sync.Mutex
	spans     []span // spans[0] is the connection
	cur       int    // open command span, -1 when none
	lastWrite int64
	lineStart bool
	verb      [4]byte
	verbLen   int
	inVerb    bool
	authSent  bool // AUTH read, reply not yet seen
	encrypted bool
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := c.tr.now()
		c.mu.Lock()
		if !c.encrypted {
			c.scan(b[:n], now)
		}
		c.mu.Unlock()
	}
	return n, err
}

// scan finds the verbs at line starts in bytes the server just read.
func (c *tracedConn) scan(b []byte, now int64) {
	for _, ch := range b {
		switch {
		case ch == '\n':
			c.endVerb(now)
			c.lineStart = true
			continue
		case c.lineStart:
			c.lineStart = false
			c.inVerb = true
			c.verbLen = 0
		}
		if !c.inVerb {
			continue
		}
		if ch == ' ' || ch == '\r' {
			c.endVerb(now)
			continue
		}
		if c.verbLen < len(c.verb) {
			if 'a' <= ch && ch <= 'z' {
				ch -= 'a' - 'A'
			}
			c.verb[c.verbLen] = ch
		}
		c.verbLen++
	}
}

func (c *tracedConn) endVerb(now int64) {
	if !c.inVerb {
		return
	}
	c.inVerb = false
	name := "cmd.other"
	if c.verbLen <= len(c.verb) {
		if n, ok := verbSpanName[string(c.verb[:c.verbLen])]; ok {
			name = n
		}
	}
	c.closeCmd(now)
	c.cur = len(c.spans)
	c.spans = append(c.spans, span{Trace: c.spans[0].Trace, Name: name, Start: now, Parent: 0})
	c.authSent = name == "cmd.AUTH"
}

// closeCmd ends the open command at its last reply byte.
func (c *tracedConn) closeCmd(now int64) {
	if c.cur < 0 {
		return
	}
	s := &c.spans[c.cur]
	s.End = s.Start
	if c.lastWrite > s.Start {
		s.End = c.lastWrite
	}
	if c.encrypted {
		s.End = now
	}
	c.cur = -1
}

func (c *tracedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	now := c.tr.now()
	c.mu.Lock()
	c.lastWrite = now
	if c.authSent && !c.encrypted {
		c.authSent = false
		c.encrypted = len(b) >= 3 && string(b[:3]) == "234"
	}
	c.mu.Unlock()
	return n, err
}

// finish closes the connection span when the handler returns and hands the
// connection's spans to the tracer.
func (c *tracedConn) finish() {
	now := c.tr.now()
	c.mu.Lock()
	if c.encrypted {
		c.closeCmd(now)
	} else {
		c.closeCmd(c.lastWrite)
	}
	c.spans[0].End = now
	spans := c.spans
	c.mu.Unlock()

	t := c.tr
	t.mu.Lock()
	base := int32(len(t.spans))
	for i := range spans {
		if spans[i].Parent >= 0 {
			spans[i].Parent += base
		}
	}
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// verbSpanName interns one span name per FTP verb the clients send.
var verbSpanName = func() map[string]string {
	m := make(map[string]string)
	for _, v := range []string{
		"USER", "PASS", "AUTH", "PBSZ", "PROT", "LIST", "NLST", "MLSD", "CWD", "CDUP",
		"PWD", "PASV", "EPSV", "PORT", "EPRT", "RETR", "STOR", "DELE", "MKD", "RMD",
		"SIZE", "MDTM", "SYST", "FEAT", "HELP", "SITE", "STAT", "TYPE", "NOOP", "QUIT",
		"OPTS", "REST", "ABOR", "GET",
	} {
		m[v] = "cmd." + v
	}
	return m
}()

// Spans returns the recorded spans with a derived root span per trace that
// has more than one connection (a census host dialed by identify and the
// enumerator, or redialed after a retry). Each connection span is re-parented
// under its root, so a root's self time is the gaps between connections.
func (t *tracer) Spans() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	roots := make(map[uint64]int) // trace -> index of its derived root
	conns := make(map[uint64][]int)
	for i, s := range spans {
		if s.Parent == -1 {
			conns[s.Trace] = append(conns[s.Trace], i)
		}
	}
	for id, idx := range conns {
		if len(idx) < 2 {
			continue
		}
		root := span{Trace: id, Name: "host", Start: spans[idx[0]].Start, End: spans[idx[0]].End, Parent: -1}
		for _, i := range idx {
			root.Start = min(root.Start, spans[i].Start)
			root.End = max(root.End, spans[i].End)
		}
		roots[id] = len(spans)
		spans = append(spans, root)
	}
	for _, idx := range conns {
		for _, i := range idx {
			if r, ok := roots[spans[i].Trace]; ok {
				spans[i].Parent = int32(r)
			}
		}
	}
	return spans
}

// selfTimes returns each span's duration minus the time its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, lo), min(spans[k].End, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		curE = max(curE, v[1])
	}
	return total + curE - curS
}

// writeSpans persists the spans as tab-separated lines:
// trace, index, parent, name, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tindex\tparent\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Trace, i, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
