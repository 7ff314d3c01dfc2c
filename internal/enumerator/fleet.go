package enumerator

import (
	"context"
	"net"
	"sync"
	"time"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/identify"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// Fleet runs enumerations concurrently over a stream of discovered hosts —
// the paper spreads load "across a large number of widely dispersed hosts";
// here the dispersal is worker goroutines with distinct source addresses.
type Fleet struct {
	// Cfg is the per-host enumeration configuration. Its Dialer is
	// ignored; each worker gets its own source-bound dialer.
	Cfg Config
	// Network is the simulated Internet.
	Network *simnet.Network
	// SourceBase is the first scanner source address; worker i binds
	// SourceBase+i.
	SourceBase simnet.IP
	// Workers is the concurrency; 0 means 32.
	Workers int
	// Metrics, when non-nil, registers fleet-level throughput metrics
	// (enum.hosts, enum.inflight, enum.host_seconds), the enum.retries
	// total, and passes the registry down to each enumeration for
	// per-command latencies and per-class retry counts.
	Metrics *obs.Registry

	// Identify, when non-nil, makes each worker identify its endpoint
	// first (see package identify). A non-FTP endpoint becomes a shed
	// record; an FTP endpoint is enumerated on the same connection, or on
	// a fresh dial if it needed the trigger. Its Dialer is ignored.
	Identify *identify.Config
	// IdentifyWorkers adds workers to the pool when Identify is set; 0
	// means 32. Worker Workers+j binds IdentifySourceBase+j.
	IdentifyWorkers    int
	IdentifySourceBase simnet.IP
	// MetricsPrefix namespaces the identify.* counters per shard
	// ("shard3."); prefixed counters also feed the unprefixed merged view.
	MetricsPrefix string
}

// deliverGrace bounds how long a worker waits to hand over a finished
// record after cancellation before giving up on the consumer.
const deliverGrace = 5 * time.Second

// Run enumerates (or sheds, see Identify) every IP from in, sending records
// to out in completion order. It closes out when done.
//
// Cancellation is graceful with respect to finished work: a record whose
// enumeration completed is still delivered after ctx is cancelled — losing
// it would turn a deadline expiry into data loss. Consumers must therefore
// keep draining out until it closes (the census drain does); a consumer
// that stops reading entirely only delays shutdown by a bounded grace
// period per in-flight worker.
func (f *Fleet) Run(ctx context.Context, in <-chan simnet.IP, out chan<- *dataset.HostRecord) {
	defer close(out)
	workers := f.Workers
	if workers <= 0 {
		workers = 32
	}
	extra := 0
	var idm identifyMetrics
	if f.Identify != nil {
		extra = f.IdentifyWorkers
		if extra <= 0 {
			extra = 32
		}
		idm = newIdentifyMetrics(f.Metrics, f.MetricsPrefix)
	}
	hosts := f.Metrics.Counter("enum.hosts")
	inflight := f.Metrics.Gauge("enum.inflight")
	hostDur := f.Metrics.Histogram("enum.host_seconds", obs.WideBuckets...)
	// Registered up front so a run with no retries reports zero rather
	// than omitting the counter.
	f.Metrics.Counter("enum.retries")
	var wg sync.WaitGroup
	for k := 0; k < workers+extra; k++ {
		src := simnet.IP(uint64(f.SourceBase) + uint64(k))
		if k >= workers {
			src = simnet.IP(uint64(f.IdentifySourceBase) + uint64(k-workers))
		}
		wg.Add(1)
		go func(src simnet.IP) {
			defer wg.Done()
			dialer := simnet.Dialer{Net: f.Network, Src: src}
			cfg := f.Cfg
			cfg.Dialer = dialer
			cfg.Metrics = f.Metrics
			var idcfg identify.Config
			if f.Identify != nil {
				idcfg = *f.Identify
				idcfg.Dialer = dialer
			}
			visit := func(ip string) *dataset.HostRecord {
				var handoff net.Conn
				if f.Identify != nil {
					res, conn := idm.open(ctx, idcfg, ip)
					if res.Protocol != fingerprint.ProtoFTP {
						return shedRecord(res)
					}
					if conn != nil {
						handoff = &replayConn{Conn: conn, prefix: []byte(res.Banner)}
					}
				}
				inflight.Inc()
				start := time.Now()
				rec := enumerate(ctx, cfg, ip, handoff)
				hostDur.Since(start)
				inflight.Dec()
				hosts.Inc()
				return rec
			}
			for {
				select {
				case <-ctx.Done():
					return
				case ip, ok := <-in:
					if !ok {
						return
					}
					rec := visit(ip.String())
					select {
					case out <- rec:
					case <-ctx.Done():
						// The work is done; give the consumer a
						// bounded window to take the record before
						// dropping it.
						t := time.NewTimer(deliverGrace)
						select {
						case out <- rec:
							t.Stop()
						case <-t.C:
						}
						return
					}
				}
			}
		}(src)
	}
	wg.Wait()
}

// identifyMetrics is the identification ledger: identify.dials,
// identify.passed, identify.shed, identify.triggered, identify.errors and
// identify.handoffs as per-shard child counters, and the identify.latency
// histogram.
type identifyMetrics struct {
	dials, passed, shed, triggered, errors, handoffs *obs.Counter
	latency                                          *obs.Histogram
}

func newIdentifyMetrics(reg *obs.Registry, prefix string) identifyMetrics {
	return identifyMetrics{
		dials:     reg.ChildCounter(prefix, "identify.dials"),
		passed:    reg.ChildCounter(prefix, "identify.passed"),
		shed:      reg.ChildCounter(prefix, "identify.shed"),
		triggered: reg.ChildCounter(prefix, "identify.triggered"),
		errors:    reg.ChildCounter(prefix, "identify.errors"),
		handoffs:  reg.ChildCounter(prefix, "identify.handoffs"),
		latency:   reg.Histogram("identify.latency", obs.DefaultLatencyBuckets...),
	}
}

// open runs identify.Open on one endpoint and records the outcome.
func (m identifyMetrics) open(ctx context.Context, cfg identify.Config, ip string) (identify.Result, net.Conn) {
	start := time.Now()
	res, conn := identify.Open(ctx, cfg, ip)
	m.latency.Since(start)
	m.dials.Inc()
	if res.Triggered {
		m.triggered.Inc()
	}
	if res.Err != nil {
		m.errors.Inc()
	}
	if res.Protocol != fingerprint.ProtoFTP {
		m.shed.Inc()
		return res, nil
	}
	m.passed.Inc()
	if conn != nil {
		m.handoffs.Inc()
	}
	return res, conn
}

// shedRecord is the ledger record of an endpoint identification shed. It has
// the shape enumeration records for a non-FTP host (PortOpen set, FTP false),
// so the discovery funnel counts it the same; only Service tells them apart.
func shedRecord(res identify.Result) *dataset.HostRecord {
	return &dataset.HostRecord{
		IP:       res.IP,
		PortOpen: true,
		Banner:   res.Banner,
		Service:  string(res.Protocol),
	}
}

// SimCollector is the third-party endpoint used by the PORT-validation
// probe: a listener on the simulated network recording which server
// addresses connected to it.
type SimCollector struct {
	listener *simnet.Listener
	addr     ftp.HostPort

	mu   sync.Mutex
	cond *sync.Cond
	seen map[string]bool
	done bool
}

// NewSimCollector binds a collector at ip:port on the network and starts
// accepting.
func NewSimCollector(nw *simnet.Network, ip simnet.IP, port uint16) (*SimCollector, error) {
	l, err := nw.Listen(ip, port)
	if err != nil {
		return nil, err
	}
	bound := l.Addr().(simnet.Addr)
	c := &SimCollector{
		listener: l,
		addr:     ftp.HostPort{IP: ip.Octets(), Port: bound.Port},
		seen:     make(map[string]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.acceptLoop()
	return c, nil
}

func (c *SimCollector) acceptLoop() {
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			c.mu.Lock()
			c.done = true
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		remote := conn.RemoteAddr().(simnet.Addr)
		c.mu.Lock()
		c.seen[remote.IP.String()] = true
		c.cond.Broadcast()
		c.mu.Unlock()
		// Drain politely then drop: the bounced payload is irrelevant,
		// only the connection's existence matters.
		go func() {
			buf := make([]byte, 4096)
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			for {
				if _, err := conn.Read(buf); err != nil {
					break
				}
			}
			conn.Close()
		}()
	}
}

// Addr implements Collector.
func (c *SimCollector) Addr() ftp.HostPort { return c.addr }

// Saw implements Collector: it waits up to the window for serverIP to
// connect.
func (c *SimCollector) Saw(serverIP string, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.seen[serverIP] {
			return true
		}
		if c.done || !time.Now().Before(deadline) {
			return false
		}
		c.cond.Wait()
	}
}

// Close stops the collector.
func (c *SimCollector) Close() error { return c.listener.Close() }
