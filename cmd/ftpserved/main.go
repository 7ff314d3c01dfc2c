// Command ftpserved serves one FTP personality on a real TCP socket — the
// interop path for validating the server engine (and the enumerator)
// outside the simulation. A local testbed of diverse implementations was
// exactly how the paper hardened its enumerator.
//
// Usage:
//
//	ftpserved -addr 127.0.0.1:2121 -personality proftpd-1.3.5 -anon -writable
//	ftpserved -addr 127.0.0.1:2121 -max-conns 10000 -progress 5s
//	ftpserved -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/vfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ftpserved: %v\n", err)
		os.Exit(1)
	}
}

// demoFS builds a small example tree for manual testing.
func demoFS() *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm755)
	pub := root.Add(vfs.NewDir("pub", vfs.Perm755))
	pub.Add(vfs.NewFileContent("README", vfs.Perm644,
		[]byte("ftpserved demo server (ftpcloud reproduction toolkit)\n")))
	pub.Add(vfs.NewFileContent("index.html", vfs.Perm644,
		[]byte("<html><body>hello from ftpserved</body></html>\n")))
	photos := pub.Add(vfs.NewDir("photos", vfs.Perm755))
	photos.Add(vfs.NewFile("DSC_0001.jpg", vfs.Perm644, 1_200_000))
	root.Add(vfs.NewDir("incoming", vfs.Perm777))
	return vfs.New(root)
}

// servedProgress renders the periodic -progress line: active connections,
// session admission rate, and shed count.
func servedProgress(w io.Writer, delta, cur obs.Snapshot, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	fmt.Fprintf(w, "progress: conns=%d sessions=%d (%.1f/s) shed=%d cmds=%d logins=%d\n",
		cur.Gauges["ftpserver.active"],
		cur.Counters["ftpserver.sessions"],
		float64(delta.Counters["ftpserver.sessions"])/secs,
		cur.Counters["ftpserver.shed"],
		cur.Counters["ftpserver.commands"],
		cur.Counters["ftpserver.logins"])
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:2121", "listen address")
		persKey  = flag.String("personality", personality.KeyProFTPD135, "implementation profile key")
		anon     = flag.Bool("anon", true, "allow anonymous logins")
		writable = flag.Bool("writable", false, "allow anonymous writes")
		list     = flag.Bool("list", false, "list available personalities and exit")

		driver = flag.String("driver", "vfs",
			"storage backend: vfs (synthetic tree) or mem (in-memory driver)")
		maxConns = flag.Int("max-conns", 0,
			"cap concurrent sessions; excess connections are shed with a 421 (0 = uncapped)")
		maxConnsPerIP = flag.Int("max-conns-per-ip", 0,
			"cap concurrent sessions per remote IP (0 = uncapped)")
		idleTimeout = flag.Duration("idle-timeout", 0,
			"disconnect sessions idle this long (0 = engine default 60s)")
		bwSession = flag.Int64("bw-session", 0,
			"bandwidth cap per session in bytes/s (0 = unshaped)")
		bwGlobal = flag.Int64("bw-global", 0,
			"global bandwidth cap across all sessions in bytes/s (0 = unshaped)")

		xferlog = flag.String("xferlog", "",
			"append transfers to this file in wu-ftpd xferlog(5) format")
		auditJSONL = flag.String("audit-jsonl", "",
			"append every session event (connects, commands, credentials, transfers) to this file as JSON lines")

		progress = flag.Duration("progress", 0,
			"emit a progress line (conns, sessions/s, sheds) to stderr at this interval (0 = off)")
		debugAddr = flag.String("debug-addr", "",
			"serve /debug/pprof, /debug/vars and /metrics on this address")
		metricsOut = flag.String("metrics-out", "",
			"write the final metrics snapshot (JSON) to this file")
	)
	flag.Parse()

	if *list {
		for _, p := range personality.All() {
			model := p.DeviceModel
			if model == "" {
				model = p.Software
			}
			fmt.Printf("%-24s %s\n", p.Key, model)
		}
		return nil
	}

	pers := personality.ByKey(*persKey)
	if pers == nil {
		return fmt.Errorf("unknown personality %q (use -list)", *persKey)
	}

	reg := obs.NewRegistry()
	cfg := ftpserver.Config{
		Pers:                pers,
		HostName:            "ftpserved.local",
		AllowAnonymous:      *anon,
		AnonWritable:        *writable,
		MaxConns:            *maxConns,
		MaxConnsPerIP:       *maxConnsPerIP,
		IdleTimeout:         *idleTimeout,
		BandwidthPerSession: *bwSession,
		BandwidthGlobal:     *bwGlobal,
		Metrics:             reg,
	}
	switch *driver {
	case "vfs":
		cfg.FS = demoFS()
	case "mem":
		cfg.Driver = ftpserver.MemDriverFromFS(demoFS())
	default:
		return fmt.Errorf("unknown driver %q (vfs or mem)", *driver)
	}

	// Audit sinks ride the Observer hook; both flags may combine, and a
	// future honeypot recorder would join the same fan-out.
	var observers []ftpserver.Observer
	for _, sink := range []struct {
		path string
		open func(io.Writer) ftpserver.Observer
	}{
		{*xferlog, func(w io.Writer) ftpserver.Observer { return ftpserver.NewXferlogSink(w) }},
		{*auditJSONL, func(w io.Writer) ftpserver.Observer { return ftpserver.NewJSONLSink(w) }},
	} {
		if sink.path == "" {
			continue
		}
		f, err := os.OpenFile(sink.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		o := sink.open(f)
		defer func(f *os.File, o ftpserver.Observer) {
			if c, ok := o.(io.Closer); ok {
				c.Close()
			}
			f.Close()
		}(f, o)
		observers = append(observers, o)
	}
	cfg.Observer = ftpserver.MultiObserver(observers...)
	srv, err := ftpserver.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, "ftpserved", reg)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "ftpserved: debug endpoints at http://%s/debug/pprof/ and /debug/vars\n", dbg.Addr())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Fprintf(os.Stderr, "ftpserved: %s serving %s (anon=%v writable=%v driver=%s max-conns=%d)\n",
		l.Addr(), *persKey, *anon, *writable, *driver, *maxConns)

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting; in-flight
	// sessions run to completion on their own goroutines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		l.Close()
	}()

	if *progress > 0 {
		rep := &obs.Reporter{Registry: reg, Interval: *progress, Format: servedProgress}
		defer rep.Start(ctx)()
	}
	if *metricsOut != "" {
		defer func() {
			if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "ftpserved: metrics snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "ftpserved: wrote metrics snapshot to %s\n", *metricsOut)
			}
		}()
	}

	if err := srv.Serve(l); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "ftpserved: shutting down")
			return nil
		}
		return err
	}
	return nil
}
