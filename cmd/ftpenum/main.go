// Command ftpenum runs the paper's enumerator against a single real host
// over TCP: anonymous login per RFC 1635, robots.txt compliance, BFS
// directory traversal under the request cap, HELP/FEAT/SITE collection, and
// AUTH TLS certificate grab. Output is one JSON record.
//
// Usage:
//
//	ftpenum [-cap 500] [-delay 500ms] [-timeout 10s] <host>
//
// Only point ftpenum at hosts you are authorized to survey.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/obs"
)

// tcpDialer adapts net.Dialer to the enumerator's Dialer interface.
type tcpDialer struct {
	timeout time.Duration
}

func (d tcpDialer) Dial(network, address string) (net.Conn, error) {
	return net.DialTimeout(network, address, d.timeout)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ftpenum: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		reqCap  = flag.Int("cap", 500, "max protocol requests per connection")
		delay   = flag.Duration("delay", 500*time.Millisecond, "delay between requests (the paper used 2 req/s)")
		timeout = flag.Duration("timeout", 10*time.Second, "per-operation timeout")
		noTLS   = flag.Bool("no-tls", false, "skip the AUTH TLS certificate grab")
		port    = flag.Uint("port", 21, "control-channel port")

		metricsOut = flag.String("metrics-out", "",
			"write per-command latency histograms (JSON snapshot) to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: ftpenum [flags] <host>")
	}
	host := flag.Arg(0)

	// Resolve to an IPv4 address for the record.
	addrs, err := net.LookupHost(host)
	if err != nil {
		return fmt.Errorf("resolving %s: %w", host, err)
	}
	target := ""
	for _, a := range addrs {
		if ip := net.ParseIP(a); ip != nil && ip.To4() != nil {
			target = a
			break
		}
	}
	if target == "" {
		return fmt.Errorf("no IPv4 address for %s", host)
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}

	cfg := enumerator.Config{
		Dialer:       tcpDialer{timeout: *timeout},
		RequestCap:   *reqCap,
		RequestDelay: *delay,
		Timeout:      *timeout,
		TryTLS:       !*noTLS,
		Port:         uint16(*port),
		Metrics:      reg,
	}
	rec := enumerator.Enumerate(context.Background(), cfg, target)

	if *metricsOut != "" {
		if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ftpenum: wrote latency snapshot to %s\n", *metricsOut)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
