// Command ftpcertify runs the §X "CyberUL"-style certification battery
// against one real FTP host over TCP: anonymous login, anonymous write,
// PORT validation, default credentials, banner CVEs, FTPS availability,
// and internal-address leaks.
//
// Usage:
//
//	ftpcertify [-timeout 10s] <host>
//
// Only point ftpcertify at devices you own or are authorized to test: the
// battery includes login and upload probes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"ftpcloud/internal/certify"
	"ftpcloud/internal/obs"
)

type tcpDialer struct{ timeout time.Duration }

func (d tcpDialer) Dial(network, address string) (net.Conn, error) {
	return net.DialTimeout(network, address, d.timeout)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ftpcertify: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	timeout := flag.Duration("timeout", 10*time.Second, "per-operation timeout")
	metricsOut := flag.String("metrics-out", "",
		"write audit timing (JSON snapshot) to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: ftpcertify [flags] <host>")
	}
	auditor := &certify.Auditor{
		Dialer:  tcpDialer{timeout: *timeout},
		Timeout: *timeout,
	}
	reg := obs.NewRegistry()
	start := time.Now()
	report, err := auditor.Audit(context.Background(), flag.Arg(0))
	reg.Histogram("certify.audit_seconds", obs.WideBuckets...).Since(start)
	if *metricsOut != "" {
		if werr := reg.Snapshot().WriteFile(*metricsOut); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "ftpcertify: wrote timing snapshot to %s\n", *metricsOut)
	}
	if err != nil {
		return err
	}
	fmt.Print(certify.Render(report))
	if report.Grade == "F" {
		os.Exit(2)
	}
	return nil
}
