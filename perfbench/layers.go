package main

import (
	"sort"
	"strings"
)

// layerNames is every per-layer metric a traced run reports, grouped by the
// module it measures. A workload that bypasses a layer reports it as zero.
var layerNames = []string{
	"worldgen.lookups", "worldgen.lookup_s",
	"simnet.probes", "simnet.dials", "simnet.dials_failed", "simnet.dials_per_record",
	"zmap.scan_s", "zmap.probes_per_s", "zmap.responded",
	"identify.dials", "identify.shed_ratio", "identify.latency_p50_ms", "identify.latency_p99_ms",
	"enum.hosts", "enum.host_p50_ms", "enum.host_p99_ms", "enum.retries", "enum.retry_useful_ratio",
	"enum.fail.eof", "enum.fail.protocol",
	"enum.dial_p50_ms", "enum.banner_p50_ms", "enum.list_p50_ms", "enum.retr_p50_ms", "enum.cmd_p50_ms",
	"enum.step.login_s", "enum.step.auth_tls_s", "enum.step.list_s", "enum.step.retr_s",
	"enum.step.port_s", "enum.step.meta_s", "enum.backoff_s", "enum.client_s",
	"ftpserver.sessions", "ftpserver.session_p50_ms", "ftpserver.session_p99_ms",
	"ftpserver.cmds", "ftpserver.cmd_s",
	"analysis.fold_us_per_record", "analysis.tables_s",
	"dataset.sink_us_per_record", "dataset.mb_written",
	"report.render_s",
	"attacker.sessions", "attacker.errors", "attacker.inflight_peak",
	"honeypot.events_per_session", "honeypot.quiesce_s", "honeypot.report_s",
	"runtime.gc_cycles", "runtime.gc_cpu_s", "runtime.alloc_mb", "runtime.allocs_m",
	"trace.spans",
}

func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		m[n] = 0
	}
	return m
}

// enumStep maps an enumerator command to the step it belongs to. PASV and
// EPSV open the data channel that LIST and RETR then use; they count as
// listing, where almost all of them happen.
func enumStep(name string) string {
	switch strings.TrimPrefix(name, "cmd.") {
	case "USER", "PASS":
		return "enum.step.login_s"
	case "AUTH":
		return "enum.step.auth_tls_s"
	case "LIST", "MLSD", "NLST", "CWD", "PASV", "EPSV":
		return "enum.step.list_s"
	case "RETR":
		return "enum.step.retr_s"
	case "PORT", "EPRT":
		return "enum.step.port_s"
	}
	return "enum.step.meta_s"
}

// spanLayers derives the server- and enumerator-side layer times from the
// spans. isFTP reports whether a trace's host runs an FTP server.
//
//   - ftpserver.*: connections to FTP servers and the commands they served.
//   - enum.step.*: command spans on enumerator connections, by step.
//   - enum.client_s: self time of enumerator connections — the time inside
//     a connection when no command was being served: the enumerator's own
//     work, its TLS handshake side, and reading the banner.
//   - enum.backoff_s: gaps between consecutive enumerator connections to
//     one host, which is where transport retries sleep.
func spanLayers(l map[string]float64, spans []span, isFTP func(trace uint64) bool) {
	self := selfTimes(spans)
	ftpConn := make([]bool, len(spans))
	var sessionMS []float64
	enumConns := make(map[int32][]int) // root span -> its enumerator connections
	for i, s := range spans {
		if !strings.HasPrefix(s.Name, "conn.") {
			continue
		}
		if isFTP(s.Trace) {
			ftpConn[i] = true
			sessionMS = append(sessionMS, float64(s.End-s.Start)/1e6)
		}
		if s.Name == connSpanName[connEnum] {
			l["enum.client_s"] += float64(self[i]) / 1e9
			if s.Parent >= 0 {
				enumConns[s.Parent] = append(enumConns[s.Parent], i)
			}
		}
	}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "cmd.") {
			continue
		}
		d := float64(s.End-s.Start) / 1e9
		if ftpConn[s.Parent] {
			l["ftpserver.cmds"]++
			l["ftpserver.cmd_s"] += d
		}
		if spans[s.Parent].Name == connSpanName[connEnum] {
			l[enumStep(s.Name)] += d
		}
	}
	for _, conns := range enumConns {
		sort.Slice(conns, func(a, b int) bool { return spans[conns[a]].Start < spans[conns[b]].Start })
		for k := 1; k < len(conns); k++ {
			if gap := spans[conns[k]].Start - spans[conns[k-1]].End; gap > 0 {
				l["enum.backoff_s"] += float64(gap) / 1e9
			}
		}
	}
	sessionMS = sortedFloats(sessionMS)
	l["ftpserver.sessions"] = float64(len(sessionMS))
	l["ftpserver.session_p50_ms"] = exactQuantile(sessionMS, 0.50)
	l["ftpserver.session_p99_ms"] = exactQuantile(sessionMS, 0.99)
	l["trace.spans"] = float64(len(spans))
}
