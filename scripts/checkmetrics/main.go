// Command checkmetrics validates a metrics snapshot that -metrics-out wrote
// for a census of a benign world: it must parse as an obs.Snapshot, carry
// non-zero pipeline counters whose ledgers balance (every observed record
// was enumerated or shed by identification), report enum.retries as 0 (in
// a benign world nothing is transient, so a retry is backoff spent on an
// answer), and include populated enumerator latency histograms, the TLS
// handshake's among them. Used by scripts/smoke.sh.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"ftpcloud/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "checkmetrics: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) != 2 {
		return fmt.Errorf("usage: checkmetrics <snapshot.json>")
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("parsing snapshot: %w", err)
	}
	if snap.Empty() {
		return fmt.Errorf("snapshot is empty")
	}
	for _, name := range []string{"zmap.probed", "zmap.responded", "census.observed", "enum.hosts"} {
		if snap.Counters[name] == 0 {
			return fmt.Errorf("counter %s missing or zero", name)
		}
	}
	c := snap.Counters
	if c["census.observed"] != c["enum.hosts"]+c["identify.shed"] {
		return fmt.Errorf("census.observed=%d disagrees with enum.hosts=%d + identify.shed=%d",
			c["census.observed"], c["enum.hosts"], c["identify.shed"])
	}
	if c["identify.dials"] != c["identify.passed"]+c["identify.shed"] {
		return fmt.Errorf("identify.dials=%d disagrees with identify.passed=%d + identify.shed=%d",
			c["identify.dials"], c["identify.passed"], c["identify.shed"])
	}
	if retries, ok := c["enum.retries"]; !ok {
		return fmt.Errorf("counter enum.retries missing")
	} else if retries != 0 {
		return fmt.Errorf("enum.retries=%d in a benign world, want 0", retries)
	}
	if c["identify.handoffs"] > c["identify.passed"] {
		return fmt.Errorf("identify.handoffs=%d exceeds identify.passed=%d", c["identify.handoffs"], c["identify.passed"])
	}
	for _, name := range []string{"enum.latency.dial", "enum.latency.banner", "enum.latency.list", "enum.latency.tls", "enum.host_seconds"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			return fmt.Errorf("histogram %s missing or empty", name)
		}
	}
	fmt.Printf("checkmetrics: %d counters, %d gauges, %d histograms; %d hosts enumerated\n",
		len(snap.Counters), len(snap.Gauges), len(snap.Histograms), snap.Counters["enum.hosts"])
	return nil
}
