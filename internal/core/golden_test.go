package core

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ftpcloud/internal/worldgen"
)

var update = flag.Bool("update", false, "rewrite the golden table files under testdata/")

// TestGoldenTables pins the full rendered report — every paper table plus
// the identification ledger — for two fixed worlds, so a change anywhere
// between the wire and the renderer that moves a single byte fails here.
// Regenerate with `go test ./internal/core -run TestGoldenTables -update`
// only when a table is meant to change.
func TestGoldenTables(t *testing.T) {
	worlds := []struct {
		file string
		cfg  CensusConfig
	}{
		{"benign.golden", CensusConfig{Seed: 7, Scale: 32768}},
		{"servicemix-identify.golden", withWorld(CensusConfig{
			Seed:         7,
			Scale:        262144,
			Identify:     true,
			IdentifyWait: 150 * time.Millisecond,
			EnumTimeout:  time.Second,
		}, func(p *worldgen.Params) { p.ServiceMix = worldgen.DefaultServiceMix() })},
	}
	for _, w := range worlds {
		t.Run(w.file, func(t *testing.T) {
			w.cfg.RetainRecords = RetainNone
			c, err := NewCensus(w.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := res.ComputeTables().RenderFull()
			path := filepath.Join("testdata", w.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("rendered tables diverge from %s (regenerate with -update only if the change is intended)\n got:\n%s", path, got)
			}
		})
	}
}
