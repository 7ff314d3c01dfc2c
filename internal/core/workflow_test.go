package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/certify"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/notify"
	"ftpcloud/internal/simnet"
)

// TestDownstreamWorkflow chains the library the way an operator would:
// census → per-AS disclosure notices → certification audit of a flagged
// host. It exercises the cross-module seams end to end on one world.
func TestDownstreamWorkflow(t *testing.T) {
	census, err := NewCensus(CensusConfig{Seed: 21, Scale: 8192})
	if err != nil {
		t.Fatal(err)
	}
	builder := notify.NewBuilder(census.World.ASDB)
	census.Config.StreamTo = builder
	result, err := census.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Disclosure notices must exist and withhold file names.
	notices := builder.Notices()
	if len(notices) == 0 {
		t.Fatal("census produced no disclosure notices")
	}
	rendered := notify.Render(notices[0])
	if strings.Contains(rendered, ".pst") || strings.Contains(rendered, ".kdbx") {
		t.Error("notice leaked a filename")
	}

	// Pick a flagged anonymous host and audit it; the grade must be F
	// for anything carrying a critical finding.
	var flagged string
	for _, rec := range result.Records {
		if rec.AnonymousOK && rec.PortCheck == dataset.PortNotValidated {
			flagged = rec.IP
			break
		}
	}
	if flagged == "" {
		t.Skip("no bounce-vulnerable host at this scale")
	}
	collector, err := enumerator.NewSimCollector(census.Network, simnet.MustParseIP("250.0.255.2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	auditor := &certify.Auditor{
		Dialer:    simnet.Dialer{Net: census.Network, Src: simnet.MustParseIP("250.0.0.99")},
		Collector: collector,
		Timeout:   5 * time.Second,
	}
	report, err := auditor.Audit(context.Background(), flagged)
	if err != nil {
		t.Fatal(err)
	}
	if report.Grade != "F" {
		t.Errorf("bounce-vulnerable anonymous host graded %s: %+v", report.Grade, report.Failed())
	}
	failedPort := false
	for _, f := range report.Failed() {
		if f.ID == certify.CheckPortValidation {
			failedPort = true
		}
	}
	if !failedPort {
		t.Error("audit did not reproduce the census's PORT finding")
	}
}
