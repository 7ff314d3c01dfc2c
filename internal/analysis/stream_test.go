package analysis

import (
	"reflect"
	"testing"
)

// tableSet bundles every finalized analysis for equality comparison.
type tableSet struct {
	Funnel           Funnel
	Classification   Classification
	ASConcentration  ASConcentration
	Devices          DeviceBreakdown
	TopASes          []TopAS
	Exposure         Exposure
	ExposureByDevice ExposureByDevice
	CVEs             CVEExposure
	Malicious        Malicious
	PortBounce       PortBounce
	FTPS             FTPS
}

func finalizeAll(agg *Aggregator, ipsScanned uint64) tableSet {
	return tableSet{
		Funnel:           agg.Funnel(ipsScanned),
		Classification:   agg.Classification(),
		ASConcentration:  agg.ASConcentration(),
		Devices:          agg.Devices(),
		TopASes:          agg.TopASes(10),
		Exposure:         agg.Exposure(),
		ExposureByDevice: agg.ExposureByDevice(),
		CVEs:             agg.CVEs(),
		Malicious:        agg.Malicious(),
		PortBounce:       agg.PortBounce(),
		FTPS:             agg.FTPS(10),
	}
}

// TestAggregatorOrderIndependent folds the hand-built dataset forward and
// in reverse and demands identical tables: the census drains records in
// whatever order the enumerator fleet finishes them, so no accumulator may
// depend on arrival order.
func TestAggregatorOrderIndependent(t *testing.T) {
	in := buildInput(t)
	forward := observeAll(t, in)
	agg := in.aggregator()
	for i := len(in.Records) - 1; i >= 0; i-- {
		if err := agg.Observe(in.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if agg.Observed() != len(in.Records) {
		t.Errorf("Observed = %d, want %d", agg.Observed(), len(in.Records))
	}
	got := finalizeAll(agg, in.IPsScanned)
	want := finalizeAll(forward, in.IPsScanned)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reverse-order tables diverge from forward-order tables:\n got %+v\nwant %+v", got, want)
	}

	// Finalize is pure: a second pass must be identical.
	again := finalizeAll(agg, in.IPsScanned)
	if !reflect.DeepEqual(got, again) {
		t.Error("second finalize diverges — finalize mutated accumulator state")
	}

	// Close drops hooks but keeps finalize working.
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, finalizeAll(agg, in.IPsScanned)) {
		t.Error("finalize after Close diverges")
	}
}

// TestAggregatorEmpty: an aggregator that observed nothing must finalize
// exactly like one rebuilt from an empty snapshot — the empty state has one
// canonical form, whichever way a shard or resume arrives at it.
func TestAggregatorEmpty(t *testing.T) {
	agg := NewAggregator(nil, nil)
	raw, err := NewAggregator(nil, nil).Snapshot().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewAggregator(nil, nil)
	restored.MergeSnapshot(snap)
	got := finalizeAll(agg, 10)
	want := finalizeAll(restored, 10)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty aggregate diverges:\n got %+v\nwant %+v", got, want)
	}
}
