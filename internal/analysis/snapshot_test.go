package analysis

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// observeAll folds the dataset through a fresh aggregator with the test
// HTTP-join hook.
func observeAll(t *testing.T, in *fixture) *Aggregator {
	t.Helper()
	agg := in.aggregator()
	for _, rec := range in.Records {
		if err := agg.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

// TestSnapshotRoundTrip: every accumulator survives serialize →
// deserialize → merge-into-fresh unchanged — the finalized tables of the
// reconstructed aggregator match the original exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	in := buildInput(t)
	agg := observeAll(t, in)
	want := finalizeAll(agg, in.IPsScanned)

	raw, err := agg.Snapshot().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewAggregator(nil, nil)
	fresh.MergeSnapshot(decoded)
	if fresh.Observed() != agg.Observed() {
		t.Errorf("Observed survives round trip: got %d, want %d", fresh.Observed(), agg.Observed())
	}
	got := finalizeAll(fresh, in.IPsScanned)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-tripped tables diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotMergeWithEmpty: merging an empty aggregator's snapshot in
// either direction changes nothing.
func TestSnapshotMergeWithEmpty(t *testing.T) {
	in := buildInput(t)
	agg := observeAll(t, in)
	want := finalizeAll(agg, in.IPsScanned)

	empty := NewAggregator(nil, nil)
	agg.Merge(empty)
	if got := finalizeAll(agg, in.IPsScanned); !reflect.DeepEqual(got, want) {
		t.Errorf("merging empty into populated changed tables:\n got %+v\nwant %+v", got, want)
	}

	onto := NewAggregator(nil, nil)
	onto.Merge(agg)
	if got := finalizeAll(onto, in.IPsScanned); !reflect.DeepEqual(got, want) {
		t.Errorf("merging populated into empty diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestAggregatorMergeMatchesSingle: partitioning the dataset over several
// aggregators and merging the partials reproduces the single-aggregator
// tables — for every partition width.
func TestAggregatorMergeMatchesSingle(t *testing.T) {
	in := buildInput(t)
	want := finalizeAll(observeAll(t, in), in.IPsScanned)

	for _, parts := range []int{2, 3, 4, 8} {
		aggs := make([]*Aggregator, parts)
		for i := range aggs {
			aggs[i] = in.aggregator()
		}
		for i, rec := range in.Records {
			if err := aggs[i%parts].Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		// Merge in reverse order to prove order independence.
		merged := NewAggregator(nil, nil)
		for i := parts - 1; i >= 0; i-- {
			merged.Merge(aggs[i])
		}
		if merged.Observed() != len(in.Records) {
			t.Errorf("parts=%d: merged Observed = %d, want %d", parts, merged.Observed(), len(in.Records))
		}
		got := finalizeAll(merged, in.IPsScanned)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parts=%d: merged tables diverge from single aggregator:\n got %+v\nwant %+v",
				parts, got, want)
		}
	}
}

// TestSnapshotDecodeCorrupt: damaged bytes surface as ErrCorruptSnapshot,
// never a panic.
func TestSnapshotDecodeCorrupt(t *testing.T) {
	in := buildInput(t)
	valid, err := observeAll(t, in).Snapshot().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":        {},
		"short header": valid[:3],
		"bad magic":    append([]byte("XXXX"), valid[4:]...),
		"bad version":  append(append([]byte{}, valid[:4]...), append([]byte{99}, valid[5:]...)...),
		"truncated":    valid[:len(valid)/2],
		"garbage tail": append(append([]byte{}, valid[:8]...), bytes.Repeat([]byte{0xff}, 64)...),
	}
	for name, raw := range cases {
		if _, err := DecodeSnapshotBytes(raw); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: got %v, want ErrCorruptSnapshot", name, err)
		}
	}

	// Flipping any single byte must never panic; errors are acceptable,
	// silent success only for bytes gob ignores.
	for i := range valid {
		mutated := append([]byte{}, valid...)
		mutated[i] ^= 0x5a
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("byte %d flipped: decode panicked: %v", i, p)
				}
			}()
			_, _ = DecodeSnapshotBytes(mutated)
		}()
	}
}

// FuzzSnapshotDecode: arbitrary bytes must yield either a snapshot or an
// error wrapping ErrCorruptSnapshot — never a panic, never an untyped
// error.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FCAS"))
	f.Add([]byte{'F', 'C', 'A', 'S', 1})
	f.Add([]byte{'F', 'C', 'A', 'S', 1, 0xff, 0x00, 0x42})
	f.Add(bytes.Repeat([]byte{0x7f}, 128))
	var empty Snapshot
	if raw, err := empty.EncodeBytes(); err == nil {
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := DecodeSnapshotBytes(raw)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("decode error is not ErrCorruptSnapshot: %v", err)
			}
			return
		}
		if s == nil {
			t.Error("nil snapshot with nil error")
		}
	})
}
