package main

import (
	"testing"
)

// The epoch markers must bracket every planning tick (one span per
// planned epoch, none empty) without changing the plan: the traced run
// reproduces the untraced run's cost and job time exactly.
func TestEpochMarkersBracketTicks(t *testing.T) {
	spec := batchSpec{Jobs: 30, Hours: 2, EpochSec: 600}
	plain, err := runOnce(setupBatch(spec, 5), false)
	if err != nil {
		t.Fatal(err)
	}
	bs := setupBatch(spec, 5)
	traced, err := runOnce(bs, true)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Cost != plain.Cost || traced.JobSec != plain.JobSec {
		t.Errorf("traced run gave cost %v job time %v, untraced %v %v",
			traced.Cost, traced.JobSec, plain.Cost, plain.JobSec)
	}
	if n := len(traced.Epochs); n == 0 || n != bs.lips.Epochs {
		t.Fatalf("%d epoch spans for %d planned epochs", n, bs.lips.Epochs)
	}
	for i, d := range traced.Epochs {
		if d <= 0 {
			t.Errorf("epoch %d span %v ms, want > 0", i, d)
		}
	}
	if traced.Tally != (tally{Attempted: bs.lips.Epochs}) {
		t.Errorf("tally %+v, want %d epochs and no failures", traced.Tally, bs.lips.Epochs)
	}
}
