package main

import (
	"errors"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // reversed, so summarize must sort
	}
	return out
}

func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		n        int
		tailP    float64
		tailV    float64
		medianV  float64
		describe string
	}{
		{n: 1000, tailP: 99, tailV: 990, medianV: 500, describe: "p99 has exactly 10 beyond; p99.9 has 1"},
		{n: 999, tailP: 95, tailV: 950, medianV: 500, describe: "p99 has 9 beyond, so it falls to p95"},
		{n: 10000, tailP: 99.9, tailV: 9990, medianV: 5000, describe: "p99.9 has 10 beyond"},
		{n: 100, tailP: 90, tailV: 90, medianV: 50, describe: "p90 has 10 beyond"},
		{n: 19, tailP: 50, tailV: 10, medianV: 10, describe: "no tail percentile qualifies: the tail is the median"},
	} {
		med, tail := summarize(seq(tc.n))
		if med.P != 50 || med.Value != tc.medianV || med.N != tc.n {
			t.Errorf("n=%d: median %+v, want p50=%v of %d", tc.n, med, tc.medianV, tc.n)
		}
		if tail.P != tc.tailP || tail.Value != tc.tailV || tail.N != tc.n {
			t.Errorf("n=%d (%s): tail %+v, want p%v=%v", tc.n, tc.describe, tail, tc.tailP, tc.tailV)
		}
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v, want 2", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v, want 2.5", got)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		got  tally
		want tally
	}{
		{"epochs all solved", epochTally(134, 134, nil), tally{134, 0}},
		{"epochs whose LP errored", epochTally(134, 130, nil), tally{134, 4}},
		{"run error fails every epoch", epochTally(40, 39, boom), tally{40, 40}},
		{"run error before any epoch", epochTally(0, 0, boom), tally{1, 1}},
		{"jobs all done", jobTally(400, 0, nil), tally{400, 0}},
		{"jobs left undone", jobTally(400, 3, nil), tally{400, 3}},
		{"run error fails every job", jobTally(400, 0, boom), tally{400, 400}},
		{"serve outcomes", serveTally([]submitOutcome{
			{Status: 202, Done: true},
			{Status: 202, Done: false}, // accepted, not done after the drain
			{Status: 429},
			{Status: 503},
			{Status: 500},
			{Status: 0}, // transport error
		}), tally{6, 5}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
	var sum tally
	sum.add(tally{100, 1})
	sum.add(tally{300, 3})
	if sum != (tally{400, 4}) || sum.frac() != 0.01 {
		t.Errorf("summed tally %+v frac %v, want {400 4} and 0.01", sum, sum.frac())
	}
	if (tally{}).frac() != 0 {
		t.Error("empty tally frac should be 0")
	}
}

func TestMaxSustainedRate(t *testing.T) {
	lim := ladderLimits{SubmitP99MS: 50, MinPace: 0.9}
	ok := func(rate float64) rung { return rung{Rate: rate, SubmitP99MS: 5, Pace: 1} }
	slow := ok(1000)
	slow.SubmitP99MS = 51
	shed := ok(1000)
	shed.Sheds = 1
	errs := ok(1000)
	errs.Errors = 1
	lag := ok(1000)
	lag.Pace = 0.89
	grow := ok(1000)
	grow.QueueGrowth = true
	for _, tc := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all pass", []rung{ok(250), ok(400), ok(1000)}, 1000},
		{"knee between the last two", []rung{ok(250), ok(400), shed}, 400},
		{"submit tail over the limit", []rung{ok(250), ok(400), slow}, 400},
		{"errors", []rung{ok(250), ok(400), errs}, 400},
		{"pace below the floor", []rung{ok(250), ok(400), lag}, 400},
		{"queue growth", []rung{ok(250), ok(400), grow}, 400},
		{"a pass above a failure does not count", []rung{ok(250), lag, ok(1000)}, 250},
		{"lowest rung fails", []rung{grow}, 0},
	} {
		if got := maxSustainedRate(tc.rungs, lim); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestQueueGrew(t *testing.T) {
	flat := []float64{3, 5, 4, 6, 5, 4, 5, 3}
	if queueGrew(flat, 5) {
		t.Error("a queue hovering at one tick's arrivals is not growing")
	}
	rising := []float64{0, 10, 100, 400, 800, 1200, 1600, 2048}
	if !queueGrew(rising, 25) {
		t.Error("a queue climbing to the cap is growing")
	}
	if queueGrew([]float64{0, 9000}, 1) {
		t.Error("too few samples to judge should not count as growth")
	}
}
