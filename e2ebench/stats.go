package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at. The
// tail is the highest of them that still has at least minBeyond samples
// above it, so a p99 is only claimed from at least 1000 samples.
var tailLadder = []float64{90, 95, 99, 99.9}

const minBeyond = 10

// quantile is one reported percentile: which one, its value and the
// number of samples it was taken from.
type quantile struct {
	P     float64
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples. The epsilon keeps p99.9 of 10000 at 9990, where the float
// product lands a hair above the integer.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond counts the samples above the nearest-rank p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// summarize sorts a copy of values and returns their median and tail:
// the highest percentile of tailLadder with at least minBeyond samples
// beyond it. With too few samples for any of them the tail is the
// median itself.
func summarize(values []float64) (median, tail quantile) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	median = quantile{P: 50, Value: percentile(s, 50), N: n}
	tail = median
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			tail = quantile{P: p, Value: percentile(s, p), N: n}
		}
	}
	return median, tail
}

// medianOf returns the median of values (the mean of the middle two for
// an even count), or NaN when empty.
func medianOf(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts attempted and failed operations of one workload run.
type tally struct {
	Attempted int
	Failed    int
}

// add folds another tally in.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

// frac is failed over attempted (0 when nothing was attempted).
func (t tally) frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// epochTally accounts one LiPS batch run: every planned epoch is an
// operation, and an epoch whose LP errored has no solve recorded. A run
// that returned an error counts all of its epochs as failed (at least
// one, so a run that died before its first epoch still shows).
func epochTally(epochs, solves int, runErr error) tally {
	if runErr != nil {
		if epochs < 1 {
			epochs = 1
		}
		return tally{Attempted: epochs, Failed: epochs}
	}
	return tally{Attempted: epochs, Failed: epochs - solves}
}

// jobTally accounts one batch run of a scheduler without epochs: every
// job is an operation, failed when it is not done at the end. A run
// error fails all of them.
func jobTally(jobs, notDone int, runErr error) tally {
	if runErr != nil {
		return tally{Attempted: jobs, Failed: jobs}
	}
	return tally{Attempted: jobs, Failed: notDone}
}

// submitOutcome classifies one open-loop submission. Status 0 stands for
// a transport error.
type submitOutcome struct {
	Status int
	Done   bool // accepted and seen done after the drain
}

// serveTally accounts the reference phase of serve-open: every
// submission is an operation; it fails on a transport error, on any
// answer but 202 Accepted (429 and 503 sheds and 5xx included), or when
// it was accepted but not done after the drain.
func serveTally(outcomes []submitOutcome) tally {
	t := tally{Attempted: len(outcomes)}
	for _, o := range outcomes {
		if o.Status != 202 || !o.Done {
			t.Failed++
		}
	}
	return t
}

// rung is one fixed-rate step of the serve-open load ladder.
type rung struct {
	Rate        float64 // submissions per second
	SubmitP99MS float64 // due-time submit latency tail
	Sheds       int     // 429 and 503 answers
	Errors      int     // transport errors and other non-202 answers
	Pace        float64 // simulated seconds advanced per wall second ÷ target
	QueueGrowth bool    // the admission queue grew over the window
}

// ladderLimits are the conditions a rung must meet to count as
// sustained.
type ladderLimits struct {
	SubmitP99MS float64
	MinPace     float64
}

// sustained reports whether a rung meets all four conditions: submit
// tail within the limit, no sheds or errors, pace at or above the
// floor, and no queue growth.
func (r rung) sustained(lim ladderLimits) bool {
	return r.SubmitP99MS <= lim.SubmitP99MS && r.Sheds == 0 && r.Errors == 0 &&
		r.Pace >= lim.MinPace && !r.QueueGrowth
}

// maxSustainedRate is serve_max_rps: the highest rate of an ascending
// ladder below its first failing rung. A rate above a failure does not
// count even if it passes, since a daemon past its knee passing by luck
// is noise, not capacity. 0 means the lowest rung already failed.
func maxSustainedRate(rungs []rung, lim ladderLimits) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.sustained(lim) {
			break
		}
		best = r.Rate
	}
	return best
}

// queueGrew reports whether the admission queue depth, sampled evenly
// over a rung's window, rose: the mean over the last quarter of the
// samples exceeds the mean over the first quarter by more than slack
// (one epoch tick's worth of arrivals, which a daemon at pace admits on
// the next tick).
func queueGrew(depths []float64, slack float64) bool {
	q := len(depths) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return mean(depths[len(depths)-q:])-mean(depths[:q]) > slack
}
