package sched

import (
	"lips/internal/cluster"
	"lips/internal/sim"
)

// Delay is the delay scheduler of Zaharia et al. (EuroSys'10): when the
// job that should run next cannot launch a node-local task on the free
// slot, it briefly yields to later jobs instead of launching a non-local
// task. A job skipped for longer than NodeWaitSec may launch zone-local
// tasks; after an additional ZoneWaitSec it may launch anywhere. The
// paper uses this as its "move computation" baseline — with enough small
// jobs it reaches almost 100% data locality.
type Delay struct {
	sim.NopNodeEvents

	// NodeWaitSec (W1) and ZoneWaitSec (W2) are the locality-relaxation
	// thresholds. The zero value selects 15 s each, in line with the
	// delay-scheduling paper's small multiples of the task length.
	NodeWaitSec float64
	ZoneWaitSec float64

	skippedSince map[int]float64
	// retryArmed marks nodes with a retry wake-up in the heap; retry
	// holds each node's wake-up closure, built on first use so that
	// arming one later allocates nothing.
	retryArmed []bool
	retry      []func()
	jobs       []int // AppendArrivedJobs scratch
}

// NewDelay returns a delay scheduler with the default thresholds.
func NewDelay() *Delay { return &Delay{} }

// Name implements sim.Scheduler.
func (d *Delay) Name() string { return "delay" }

// Init implements sim.Scheduler.
func (d *Delay) Init(s *sim.Sim) {
	if d.NodeWaitSec == 0 {
		d.NodeWaitSec = 15
	}
	if d.ZoneWaitSec == 0 {
		d.ZoneWaitSec = 15
	}
	d.skippedSince = make(map[int]float64)
	d.retryArmed = make([]bool, len(s.C.Nodes))
	d.retry = make([]func(), len(s.C.Nodes))
}

// OnJobArrival implements sim.Scheduler.
func (d *Delay) OnJobArrival(s *sim.Sim, _ int) { s.KickIdleNodes() }

// OnTaskDone implements sim.Scheduler.
func (d *Delay) OnTaskDone(*sim.Sim, int, int) {}

// OnSlotFree implements sim.Scheduler.
func (d *Delay) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	for s.FreeSlots(n) > 0 {
		if !d.assignOne(s, n) {
			if s.LaunchSpeculative(n) {
				continue
			}
			// Every job is currently yielding for locality: retry once
			// its wait expires, or nothing will wake this slot up.
			if pending, _, _, _ := s.StateCounts(); pending > 0 && !d.retryArmed[n] {
				d.armRetry(s, n)
			}
			return
		}
	}
}

// armRetry schedules node n's retry wake-up.
func (d *Delay) armRetry(s *sim.Sim, n cluster.NodeID) {
	d.retryArmed[n] = true
	if d.retry[n] == nil {
		d.retry[n] = func() {
			d.retryArmed[n] = false
			if s.FreeSlots(n) > 0 {
				d.OnSlotFree(s, n)
			}
		}
	}
	s.At(s.Now()+d.NodeWaitSec/2+0.5, d.retry[n])
}

// assignOne scans jobs in FIFO order under the delay rule and launches at
// most one task; it reports whether anything launched.
func (d *Delay) assignOne(s *sim.Sim, n cluster.NodeID) bool {
	now := s.Now()
	d.jobs = s.AppendArrivedJobs(d.jobs[:0])
	for _, j := range d.jobs {
		if s.JobPending(j) == 0 {
			continue
		}
		if !s.W.Jobs[j].HasInput() {
			// No locality concern: launch immediately.
			delete(d.skippedSince, j)
			return s.Launch(j, s.NextPending(j, 0), n, sim.NoStore) == nil
		}
		t, store, rank := bestLocalityTask(s, j, n)
		if rank == 0 {
			delete(d.skippedSince, j)
			return s.Launch(j, t, n, store) == nil
		}
		since, wasSkipped := d.skippedSince[j]
		if !wasSkipped {
			d.skippedSince[j] = now
			continue // yield this opportunity to later jobs
		}
		waited := now - since
		switch {
		case rank == 1 && waited >= d.NodeWaitSec:
			delete(d.skippedSince, j)
			return s.Launch(j, t, n, store) == nil
		case waited >= d.NodeWaitSec+d.ZoneWaitSec:
			delete(d.skippedSince, j)
			return s.Launch(j, t, n, store) == nil
		default:
			continue
		}
	}
	return false
}
