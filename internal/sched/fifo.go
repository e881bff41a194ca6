// Package sched implements the task schedulers the paper evaluates:
// the Hadoop default FIFO locality-greedy scheduler, the delay scheduler
// (Zaharia et al., EuroSys'10), the Facebook fair scheduler, and LiPS
// itself (epoch-driven LP co-scheduling of data and tasks).
package sched

import (
	"lips/internal/cluster"
	"lips/internal/sim"
)

// FIFO is Hadoop's default scheduler: jobs run in arrival order; when a
// TaskTracker frees a slot the JobTracker greedily picks, from the oldest
// job with pending work, the task whose data is closest to the tracker
// (node-local, then same zone, then remote).
type FIFO struct {
	sim.NopNodeEvents
	jobs []int // AppendArrivedJobs scratch
}

// NewFIFO returns the Hadoop default scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements sim.Scheduler.
func (f *FIFO) Name() string { return "hadoop-default" }

// Init implements sim.Scheduler.
func (f *FIFO) Init(*sim.Sim) {}

// OnJobArrival implements sim.Scheduler.
func (f *FIFO) OnJobArrival(s *sim.Sim, _ int) { s.KickIdleNodes() }

// OnTaskDone implements sim.Scheduler.
func (f *FIFO) OnTaskDone(*sim.Sim, int, int) {}

// OnSlotFree implements sim.Scheduler: serve the oldest job's
// best-locality pending task; fall back to speculative execution.
func (f *FIFO) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	for s.FreeSlots(n) > 0 {
		f.jobs = s.AppendArrivedJobs(f.jobs[:0])
		job, task, store, ok := oldestJobBestTask(s, f.jobs, n)
		if !ok {
			s.LaunchSpeculative(n)
			return
		}
		if err := s.Launch(job, task, n, store); err != nil {
			return
		}
	}
}

// oldestJobBestTask finds, in FIFO order, the first of the arrived jobs
// with pending tasks and its best-locality task for node n.
func oldestJobBestTask(s *sim.Sim, jobs []int, n cluster.NodeID) (job, task int, store cluster.StoreID, ok bool) {
	for _, j := range jobs {
		if s.JobPending(j) == 0 {
			continue
		}
		t, st, _ := bestLocalityTask(s, j, n)
		return j, t, st, true
	}
	return 0, 0, 0, false
}

// bestLocalityTask picks the pending task of job j whose input is closest
// to n (ties to the lowest index) and returns its locality rank. The job
// must have a pending task. Jobs without input return their lowest
// pending task, NoStore and rank 0. The walk visits pending tasks in
// ascending order through NextPending and stops at the first node-local
// one.
func bestLocalityTask(s *sim.Sim, j int, n cluster.NodeID) (int, cluster.StoreID, int) {
	t := s.NextPending(j, 0)
	if !s.W.Jobs[j].HasInput() {
		return t, sim.NoStore, 0
	}
	bestT, bestStore, bestRank := -1, cluster.StoreID(0), 4
	for ; t >= 0; t = s.NextPending(j, t+1) {
		store, rank := s.BestReplicaRank(j, t, n)
		if rank < bestRank {
			bestT, bestStore, bestRank = t, store, rank
			if rank == 0 {
				break
			}
		}
	}
	return bestT, bestStore, bestRank
}
