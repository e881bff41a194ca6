package sched

import (
	"lips/internal/cluster"
	"lips/internal/sim"
)

// Scale is the locality-greedy scheduler specialized for very large
// clusters (the -scale runs): FIFO job order, best-replica placement,
// and no per-decision allocations. Once the backlog is drained each
// OnSlotFree returns in O(1), so a sweep over thousands of idle nodes
// (job arrival, crash recovery) stays cheap, and it walks each job's
// pending tasks with a forward-only cursor (sim.NextPending) instead of
// materializing PendingTasks slices.
//
// The cursor only moves forward, but kills, timeouts, and faults can
// return tasks to Pending behind it. OnSlotFree therefore falls back to
// one full rescan (cursors reset to 0) whenever the cursors find nothing
// and the simulator still reports pending work — correctness never
// depends on the cursor invariant, only the amortized cost does.
type Scale struct {
	sim.NopNodeEvents
	cursors []int // per-job lowest possibly-pending task index
	head    int   // lowest job index that may still have pending work
}

// NewScale returns the large-cluster scheduler.
func NewScale() *Scale { return &Scale{} }

// Name implements sim.Scheduler.
func (sc *Scale) Name() string { return "scale" }

// Init implements sim.Scheduler.
func (sc *Scale) Init(s *sim.Sim) {
	sc.cursors = make([]int, len(s.W.Jobs))
	sc.head = 0
}

// OnJobArrival implements sim.Scheduler.
func (sc *Scale) OnJobArrival(s *sim.Sim, job int) {
	for len(sc.cursors) <= job {
		// Jobs added after Init (serve mode) grow the cursor table.
		sc.cursors = append(sc.cursors, 0)
	}
	sc.cursors[job] = 0
	if job < sc.head {
		sc.head = job // late arrival behind the head re-opens it
	}
	s.KickIdleNodes()
}

// OnTaskDone implements sim.Scheduler.
func (sc *Scale) OnTaskDone(*sim.Sim, int, int) {}

// OnSlotFree implements sim.Scheduler: it launches pending work onto n
// until the node or the backlog is exhausted. A drained backlog costs one
// counter read, not a job scan.
func (sc *Scale) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	if pending, _, _, _ := s.StateCounts(); pending == 0 {
		return
	}
	for s.FreeSlots(n) > 0 {
		job, task, ok := sc.next(s)
		if !ok {
			return
		}
		store := sim.NoStore
		if s.W.Jobs[job].HasInput() {
			store = s.BestReplica(job, task, n)
		}
		if err := s.Launch(job, task, n, store); err != nil {
			// Launch refuses only on scheduler misuse; skip the task so a
			// bug cannot spin the fill loop.
			sc.cursors[job] = task + 1
			continue
		}
		sc.cursors[job] = task
	}
}

// next returns the lowest arrived job's lowest pending task at or after
// its cursor, scanning from the head job so a launch costs amortized
// O(1) instead of a pass over every arrived job. If the scan comes up
// empty while the simulator still counts pending tasks (work re-pended
// behind the head or a cursor by a kill or a crash), head and cursors
// are reset once and the scan repeats.
func (sc *Scale) next(s *sim.Sim) (job, task int, ok bool) {
	for rescan := 0; rescan < 2; rescan++ {
		for j := sc.head; j < len(sc.cursors); j++ {
			if !s.JobArrived(j) {
				continue // may arrive later; OnJobArrival re-opens the head
			}
			if t := s.NextPending(j, sc.cursors[j]); t >= 0 {
				return j, t, true
			}
			sc.cursors[j] = s.W.Jobs[j].NumTasks
			if j == sc.head {
				sc.head++
			}
		}
		pending, _, _, _ := s.StateCounts()
		if pending == 0 {
			return 0, 0, false
		}
		sc.head = 0
		for j := range sc.cursors {
			sc.cursors[j] = 0
		}
	}
	return 0, 0, false
}
