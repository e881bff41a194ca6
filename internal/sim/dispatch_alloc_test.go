package sim_test

import (
	"testing"

	"lips/internal/cluster"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

// greedyAllocRun starts a run of one large input job whose blocks sit
// only on node 0's store, so node 0 reads locally and no other node
// does, and steps it past the arrival: node 0 is full, and the
// scheduler's scratch buffers and maps are warm.
func greedyAllocRun(t *testing.T, sch sim.Scheduler) *sim.Sim {
	t.Helper()
	c := cluster.Paper20(0.5)
	wb := workload.NewBuilder()
	wb.AddInputJob("big", "u", workload.Grep, 4000*64, c.Nodes[0].Store, 0)
	w := wb.Build()
	s := sim.New(c, w, w.Placement(), sch, sim.Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(1); err != nil {
		t.Fatal(err)
	}
	if s.FreeSlots(0) != 0 {
		t.Fatalf("node 0 still has %d free slots after the arrival", s.FreeSlots(0))
	}
	return s
}

// runningOn returns a Running task of job 0 on node n.
func runningOn(t *testing.T, s *sim.Sim, n cluster.NodeID) int {
	t.Helper()
	for task := 0; task < s.W.Jobs[0].NumTasks; task++ {
		if s.TaskState(0, task) == sim.Running && s.TaskNode(0, task) == n {
			return task
		}
	}
	t.Fatalf("no running task on node %d", n)
	return -1
}

// TestGreedySlotFreeNoAllocs pins the allocation-free locality-greedy
// slot-free path. Killing a running task frees its slot, and the
// simulator hands the slot straight back to the scheduler: a warmed-up
// Delay, FIFO or Fair callback that relaunches there, or a Delay
// callback that yields without arming a new retry, must allocate
// nothing. Skipped under -race (the race runtime allocates).
func TestGreedySlotFreeNoAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name string
		sch  func() sim.Scheduler
	}{
		{"delay", func() sim.Scheduler { return sched.NewDelay() }},
		{"fifo", func() sim.Scheduler { return sched.NewFIFO() }},
		{"fair", func() sim.Scheduler { return sched.NewFair() }},
	} {
		t.Run(tc.name+"/launch", func(t *testing.T) {
			s := greedyAllocRun(t, tc.sch())
			n := cluster.NodeID(0) // node-local to every block: Delay never yields here
			launched := s.Locality.Total()
			allocs := testing.AllocsPerRun(50, func() {
				if err := s.KillTask(0, runningOn(t, s, n)); err != nil {
					t.Fatal(err)
				}
			})
			if s.FreeSlots(n) != 0 || s.Locality.Total() != launched+51 {
				t.Fatalf("slot-free callback did not relaunch: %d free slots, %d launches",
					s.FreeSlots(n), s.Locality.Total()-launched)
			}
			if allocs != 0 {
				t.Fatalf("kill + relaunch allocated %.1f objects per slot-free; want 0", allocs)
			}
		})
	}

	t.Run("delay/yield", func(t *testing.T) {
		d := sched.NewDelay()
		s := greedyAllocRun(t, d)
		// Node 1 holds no block. The arrival sweep already started the
		// job's locality wait and armed node 1's retry, so each callback
		// yields the slot and arms nothing.
		n := cluster.NodeID(1)
		if s.FreeSlots(n) == 0 {
			t.Fatal("node 1 has no free slot")
		}
		launched := s.Locality.Total()
		allocs := testing.AllocsPerRun(50, func() { d.OnSlotFree(s, n) })
		if s.Locality.Total() != launched {
			t.Fatalf("Delay launched %d tasks instead of yielding", s.Locality.Total()-launched)
		}
		if allocs != 0 {
			t.Fatalf("yielding slot-free callback allocated %.1f objects; want 0", allocs)
		}
	})
}
