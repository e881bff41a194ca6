package sched

import (
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/sim"
	"lips/internal/workload"
)

// BenchmarkDelaySWIM runs one SWIM-400 24 h trace under the delay
// scheduler on the paper's 100-node cluster, placement shuffled — the
// locality-greedy slot-free path at paper scale (Delay.OnSlotFree and
// the simulator's pending-task accessors dominate the profile).
func BenchmarkDelaySWIM(b *testing.B) {
	b.ReportAllocs()
	tasks := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(1))
		c := cluster.Paper100()
		stores := c.StoreIDs()
		w := workload.SWIM(rng, stores, workload.DefaultSWIMSpec())
		p := w.Placement()
		p.Shuffle(rng, stores)
		s := sim.New(c, w, p, NewDelay(), sim.Options{})
		tasks = w.TotalTasks()
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/run")
}
