package sched

import (
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/sim"
	"lips/internal/workload"
)

// scaleScenario builds a seed-deterministic random cluster + workload
// sized for the sched-level checks (big enough that the head cursor,
// idle-node sweeps and the rescan fallback all fire).
func scaleScenario(nodes, tasks int, seed int64) (*cluster.Cluster, *workload.Workload) {
	rng := rand.New(rand.NewSource(seed))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: nodes})
	w := workload.Random(rng, c.StoreIDs(), workload.RandomSpec{TotalTasks: tasks})
	return c, w
}

// TestScaleCompletesReproducibly checks that Scale finishes every job
// and that repeated runs reproduce the same numbers. TestGreedyGoldens
// pins the plans themselves.
func TestScaleCompletesReproducibly(t *testing.T) {
	c, w := scaleScenario(96, 3000, 4)
	run := func() *sim.Result {
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(1004)), c.StoreIDs())
		return runSched(t, c, w, p, NewScale(), sim.Options{})
	}
	r := run()
	if r.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	again := run()
	if r.Makespan != again.Makespan || r.TotalCost() != again.TotalCost() || r.Locality != again.Locality {
		t.Errorf("scale run not reproducible: makespan %g vs %g", r.Makespan, again.Makespan)
	}
	for j, done := range r.JobDone {
		if done <= 0 {
			t.Errorf("job %d never finished", j)
		}
	}
}

// TestScaleCompletesUnderFaults drives Scale through random crashes,
// store losses and stragglers: kills re-pend tasks behind the forward
// cursors, so this exercises the full-rescan fallback. Every job must
// finish, and a repeated run must reproduce the same results.
func TestScaleCompletesUnderFaults(t *testing.T) {
	c, w := scaleScenario(64, 2000, 8)
	faults := sim.RandomFaultPlan(8, c, sim.FaultSpec{Crashes: 4, StoreLosses: 2, Slowdowns: 2})
	run := func() *sim.Result {
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(1008)), c.StoreIDs())
		return runSched(t, c, w, p, NewScale(),
			sim.Options{Faults: faults, Speculative: true})
	}
	r := run()
	if r.Faults.NodesCrashed == 0 {
		t.Fatal("fault plan never crashed a node; scenario too small")
	}
	again := run()
	if r.Makespan != again.Makespan || r.TotalCost() != again.TotalCost() || r.Faults != again.Faults {
		t.Errorf("scale run under faults not reproducible: makespan %g vs %g, cost %v vs %v, faults %+v vs %+v",
			r.Makespan, again.Makespan, r.TotalCost(), again.TotalCost(), r.Faults, again.Faults)
	}
	for j, done := range r.JobDone {
		if done <= 0 {
			t.Errorf("job %d never finished under faults", j)
		}
	}
}

// TestScaleChurnPlan reuses the shared churn scenario (crashes, a
// recovery, a store loss, a straggler window) on the paper testbed: the
// large-cluster scheduler must stay correct on small clusters too.
func TestScaleChurnPlan(t *testing.T) {
	run := func() *sim.Result {
		c := mixedCluster()
		w := smallJobSet(rand.New(rand.NewSource(3)), 3)
		return runSched(t, c, w, nil, NewScale(), sim.Options{Faults: churnPlan()})
	}
	r := run()
	if r.Faults.NodesCrashed != 2 || r.Faults.NodesRecovered != 1 || r.Faults.StoresLost != 1 {
		t.Errorf("fault stats = %+v, want 2 crashes / 1 recovery / 1 store loss", r.Faults)
	}
	for j, done := range r.JobDone {
		if done <= 0 {
			t.Errorf("job %d never finished under churn", j)
		}
	}
	again := run()
	if r.Makespan != again.Makespan || r.TotalCost() != again.TotalCost() {
		t.Errorf("churn run not reproducible: makespan %g vs %g", r.Makespan, again.Makespan)
	}
}
