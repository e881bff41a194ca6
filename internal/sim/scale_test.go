package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/metrics"
	"lips/internal/trace"
	"lips/internal/workload"
)

// scaleStub is the in-package stand-in for the sched.Scale scheduler
// (sched imports sim, so the real one cannot be used here): FIFO job
// order, cursor-based pending scan, best-replica placement.
type scaleStub struct {
	NopNodeEvents
	cursors []int
	head    int // lowest job index that may still have pending work
	// onFill, when set, runs before each node is filled — the kill test
	// uses it to kill running work in the middle of a KickIdleNodes sweep.
	onFill func(s *Sim, n cluster.NodeID)
}

// Name keeps the stub's original label: it is part of the traces that
// TestDispatchGoldens pins.
func (bs *scaleStub) Name() string { return "batch-stub" }
func (bs *scaleStub) Init(s *Sim) {
	bs.cursors = make([]int, len(s.W.Jobs))
	bs.head = 0
}
func (bs *scaleStub) OnJobArrival(s *Sim, job int) {
	bs.cursors[job] = 0
	if job < bs.head {
		bs.head = job
	}
	s.KickIdleNodes()
}
func (bs *scaleStub) OnTaskDone(*Sim, int, int) {}

// OnSlotFree returns in O(1) once the pending backlog is drained, so a
// sweep over many idle nodes does not pay a failed job scan per node.
func (bs *scaleStub) OnSlotFree(s *Sim, n cluster.NodeID) {
	if bs.onFill != nil {
		bs.onFill(s, n)
	}
	if pending, _, _, _ := s.StateCounts(); pending == 0 {
		return
	}
	for s.FreeSlots(n) > 0 {
		job, task, ok := bs.next(s)
		if !ok {
			return
		}
		store := NoStore
		if s.W.Jobs[job].HasInput() {
			store = s.BestReplica(job, task, n)
		}
		if err := s.Launch(job, task, n, store); err != nil {
			bs.cursors[job] = task + 1
			continue
		}
		bs.cursors[job] = task
	}
}

// next mirrors sched.Scale: scan from the head job so a launch costs
// amortized O(1); one full rescan (head and cursors reset) when the
// forward-only cursors miss work re-pended behind them.
func (bs *scaleStub) next(s *Sim) (job, task int, ok bool) {
	for rescan := 0; rescan < 2; rescan++ {
		for j := bs.head; j < len(bs.cursors); j++ {
			if !s.JobArrived(j) {
				continue
			}
			if t := s.NextPending(j, bs.cursors[j]); t >= 0 {
				return j, t, true
			}
			bs.cursors[j] = s.W.Jobs[j].NumTasks
			if j == bs.head {
				bs.head++
			}
		}
		if pending, _, _, _ := s.StateCounts(); pending == 0 {
			return 0, 0, false
		}
		bs.head = 0
		for j := range bs.cursors {
			bs.cursors[j] = 0
		}
	}
	return 0, 0, false
}

// buildScaleRun builds a seed-deterministic random cluster and workload
// of the given size.
func buildScaleRun(nodes, tasks int, seed int64) (*cluster.Cluster, *workload.Workload) {
	rng := rand.New(rand.NewSource(seed))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: nodes})
	w := workload.Random(rng, c.StoreIDs(), workload.RandomSpec{TotalTasks: tasks})
	return c, w
}

func runScaleTrace(t *testing.T, c *cluster.Cluster, w *workload.Workload, sched Scheduler, opts Options, seed int64) ([]byte, *Result) {
	t.Helper()
	p := w.Placement()
	p.Shuffle(rand.New(rand.NewSource(seed+1000)), c.StoreIDs())
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	opts.Tracer = sink
	if opts.SampleIntervalSec == 0 {
		opts.SampleIntervalSec = 120
	}
	r, err := New(c, w, p, sched, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

// TestScaleDeterministic pins the tentpole determinism claim: a 1k-node,
// 100k-task run from a fixed seed produces byte-identical JSONL traces
// across repeated runs.
func TestScaleDeterministic(t *testing.T) {
	nodes, tasks := 1000, 100_000
	if testing.Short() {
		nodes, tasks = 200, 5_000
	}
	c, w := buildScaleRun(nodes, tasks, 7)
	a, ra := runScaleTrace(t, c, w, &scaleStub{}, Options{}, 7)
	b, rb := runScaleTrace(t, c, w, &scaleStub{}, Options{}, 7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed traces differ: run A %d bytes, run B %d bytes", len(a), len(b))
	}
	if ra.TotalCost() != rb.TotalCost() || ra.Makespan != rb.Makespan {
		t.Fatalf("same-seed results differ: %v vs %v", ra, rb)
	}
	if got := ra.Locality.Total(); got != w.TotalTasks() {
		t.Fatalf("launched %d tasks, workload has %d", got, w.TotalTasks())
	}
}

// specStub is a spec-aware greedy scheduler for the dispatch goldens:
// greedy best-replica fill, falling back to speculative execution like
// the Hadoop default.
func specStub() *stubSched {
	ss := &stubSched{name: "spec-stub"}
	ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
		for s.FreeSlots(n) > 0 {
			launched := false
			for _, j := range s.ArrivedJobs() {
				pending := s.PendingTasks(j)
				if len(pending) == 0 {
					continue
				}
				store := NoStore
				if s.W.Jobs[j].HasInput() {
					store = s.BestReplica(j, pending[0], n)
				}
				if err := s.Launch(j, pending[0], n, store); err != nil {
					continue
				}
				launched = true
				break
			}
			if !launched {
				s.LaunchSpeculative(n)
				return
			}
		}
	}
	ss.onArrival = func(s *Sim, _ int) { s.KickIdleNodes() }
	return ss
}

var updateGoldens = flag.Bool("update", false, "rewrite testdata/dispatch_goldens.json from the current simulator")

const dispatchGoldenFile = "testdata/dispatch_goldens.json"

// dispatchGolden fingerprints one dispatch scenario: a digest of the full
// JSONL trace plus the headline results.
type dispatchGolden struct {
	Name         string             `json:"name"`
	TraceSHA256  string             `json:"trace_sha256"`
	TotalCostUC  int64              `json:"total_cost_uc"`
	MakespanBits uint64             `json:"makespan_bits"`
	Faults       metrics.FaultStats `json:"faults"`
}

// TestDispatchGoldens pins the dispatch paths — speculation, crash and
// store-loss replay, idle-node sweeps and sample counters — to traces
// recorded while an alternative full-scan dispatch (and, for
// batch-faults, a batched slot-free callback) still existed and was
// checked byte-identical to the indexed path. Regenerate only for an
// intended behaviour change:
// go test ./internal/sim -run TestDispatchGoldens -update
func TestDispatchGoldens(t *testing.T) {
	c, w := buildScaleRun(64, 2000, 11)
	faults := RandomFaultPlan(11, c, FaultSpec{Crashes: 3, StoreLosses: 2, Slowdowns: 2})

	cases := []struct {
		name  string
		sched func() Scheduler
		opts  Options
	}{
		{"spec-faults", func() Scheduler { return specStub() },
			Options{Speculative: true, Faults: faults}},
		{"batch-faults", func() Scheduler { return &scaleStub{} },
			Options{Faults: faults}},
		{"plain", func() Scheduler { return greedyStub() }, Options{}},
	}
	got := make([]dispatchGolden, len(cases))
	for i, tc := range cases {
		tr, r := runScaleTrace(t, c, w, tc.sched(), tc.opts, 11)
		sum := sha256.Sum256(tr)
		got[i] = dispatchGolden{
			Name:         tc.name,
			TraceSHA256:  hex.EncodeToString(sum[:]),
			TotalCostUC:  int64(r.TotalCost()),
			MakespanBits: math.Float64bits(r.Makespan),
			Faults:       r.Faults,
		}
	}
	if *updateGoldens {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(dispatchGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dispatchGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(dispatchGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []dispatchGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d runs, test produced %d", len(want), len(got))
	}
	for i := range got {
		t.Run(got[i].Name, func(t *testing.T) {
			if got[i] != want[i] {
				t.Errorf("diverged from its golden:\n got  %+v\n want %+v", got[i], want[i])
			}
		})
	}
}

// verifyIndexes recomputes every incremental index from scratch and
// compares it with the live copy — the ground-truth oracle behind
// TestSlotIndexProperty and the churn test.
//
// strict additionally requires every Running task to be tracked in
// s.running. That direction only holds at quiescent points: while a
// completion settles its speculative twin, the losing attempt's kill
// frees a slot and dispatches the scheduler before the task flips to
// Done, so slot-free callbacks can observe a Running task whose attempts
// are already untracked. Callers inside OnSlotFree therefore
// pass strict=false; OnTaskDone and end-of-run use strict=true.
func verifyIndexes(t *testing.T, s *Sim, strict bool) {
	t.Helper()
	freeSlots, liveSlots := 0, 0
	zoneFree := make([]int, len(s.zoneFree))
	for n := range s.nodes {
		ns := &s.nodes[n]
		idle := s.idle[n>>6]&(1<<(uint(n)&63)) != 0
		if idle != (!ns.down && ns.free > 0) {
			t.Fatalf("node %d: idle bit %v, want %v (down=%v free=%d)", n, idle, !idle, ns.down, ns.free)
		}
		if ns.down {
			continue
		}
		freeSlots += ns.free
		liveSlots += s.C.Nodes[n].Slots
		zoneFree[s.nodeZone[n]] += ns.free
	}
	if freeSlots != s.freeSlots || liveSlots != s.liveSlots {
		t.Fatalf("slots: live (%d free, %d total), recomputed (%d, %d)",
			s.freeSlots, s.liveSlots, freeSlots, liveSlots)
	}
	for z := range zoneFree {
		if zoneFree[z] != s.zoneFree[z] {
			t.Fatalf("zone %d: live free %d, recomputed %d", z, s.zoneFree[z], zoneFree[z])
		}
	}

	var stateCount [4]int
	for _, st := range s.states {
		stateCount[st]++
	}
	if stateCount != s.stateCount {
		t.Fatalf("state counts: live %v, recomputed %v", s.stateCount, stateCount)
	}
	unarrived := 0
	for j := range s.jobs {
		if !s.jobs[j].arrived && !s.jobs[j].cancelled {
			unarrived += s.W.Jobs[j].NumTasks
		}
	}
	if unarrived != s.unarrived {
		t.Fatalf("unarrived: live %d, recomputed %d", s.unarrived, unarrived)
	}

	// Per-job pending index: the count is exact and the bound never sits
	// above the job's lowest Pending task.
	for j := range s.jobs {
		base, end := s.taskBase[j], s.taskBase[j+1]
		pending, lowest := 0, int32(-1)
		for f := base; f < end; f++ {
			if TaskState(s.states[f]) == Pending {
				if pending == 0 {
					lowest = f - base
				}
				pending++
			}
		}
		if int32(pending) != s.jobPending[j] {
			t.Fatalf("job %d: live pending count %d, recounted %d", j, s.jobPending[j], pending)
		}
		if pending > 0 && s.pendLow[j] > lowest {
			t.Fatalf("job %d: lowest-pending bound %d above the lowest Pending task %d", j, s.pendLow[j], lowest)
		}
	}
	for _, j := range s.fifo[:s.fifoHead] {
		if s.jobs[j].remaining != 0 {
			t.Fatalf("job %d behind the arrival-order head still has %d tasks", j, s.jobs[j].remaining)
		}
	}

	// Every ref in the running index must point back at itself through the
	// attempt's stored position — the swap-remove fixup invariant.
	for pos, ref := range s.running {
		flat := ref >> 1
		ti := &s.tasks[flat]
		if ref&1 == 1 {
			if ti.spec < 0 || s.specs[ti.spec].runPos != int32(pos) {
				t.Fatalf("running[%d]=spec ref for flat=%d, but stored pos disagrees", pos, flat)
			}
		} else if ti.runPos != int32(pos) {
			t.Fatalf("running[%d]=primary ref for flat=%d, but stored pos %d disagrees", pos, flat, ti.runPos)
		}
	}
	if !strict {
		return
	}
	refs := 0
	for flat := range s.tasks {
		ti := &s.tasks[flat]
		if TaskState(s.states[flat]) == Running {
			refs++
			pos := ti.runPos
			if pos < 0 || pos >= int32(len(s.running)) || s.running[pos] != int32(flat)<<1 {
				t.Fatalf("task flat=%d: primary ref missing from running index (pos=%d)", flat, pos)
			}
		}
		if ti.spec >= 0 {
			refs++
			pos := s.specs[ti.spec].runPos
			if pos < 0 || pos >= int32(len(s.running)) || s.running[pos] != int32(flat)<<1|1 {
				t.Fatalf("task flat=%d: spec ref missing from running index (pos=%d)", flat, pos)
			}
		}
	}
	if refs != len(s.running) {
		t.Fatalf("running index has %d refs, tasks account for %d", len(s.running), refs)
	}
}

// TestSlotIndexProperty drives random launch/kill/crash/recover churn —
// plus progress timeouts, and jobs added and cancelled mid-run through
// the serve-mode API — through the simulator and checks, at every
// scheduler callback and between steps, that the incremental indexes
// agree with recomputed-from-scratch copies. Run under -race in CI (make
// scalesmoke).
func TestSlotIndexProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c, w := buildScaleRun(48, 600, seed)
		faults := RandomFaultPlan(seed, c, FaultSpec{Crashes: 4, StoreLosses: 2, Slowdowns: 2})
		rng := rand.New(rand.NewSource(seed * 97))
		checks := 0
		ss := &stubSched{name: "churn-stub"}
		ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
			verifyIndexes(t, s, false)
			checks++
			for s.FreeSlots(n) > 0 {
				if rng.Intn(10) == 0 {
					return // leave the slot idle this round
				}
				launched := false
				for _, j := range s.ArrivedJobs() {
					pending := s.PendingTasks(j)
					if len(pending) != s.JobPending(j) {
						t.Fatalf("job %d: PendingTasks has %d tasks, JobPending says %d", j, len(pending), s.JobPending(j))
					}
					if len(pending) == 0 {
						continue
					}
					pick := pending[rng.Intn(len(pending))]
					store := NoStore
					if s.W.Jobs[j].HasInput() {
						store = s.BestReplica(j, pick, n)
					}
					if err := s.Launch(j, pick, n, store); err != nil {
						continue
					}
					launched = true
					break
				}
				if !launched {
					s.LaunchSpeculative(n)
					return
				}
			}
		}
		ss.onTaskDone = func(s *Sim, job, task int) {
			verifyIndexes(t, s, true)
			if rng.Intn(5) != 0 {
				return
			}
			// Kill a random running task to churn the indexes.
			for _, j := range s.ArrivedJobs() {
				running := s.RunningTasks(j)
				if len(running) == 0 {
					continue
				}
				if err := s.KillTask(j, running[rng.Intn(len(running))]); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(seed+1000)), c.StoreIDs())
		// A 1 s progress timeout kills every remote read in flight
		// (up to the retry budget), returning tasks to Pending.
		s := New(c, w, p, ss, Options{Speculative: true, Faults: faults, TaskTimeoutSec: 1})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		added, cancelled := 0, 0
		for step := 1; step < 100_000; step++ {
			if err := s.StepUntil(float64(step) * 20); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			verifyIndexes(t, s, true)
			if step > 60 {
				if len(s.events) > 0 {
					continue
				}
				if s.Drained() {
					break
				}
				// The stub never kicks on arrival and may leave
				// slots idle; wake a stalled run the way a serve
				// daemon's next epoch would.
				s.KickIdleNodes()
				continue
			}
			switch rng.Intn(3) {
			case 0:
				indexChurnAddJob(t, s, rng, step)
				added++
			case 1:
				if err := s.CancelJob(rng.Intn(s.NumJobs())); err != nil {
					t.Fatal(err)
				}
				cancelled++
			}
		}
		if !s.Drained() {
			t.Fatalf("seed %d: %d jobs never finished", seed, s.remaining)
		}
		verifyIndexes(t, s, true)
		if checks == 0 || added == 0 || cancelled == 0 {
			t.Fatalf("seed %d: property checked %d times with %d adds and %d cancels",
				seed, checks, added, cancelled)
		}
	}
}

// indexChurnAddJob adds one random job to a live run: an input job on a
// random store or a no-input job, arriving now or a little later (so
// some are cancelled before they arrive).
func indexChurnAddJob(t *testing.T, s *Sim, rng *rand.Rand, step int) {
	t.Helper()
	job := workload.Job{
		Name:       fmt.Sprintf("churn-%d", step),
		User:       "churn",
		ArrivalSec: s.Now() + float64(rng.Intn(3))*15,
	}
	var obj *hdfs.DataObject
	if rng.Intn(2) == 0 {
		job.CPUSecPerMB = 0.1
		obj = &hdfs.DataObject{
			Name:   job.Name,
			SizeMB: float64(1+rng.Intn(12)) * 64,
			Origin: cluster.StoreID(rng.Intn(len(s.C.Stores))),
		}
	} else {
		job.NumTasks = 1 + rng.Intn(12)
		job.CPUSecPerTask = 5
	}
	if _, err := s.AddJob(job, obj); err != nil {
		t.Fatal(err)
	}
}

// TestKillDuringIdleSweep churns KillTask from inside OnSlotFree, which
// a KickIdleNodes sweep calls node by node: killing work on nodes later
// in the same sweep (and re-killing on the node being filled) must leave
// the indexes coherent and the run complete.
func TestKillDuringIdleSweep(t *testing.T) {
	c, w := buildScaleRun(48, 600, 5)
	rng := rand.New(rand.NewSource(5))
	bs := &scaleStub{}
	kills := 0
	bs.onFill = func(s *Sim, n cluster.NodeID) {
		verifyIndexes(t, s, false)
		if rng.Intn(4) != 0 {
			return
		}
		for _, j := range s.ArrivedJobs() {
			running := s.RunningTasks(j)
			if len(running) == 0 {
				continue
			}
			if err := s.KillTask(j, running[rng.Intn(len(running))]); err != nil {
				t.Fatal(err)
			}
			kills++
			break
		}
	}
	p := w.Placement()
	p.Shuffle(rand.New(rand.NewSource(1005)), c.StoreIDs())
	s := New(c, w, p, bs, Options{})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	verifyIndexes(t, s, true)
	if kills == 0 {
		t.Fatal("churn never killed anything; widen the trigger")
	}
	for j := range w.Jobs {
		if got := s.JobRemaining(j); got != 0 {
			t.Fatalf("job %d still has %d tasks after churn", j, got)
		}
	}
}

// TestSteadyStateNoAllocs pins the zero-allocation event loop: with
// tracing and metrics disabled and a cursor-based scheduler, a full
// 50k-task run must stay within a small constant allocation budget —
// no per-event or per-launch garbage. Skipped under -race (the race
// runtime allocates).
func TestSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(3))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: 64})
	wb := workload.NewBuilder()
	wb.AddNoInputJob("steady", "u", 50_000, 30, 0)
	w := wb.Build()

	cursor := 0
	ss := &stubSched{name: "cursor-stub"}
	ss.onArrival = func(s *Sim, _ int) { s.KickIdleNodes() }
	ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
		for s.FreeSlots(n) > 0 {
			tsk := s.NextPending(0, cursor)
			if tsk < 0 {
				return
			}
			if err := s.Launch(0, tsk, n, NoStore); err != nil {
				return
			}
			cursor = tsk
		}
	}
	s := New(c, w, nil, ss, Options{})

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	// Run's fixed overhead (the final Result, job bookkeeping) is allowed;
	// anything growing with the 50k launches/completions is not.
	if allocs > 200 {
		t.Fatalf("steady-state run allocated %d objects for 50k tasks; want ≤200", allocs)
	}
}
