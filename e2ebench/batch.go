package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/metrics"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

// batchSpec is a batch workload: SWIM jobs on the paper's 100-node
// cluster, run to completion by sim.Run.
type batchSpec struct {
	Jobs     int
	Hours    float64 // SWIM arrival window
	EpochSec float64 // LiPS epoch; 0 selects the delay scheduler
}

// batchInstances is how many SWIM traces one invocation runs, each from
// its own seed derived from --seed. Traces differ a lot in task count
// and cost from seed to seed, so a run reports over several of them to
// keep the seed-to-seed spread of its metrics below their bounds.
const batchInstances = 24

var (
	swim24hE600  = batchSpec{Jobs: 400, Hours: 24, EpochSec: 600}
	swim6hE1600  = batchSpec{Jobs: 400, Hours: 6, EpochSec: 1600}
	swim24hDelay = batchSpec{Jobs: 400, Hours: 24}
)

// instanceSeeds derives the per-trace seeds of one invocation.
func instanceSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// batchSetup is one ready-to-run simulation.
type batchSetup struct {
	s     *sim.Sim
	lips  *sched.LiPS // nil for the delay scheduler
	tasks int
}

// setupBatch builds the cluster, the SWIM workload, its shuffled
// placement, the scheduler and the simulator for one trace seed.
func setupBatch(b batchSpec, seed int64) batchSetup {
	rng := rand.New(rand.NewSource(seed))
	c := cluster.Paper100()
	stores := c.StoreIDs()
	w := workload.SWIM(rng, stores, workload.SWIMSpec{Jobs: b.Jobs, DurationSec: b.Hours * 3600})
	p := w.Placement()
	p.Shuffle(rng, stores)
	var (
		s    sim.Scheduler
		lips *sched.LiPS
		opts sim.Options
	)
	if b.EpochSec > 0 {
		lips = sched.NewLiPS(b.EpochSec)
		s = lips
		opts.TaskTimeoutSec = 1200 // as lips-sim runs LiPS
	} else {
		s = sched.NewDelay()
	}
	return batchSetup{s: sim.New(c, w, p, s, opts), lips: lips, tasks: w.TotalTasks()}
}

// batchRun is the outcome of one sim.Run.
type batchRun struct {
	Wall   time.Duration
	Alloc  uint64 // heap bytes allocated during the run
	Cost   cost.Money
	JobSec float64
	Tally  tally

	// Traced only.
	Epochs   []float64 // wall ms of each LiPS tick that planned
	Deferred int       // tasks the epochs left for later epochs
	Stats    lipsStats
}

// lipsStats are the scheduler's exported counters after a run.
type lipsStats struct {
	Epochs, TasksMoved, BlocksMoved int
	Solver                          metrics.SolverStats
}

// runOnce runs one prepared simulation. Traced, it brackets every LiPS
// tick with sim.At markers and reads the scheduler's counters after
// each; untraced, it adds nothing to the run.
func runOnce(bs batchSetup, traced bool) (batchRun, error) {
	var out batchRun
	s, l := bs.s, bs.lips
	if traced && l != nil {
		markEpochs(s, l, &out)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, runErr := s.Run()
	out.Wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	out.Alloc = m1.TotalAlloc - m0.TotalAlloc

	jobs := len(s.W.Jobs)
	if l != nil {
		out.Stats = lipsStats{Epochs: l.Epochs, TasksMoved: l.TasksMoved, BlocksMoved: l.BlocksMoved, Solver: l.Solver}
		out.Tally = epochTally(l.Epochs, l.Solver.Solves, runErr)
	} else {
		notDone := 0
		for j := 0; j < jobs; j++ {
			if s.JobRemaining(j) > 0 {
				notDone++
			}
		}
		out.Tally = jobTally(jobs, notDone, runErr)
	}
	if runErr != nil {
		return out, fmt.Errorf("sim.Run: %w", runErr)
	}
	if !s.Drained() {
		return out, fmt.Errorf("sim.Run returned with jobs not done")
	}
	if l != nil && l.Err != nil {
		return out, fmt.Errorf("lips: %w", l.Err)
	}
	if err := res.Cost.Reconcile(); err != nil {
		return out, fmt.Errorf("ledger: %w", err)
	}
	out.Cost = res.TotalCost()
	out.JobSec = res.SumJobSec
	return out, nil
}

// markEpochs brackets each LiPS tick with two markers at the tick's
// simulated time. The opening marker for time t is scheduled one epoch
// earlier, before that tick schedules its successor, and the sim breaks
// same-time ties in scheduling order, so it runs first; the closing
// marker is scheduled at t itself, after the tick, so it runs after.
// Both chains advance by the same float additions as the tick chain.
func markEpochs(s *sim.Sim, l *sched.LiPS, out *batchRun) {
	var open func()
	open = func() {
		if s.Drained() {
			return
		}
		start, before := time.Now(), l.Epochs
		s.At(s.Now()+l.EpochSec, open)
		s.At(s.Now(), func() {
			if l.Epochs == before {
				return // no queued work: the tick did not plan
			}
			out.Epochs = append(out.Epochs, float64(time.Since(start))/1e6)
			if st, ok := l.LastEpochStats(); ok && st.Epoch == l.Epochs {
				out.Deferred += st.Deferred
			}
		})
	}
	s.At(0, open)
}

// instanceState tracks one trace across the runs of an invocation.
type instanceState struct {
	seed  int64
	tasks int
	runs  []batchRun // untraced
}

// runBatch measures a batch workload. Untraced, it runs every instance
// trace once, then further whole passes while one still fits in the
// budget, and always at least one trace twice. Traced, it runs instances round-robin as pairs, untraced then
// traced under the CPU and allocation profiles, until the budget is
// spent (at least one pair). Every rerun of a trace, traced or not, must
// reproduce its first run's cost and job time.
func runBatch(b batchSpec, cfg runConfig, r *report) error {
	seeds := instanceSeeds(cfg.Seed, batchInstances)
	inst := make([]*instanceState, len(seeds))
	for i, sd := range seeds {
		inst[i] = &instanceState{seed: sd}
	}
	var setups []float64
	run := func(st *instanceState, traced bool) (batchRun, bool) {
		t0 := time.Now()
		bs := setupBatch(b, st.seed)
		setups = append(setups, time.Since(t0).Seconds())
		st.tasks = bs.tasks
		out, err := runOnce(bs, traced)
		r.tally.add(out.Tally)
		if err != nil {
			r.fail("trace seed %d: %v", st.seed, err)
			return out, false
		}
		if len(st.runs) > 0 {
			if first := st.runs[0]; out.Cost != first.Cost || out.JobSec != first.JobSec {
				r.fail("trace seed %d: rerun gave cost %v and job time %.3f s, first run %v and %.3f s",
					st.seed, out.Cost, out.JobSec, first.Cost, first.JobSec)
			}
		}
		if !traced {
			st.runs = append(st.runs, out)
		}
		return out, true
	}

	if !cfg.Traced {
		var pass time.Duration
		for first := true; first || cfg.remaining() > pass; first = false {
			t0 := time.Now()
			for _, st := range inst {
				if _, ok := run(st, false); !ok {
					return nil // the failure is recorded; no metrics from a failed run
				}
			}
			pass = time.Since(t0)
		}
		if len(inst[0].runs) == 1 {
			// Too short for a second pass: rerun one trace so that the
			// same-seed check still runs.
			if _, ok := run(inst[0], false); !ok {
				return nil
			}
		}
		reportBatch(b, inst, setups, r)
		return nil
	}

	var (
		lt           layerTotals
		pair         time.Duration
		plain, trace time.Duration
	)
	for i := 0; i == 0 || cfg.remaining() > pair; i++ {
		t0 := time.Now()
		st := inst[i%len(inst)]
		base, ok := run(st, false)
		if !ok {
			return nil
		}
		heap0, err := heapProfile()
		if err != nil {
			return err
		}
		var cpu bytes.Buffer
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		traced, ok := run(st, true)
		pprof.StopCPUProfile()
		if !ok {
			return nil
		}
		heap1, err := heapProfile()
		if err != nil {
			return err
		}
		if err := lt.add(traced, st.tasks, cpu.Bytes(), heap0, heap1); err != nil {
			return err
		}
		plain += base.Wall
		trace += traced.Wall
		pair = time.Since(t0)
	}
	lt.report(r, trace.Seconds()/plain.Seconds()-1)
	setServeZero(r)
	return nil
}

// heapProfile returns the allocation profile after forcing the
// collections that publish every allocation made so far.
func heapProfile() ([]byte, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	return buf.Bytes(), nil
}

// reportBatch sets the end-to-end metrics of an untraced batch run.
// Each instance contributes its median run; work, allocation and cost
// are per simulated task and job time per job, pooled over instances,
// because traces differ widely in size from seed to seed.
func reportBatch(b batchSpec, inst []*instanceState, setups []float64, r *report) {
	var wall, alloc, costUSD, jobSec, tasks float64
	for _, st := range inst {
		var w, a []float64
		for _, run := range st.runs {
			w = append(w, run.Wall.Seconds())
			a = append(a, float64(run.Alloc))
		}
		wall += medianOf(w)
		alloc += medianOf(a)
		costUSD += st.runs[0].Cost.ToDollars()
		jobSec += st.runs[0].JobSec
		tasks += float64(st.tasks)
	}
	jobs := float64(b.Jobs * len(inst))
	r.set("setup_s", medianOf(setups), "s")
	r.set("work_us_per_task", wall/tasks*1e6, "us")
	r.set("alloc_kb_per_task", alloc/tasks/1024, "KB")
	r.set("usd_per_1k_tasks", costUSD/tasks*1000, "usd")
	r.set("job_time_s", jobSec/jobs, "s")
	r.set("jobs_per_s", jobs/wall, "1/s")
}

// layerTotals accumulates the traced runs of a workload.
type layerTotals struct {
	runs     int
	tasks    int
	cpu      map[string]int64 // CPU nanoseconds by stage
	alloc    map[string]int64 // allocated bytes by stage
	epochs   []float64        // wall ms per planning tick
	deferred int
	sched    lipsStats
}

func (lt *layerTotals) add(run batchRun, tasks int, cpuProf, heap0, heap1 []byte) error {
	cpu, err := stageTotals(cpuProf, nil, "cpu/nanoseconds")
	if err != nil {
		return err
	}
	alloc, err := stageTotals(heap1, heap0, "alloc_space/bytes")
	if err != nil {
		return err
	}
	if lt.cpu == nil {
		lt.cpu, lt.alloc = make(map[string]int64), make(map[string]int64)
	}
	for k, v := range cpu {
		lt.cpu[k] += v
	}
	for k, v := range alloc {
		lt.alloc[k] += v
	}
	lt.runs++
	lt.tasks += tasks
	lt.epochs = append(lt.epochs, run.Epochs...)
	lt.deferred += run.Deferred
	lt.sched.Epochs += run.Stats.Epochs
	lt.sched.TasksMoved += run.Stats.TasksMoved
	lt.sched.BlocksMoved += run.Stats.BlocksMoved
	lt.sched.Solver.Merge(run.Stats.Solver)
	return nil
}

// report sets the per-layer metrics, each per traced run: stage times
// from the CPU profile, allocations from the heap profile, counters from
// the scheduler.
func (lt *layerTotals) report(r *report, overhead float64) {
	runs := float64(lt.runs)
	per := func(v float64) float64 { return v / runs }
	sec := func(stage string) float64 { return per(float64(lt.cpu[stage]) / 1e9) }
	mb := func(stages ...string) float64 {
		var t int64
		for _, st := range stages {
			t += lt.alloc[st]
		}
		return per(float64(t) / (1 << 20))
	}

	r.set("sched.epochs", per(float64(lt.sched.Epochs)), "count")
	sorted := append([]float64(nil), lt.epochs...)
	sort.Float64s(sorted)
	for _, p := range []struct {
		name string
		p    float64
	}{{"sched.epoch_p50_ms", 50}, {"sched.epoch_p90_ms", 90}, {"sched.epoch_max_ms", 100}} {
		if len(sorted) == 0 {
			r.set(p.name, 0, "ms")
			continue
		}
		r.setQuantile(p.name, quantile{P: p.p, Value: percentile(sorted, p.p), N: len(sorted)}, "ms")
	}
	r.set("sched.apply_s", sec(stageApply), "s")
	r.set("sched.plan_other_s", sec(stagePlanOther), "s")
	r.set("sched.tasks_pinned", per(float64(lt.sched.TasksMoved)), "count")
	r.set("sched.blocks_moved", per(float64(lt.sched.BlocksMoved)), "count")
	r.set("sched.deferred_tasks", per(float64(lt.deferred)), "count")
	r.set("sched.delay_s", sec(stageDelay), "s")

	r.set("core.instance_s", sec(stageInstance), "s")
	r.set("core.model_s", sec(stageModel), "s")
	r.set("core.round_s", sec(stageRound), "s")
	r.set("core.alloc_mb", mb(stageInstance, stageModel, stageRound), "MB")

	setSolver(r, lt.sched.Solver, lt.sched.Epochs, runs)
	r.set("lp.phase1_s", sec(stagePhase1), "s")
	r.set("lp.alloc_mb", mb(stageLP, stagePhase1), "MB")

	self := sec(stageSim)
	tasks := per(float64(lt.tasks))
	r.set("sim.tasks", tasks, "count")
	r.set("sim.self_s", self, "s")
	r.set("sim.us_per_task", self/tasks*1e6, "us")
	r.set("sim.alloc_mb", mb(stageSim), "MB")
	r.set("trace.overhead_frac", overhead, "frac")
}

// setSolver sets the lp.* counters read back from the scheduler's
// SolverStats, per run.
func setSolver(r *report, ss metrics.SolverStats, epochs int, runs float64) {
	per := func(v float64) float64 { return v / runs }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("lp.solves", per(float64(ss.Solves)), "count")
	r.set("lp.failed_solves", per(float64(epochs-ss.Solves)), "count")
	r.set("lp.solve_s", per(ss.SolveTime.Seconds()), "s")
	r.set("lp.iters_per_solve", ratio(ss.Iters, ss.Solves), "count")
	r.set("lp.phase1_frac", ratio(ss.Phase1Iters, ss.Iters), "frac")
	r.set("lp.pricing_s", per(ss.PricingTime.Seconds()), "s")
	r.set("lp.factor_s", per(ss.FactorTime.Seconds()), "s")
	r.set("lp.ftran_s", per(ss.FtranTime.Seconds()), "s")
	r.set("lp.btran_s", per(ss.BtranTime.Seconds()), "s")
	r.set("lp.presolve_s", per(ss.PresolveTime.Seconds()), "s")
	r.set("lp.refactorizations", per(float64(ss.Refactorizations)), "count")
	r.set("lp.warm_offered", per(float64(ss.WarmAttempted)), "count")
	r.set("lp.warm_accept_frac", ratio(ss.WarmAccepted, ss.WarmAttempted), "frac")
}

// stageTotals attributes a profile by stage; with a base profile (an
// earlier snapshot of the same cumulative profile) it returns the
// difference.
func stageTotals(prof, base []byte, typ string) (map[string]int64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	tot, err := p.attribute(typ, layerEntries)
	if err != nil {
		return nil, err
	}
	if base == nil {
		return tot, nil
	}
	bp, err := parseProfile(base)
	if err != nil {
		return nil, err
	}
	bt, err := bp.attribute(typ, layerEntries)
	if err != nil {
		return nil, err
	}
	for k, v := range bt {
		tot[k] -= v
	}
	return tot, nil
}
