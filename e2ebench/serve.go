package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/serve"
)

// serve-open drives an in-process daemon over loopback HTTP with the
// benchmark's own open-loop generator: a reference phase at a fixed rate
// below the knee (work, cost, latency, drain and correctness), then a
// ladder of fixed rates, each on a fresh daemon, for serve_max_rps.
const (
	serveEpochSim = 60.0 // simulated seconds per daemon tick (the default)
	serveInputMB  = 256.0
	serveTenants  = 4
	refRate       = 200.0 // submissions/s of the reference phase
	pollEvery     = 10 * time.Millisecond
	// submitLimitMS is the submit-latency tail a ladder rung must stay
	// within to count as sustained.
	submitLimitMS = 50.0
	minPace       = 0.9
	// rungDur is each ladder rung's load window, fixed rather than a
	// share of --seconds: three seconds already tell a held pace from a
	// collapse, and the reference phase needs the time more.
	rungDur = 3 * time.Second
	// minRefDur keeps enough reference submissions for a p99.
	minRefDur = 5 * time.Second
	// setupPerBatch is how many idle daemons each set-up sample batch starts.
	setupPerBatch = 25
)

// ladderLimit is what a rung must meet to count as sustained.
var ladderLimit = ladderLimits{SubmitP99MS: submitLimitMS, MinPace: minPace}

// ladderRates straddle the daemon's knee, which lay between 750 and
// somewhat over 1000 submissions/s across runs on a 2-vCPU VM: the
// rungs keep well clear of it on both sides, so serve_max_rps reads the
// same run to run and moves only when the knee moves past a rung.
var ladderRates = []float64{250, 400, 2000}

// serveDaemon is one running daemon with its HTTP listener.
type serveDaemon struct {
	d    *serve.Daemon
	lips *sched.LiPS
	reg  *obs.Registry
	sm   *obs.ServeMetrics
	srv  *obs.Server
}

// startDaemon builds and starts a daemon with the default config on the
// paper's 100-node cluster, listening on a loopback port. A non-zero
// drain overrides the default bound on Shutdown's drain.
func startDaemon(drain time.Duration) (*serveDaemon, error) {
	reg := obs.NewRegistry()
	l := sched.NewLiPS(serveEpochSim)
	d, err := serve.New(cluster.Paper100(), l, reg, serve.Config{DrainTimeout: drain})
	if err != nil {
		return nil, err
	}
	srv, err := obs.ServeHandler("127.0.0.1:0", d.Handler())
	if err != nil {
		return nil, err
	}
	d.Start()
	return &serveDaemon{d: d, lips: l, reg: reg, sm: obs.RegisterServe(reg), srv: srv}, nil
}

// stop drains (bounded by the daemon's drain timeout) and closes it.
func (sd *serveDaemon) stop() error {
	err := sd.d.Shutdown()
	if cerr := sd.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// request is one open-loop submission's record.
type request struct {
	Due, Sent, Answered time.Time
	Status              int // 0: transport error
	ID                  int // daemon record ID when accepted
}

// latencyMS is the request's latency from the instant it was due to be
// sent, not the instant it was sent, so a stall also counts against the
// requests queued behind it.
func (rq request) latencyMS() float64 { return ms(rq.Answered.Sub(rq.Due)) }

// lateMS is how late the generator sent the request.
func (rq request) lateMS() float64 { return ms(rq.Sent.Sub(rq.Due)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// openLoop sends n submissions at a fixed rate over at most workers
// keep-alive connections: a dispatcher releases each request at its due
// time and the first free worker sends it. A request that finds every
// connection busy waits, and that wait counts as generator lateness and
// as latency, since latency is taken from the due time.
func openLoop(client *http.Client, url string, rate float64, bodies [][]byte, workers int) (start time.Time, reqs []request) {
	n := len(bodies)
	interval := time.Duration(float64(time.Second) / rate)
	reqs = make([]request, n)
	due := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	start = time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				rq := &reqs[i]
				rq.Sent = time.Now()
				rq.Status, rq.ID = submit(client, url, bodies[i])
				rq.Answered = time.Now()
			}
		}()
	}
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * interval)
		reqs[i].Due = at
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return start, reqs
}

// submit POSTs one job and returns the status and, on 202, the record ID.
func submit(client *http.Client, url string, body []byte) (int, int) {
	resp, err := client.Post(url+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, -1
	}
	defer resp.Body.Close()
	id := -1
	if resp.StatusCode == http.StatusAccepted {
		var sr serve.SubmitResponse
		if json.NewDecoder(resp.Body).Decode(&sr) == nil {
			id = sr.ID
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	return resp.StatusCode, id
}

// submitBodies draws each submission's tenant from the seed.
func submitBodies(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		b, _ := json.Marshal(serve.SubmitRequest{
			Tenant:    fmt.Sprintf("tenant-%d", rng.Intn(serveTenants)),
			Archetype: "grep",
			InputMB:   serveInputMB,
		})
		out[i] = b
	}
	return out
}

// poller watches a daemon every pollEvery: it samples the admission
// queue depth and notes the first poll at which Spans() reports each
// job done.
type poller struct {
	stopCh chan struct{}
	wg     sync.WaitGroup

	// Owned by the polling goroutine until stop returns.
	depths []float64
	doneAt map[int]time.Time
	e2eSim map[int]float64 // simulated submit→done seconds
}

func startPoller(sd *serveDaemon) *poller {
	p := &poller{stopCh: make(chan struct{}), doneAt: make(map[int]time.Time), e2eSim: make(map[int]float64)}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		var seen int64
		for {
			p.poll(sd, &seen)
			select {
			case <-p.stopCh:
				p.poll(sd, &seen)
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *poller) poll(sd *serveDaemon, seen *int64) {
	p.depths = append(p.depths, sd.sm.QueueDepth.Value())
	ring := sd.d.Spans()
	total := ring.Total()
	if total == *seen {
		return // no span completed since the last poll
	}
	*seen = total
	now := time.Now()
	for _, sp := range ring.Snapshot() {
		if sp.Outcome != obs.OutcomeDone {
			continue
		}
		if _, ok := p.doneAt[sp.Job]; !ok {
			p.doneAt[sp.Job] = now
			p.e2eSim[sp.Job] = sp.E2ESim()
		}
	}
}

func (p *poller) stop() {
	close(p.stopCh)
	p.wg.Wait()
}

// phase is one fixed-rate load on a fresh daemon.
type phase struct {
	Rate   float64
	Reqs   []request
	Pace   float64 // simulated seconds per wall second ÷ target, over the load
	Poll   *poller
	Daemon *serveDaemon

	// Reference phase only, after the drain.
	Alloc      uint64  // heap bytes allocated from load start to drained
	CostUSD    float64 // the /audit ledger total
	HandlerP99 float64 // the daemon's submit-handler latency tail, seconds
	Solve      solveShare
}

// solveShare is the daemon's epoch busy-fraction histogram, read back.
type solveShare struct {
	P50, P99, Mean float64
	Busy           time.Duration // Σ epoch step wall: the share sum × the tick
	Epochs         float64
}

// drive starts a daemon and runs the open loop against it at rate for
// dur. The poller keeps watching until the caller stops it.
func drive(client *http.Client, seed int64, rate float64, dur, drain time.Duration) (*phase, error) {
	sd, err := startDaemon(drain)
	if err != nil {
		return nil, err
	}
	ph := &phase{Rate: rate, Daemon: sd, Poll: startPoller(sd)}
	sim0 := sd.d.SimNow()
	start, reqs := openLoop(client, sd.srv.URL(), rate, submitBodies(seed, int(rate*dur.Seconds())), connections())
	ph.Reqs = reqs
	ph.Pace = (sd.d.SimNow() - sim0) / time.Since(start).Seconds() / (serveEpochSim / serveEpochWall.Seconds())
	return ph, nil
}

// runReference drives the reference phase, drains the daemon and checks
// the outcome.
func runReference(client *http.Client, seed int64, dur time.Duration, r *report) (*phase, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph, err := drive(client, seed, refRate, dur, 0)
	if err != nil {
		return nil, err
	}
	sd := ph.Daemon
	if err := sd.d.Shutdown(); err != nil {
		r.fail("daemon drain: %v", err)
	}
	ph.Poll.stop()
	runtime.ReadMemStats(&m1)
	ph.Alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.HandlerP99 = sd.sm.SubmitSeconds.Quantile(0.99)
	h := sd.sm.SolveShare
	ph.Solve = solveShare{P50: h.Quantile(0.5), P99: h.Quantile(0.99), Epochs: sd.sm.Epochs.Value()}
	if c := h.Count(); c > 0 {
		ph.Solve.Mean = h.Sum() / float64(c)
	}
	ph.Solve.Busy = time.Duration(h.Sum() * float64(serveEpochWall))
	checkDrained(client, sd, ph, r)
	if err := sd.srv.Close(); err != nil {
		return nil, err
	}
	return ph, nil
}

// runRung drives one ladder rung. A daemon that held the rung is shut
// down; one that did not is only cut off from the network: past the
// knee its current epoch plans a deep job queue, which can take minutes
// (the LP stall documented in README.md), so it is left to end with the
// process. No rung runs after a failed one, so it competes with no
// measurement.
func runRung(client *http.Client, seed int64, rate float64, r *report) (rung, *obs.Registry, []float64, error) {
	ph, err := drive(client, seed, rate, rungDur, time.Millisecond)
	if err != nil {
		return rung{}, nil, nil, err
	}
	ph.Poll.stop()
	rg := ladderRung(ph)
	sd := ph.Daemon
	if rg.sustained(ladderLimit) {
		if err := sd.stop(); err != nil {
			r.fail("daemon stop: %v", err)
		}
	} else if err := sd.srv.Close(); err != nil {
		return rung{}, nil, nil, err
	}
	return rg, sd.reg, ph.Poll.depths, nil
}

// setupSamples times n daemon start-ups (build, listen, start), stopping
// each idle daemon again.
func setupSamples(n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sd, err := startDaemon(0)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		if err := sd.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveEpochWall is the daemon's default wall tick.
const serveEpochWall = 25 * time.Millisecond

// connections is the generator's connection count: at most nproc, and
// no more than two, so the load is the same on bigger machines.
func connections() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// checkDrained verifies the reference phase after its drain: /audit
// answers 200 (its total is the phase's cost) and no answer was a 5xx.
// Accepted jobs never seen done fail in serveTally.
func checkDrained(client *http.Client, sd *serveDaemon, ph *phase, r *report) {
	resp, err := client.Get(sd.srv.URL() + "/audit")
	if err != nil {
		r.fail("GET /audit: %v", err)
	} else {
		var audit serve.AuditResponse
		derr := json.NewDecoder(resp.Body).Decode(&audit)
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			r.fail("/audit answered %d: %s", resp.StatusCode, audit.Error)
		case derr != nil:
			r.fail("/audit body: %v", derr)
		default:
			ph.CostUSD = audit.TotalUSD
		}
	}
	for _, rq := range ph.Reqs {
		if rq.Status >= 500 {
			r.fail("submit answered %d", rq.Status)
		}
	}
}

// runServe measures serve-open. Untraced: the reference phase, then the
// ladder. Traced: a shorter untraced reference phase as the overhead
// baseline, the same phase again under the CPU and allocation profiles,
// then the ladder for the shed and queue counters.
func runServe(cfg runConfig, r *report) error {
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     connections(),
			MaxIdleConnsPerHost: connections(),
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()
	// Set-up is sampled in batches at the quiet points of the run (before
	// and after the reference phase, between sustained rungs), so its
	// median covers the run rather than its first milliseconds.
	var setups []float64
	sampleSetup := func() error {
		s, err := setupSamples(setupPerBatch)
		setups = append(setups, s...)
		return err
	}
	if err := sampleSetup(); err != nil {
		return err
	}
	// The ladder takes three rungs of rungDur plus start-ups and stops;
	// the reference phase gets the rest of the budget.
	refDur := cfg.Budget - 5*rungDur
	if refDur < minRefDur {
		refDur = minRefDur
	}
	var (
		base  *phase
		cpu   bytes.Buffer
		heap0 []byte
		err   error
	)
	if cfg.Traced {
		refDur /= 2
		if base, err = runReference(client, cfg.Seed, refDur, r); err != nil {
			return err
		}
		if heap0, err = heapProfile(); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	ref, err := runReference(client, cfg.Seed, refDur, r)
	if cfg.Traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	var heap1 []byte
	if cfg.Traced {
		if heap1, err = heapProfile(); err != nil {
			return err
		}
	}
	if err := sampleSetup(); err != nil {
		return err
	}

	var (
		rungs             []rung
		depthMax          float64
		shedCap, shedBack float64
	)
	for i, rate := range ladderRates {
		rg, reg, depths, err := runRung(client, cfg.Seed+int64(i)+1, rate, r)
		if err != nil {
			return err
		}
		rungs = append(rungs, rg)
		fmt.Printf("rung %5.0f/s: submit tail %.2f ms, sheds %d, errors %d, pace %.3f, queue growth %v\n",
			rg.Rate, rg.SubmitP99MS, rg.Sheds, rg.Errors, rg.Pace, rg.QueueGrowth)
		for _, d := range depths {
			depthMax = math.Max(depthMax, d)
		}
		v, _ := reg.Value(obs.MServeSheds, obs.ReasonQueueCap)
		shedCap += v
		v, _ = reg.Value(obs.MServeSheds, obs.ReasonSolverBackpressure)
		shedBack += v
		if !rg.sustained(ladderLimit) {
			break // no rung past the first failure counts; runRung left this daemon running
		}
		if err := sampleSetup(); err != nil {
			return err
		}
	}

	outcomes := make([]submitOutcome, len(ref.Reqs))
	var wallMS, submitMS, lateMS []float64
	var jobSec float64
	for i, rq := range ref.Reqs {
		outcomes[i] = submitOutcome{Status: rq.Status}
		submitMS = append(submitMS, rq.latencyMS())
		lateMS = append(lateMS, rq.lateMS())
		if at, ok := ref.Poll.doneAt[rq.ID]; ok && rq.Status == http.StatusAccepted {
			outcomes[i].Done = true
			wallMS = append(wallMS, ms(at.Sub(rq.Due)))
			jobSec += ref.Poll.e2eSim[rq.ID]
		}
	}
	r.tally = serveTally(outcomes)
	if r.tally.Failed > 0 {
		r.fail("%d of %d reference submissions failed or were not done after the drain", r.tally.Failed, r.tally.Attempted)
	}

	tasks, _ := ref.Daemon.reg.Value(obs.MSimDone)
	if tasks == 0 {
		r.fail("the reference phase completed no tasks")
		tasks = math.NaN()
	}
	if !cfg.Traced {
		r.set("setup_s", medianOf(setups), "s")
		r.set("work_us_per_task", ref.Solve.Busy.Seconds()/tasks*1e6, "us")
		r.set("alloc_kb_per_task", float64(ref.Alloc)/tasks/1024, "KB")
		r.set("usd_per_1k_tasks", ref.CostUSD/tasks*1000, "usd")
		r.set("job_time_s", jobSec/float64(len(wallMS)), "s")
		r.set("jobs_per_s", maxSustainedRate(rungs, ladderLimit), "1/s")
		return nil
	}

	var lt layerTotals
	l := ref.Daemon.lips
	run := batchRun{Stats: lipsStats{Epochs: l.Epochs, TasksMoved: l.TasksMoved, BlocksMoved: l.BlocksMoved, Solver: l.Solver}}
	if err := lt.add(run, int(tasks), cpu.Bytes(), heap0, heap1); err != nil {
		return err
	}
	lt.report(r, ref.Solve.Mean/base.Solve.Mean-1)

	r.set("serve.pace", ref.Pace, "frac")
	r.set("serve.epochs", ref.Solve.Epochs, "count")
	r.set("serve.solve_share_p50", ref.Solve.P50, "frac")
	r.set("serve.solve_share_p99", ref.Solve.P99, "frac")
	r.set("serve.queue_depth_max", depthMax, "count")
	r.set("serve.shed_queue_cap", shedCap, "count")
	r.set("serve.shed_backpressure", shedBack, "count")
	r.set("serve.handler_p99_ms", ref.HandlerP99*1e3, "ms")
	_, late := summarize(lateMS)
	r.setQuantile("serve.gen_late_p99_ms", late, "ms")
	sm, st := summarize(submitMS)
	r.setQuantile("serve.submit_p50_ms", sm, "ms")
	r.setQuantile("serve.submit_p99_ms", st, "ms")
	wm, wt := summarize(wallMS)
	r.setQuantile("serve.job_wall_p50_ms", wm, "ms")
	r.setQuantile("serve.job_wall_p99_ms", wt, "ms")
	return nil
}

// setServeZero sets the serve.* per-layer metrics of a batch workload,
// which has no daemon.
func setServeZero(r *report) {
	for _, n := range []string{"serve.pace", "serve.solve_share_p50", "serve.solve_share_p99"} {
		r.set(n, 0, "frac")
	}
	for _, n := range []string{"serve.epochs", "serve.queue_depth_max", "serve.shed_queue_cap", "serve.shed_backpressure"} {
		r.set(n, 0, "count")
	}
	for _, n := range []string{"serve.handler_p99_ms", "serve.gen_late_p99_ms", "serve.submit_p50_ms",
		"serve.submit_p99_ms", "serve.job_wall_p50_ms", "serve.job_wall_p99_ms"} {
		r.set(n, 0, "ms")
	}
}

// ladderRung summarizes one ladder phase for serve_max_rps.
func ladderRung(ph *phase) rung {
	rg := rung{Rate: ph.Rate, Pace: ph.Pace}
	var lat []float64
	for _, rq := range ph.Reqs {
		switch {
		case rq.Status == http.StatusTooManyRequests || rq.Status == http.StatusServiceUnavailable:
			rg.Sheds++
		case rq.Status != http.StatusAccepted:
			rg.Errors++
		}
		lat = append(lat, rq.latencyMS())
	}
	_, tail := summarize(lat)
	rg.SubmitP99MS = tail.Value
	rg.QueueGrowth = queueGrew(ph.Poll.depths, ph.Rate*serveEpochWall.Seconds())
	return rg
}
