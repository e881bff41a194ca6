package sched

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
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/metrics"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/greedy_goldens.json from the current schedulers")

const greedyGoldenFile = "testdata/greedy_goldens.json"

// greedyGolden is one run's fingerprint: the exact ledger, the exact
// total job time, the locality mix and a digest of the full JSONL trace.
// Any change to which task launches where, or when, moves at least one.
type greedyGolden struct {
	Name          string           `json:"name"`
	LedgerUC      map[string]int64 `json:"ledger_uc"`
	SumJobSecBits uint64           `json:"sum_job_sec_bits"`
	Locality      [4]int           `json:"locality"` // node-local, zone-local, remote, no-input
	TraceSHA256   string           `json:"trace_sha256"`
}

// greedyGoldenRun runs one SWIM trace under a greedy scheduler. The churn
// variant adds speculation, a short progress timeout, crashes, store
// losses and stragglers (and preemption for Fair), so tasks return to
// Pending through every path the simulator has.
func greedyGoldenRun(t *testing.T, schedName string, seed int64, churn bool) greedyGolden {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cluster.Paper20(0.5)
	stores := c.StoreIDs()
	w := workload.SWIM(rng, stores, workload.SWIMSpec{Jobs: 60, DurationSec: 4 * 3600})
	p := w.Placement()
	p.Shuffle(rng, stores)

	var sch sim.Scheduler
	switch schedName {
	case "delay":
		sch = NewDelay()
	case "fifo":
		sch = NewFIFO()
	case "fair":
		f := NewFair()
		if churn {
			f.MinShare = map[string]int{"pool0": 20, "pool3": 12}
			f.PreemptTimeoutSec = 20
		}
		sch = f
	case "scale":
		sch = NewScale()
	default:
		t.Fatalf("unknown scheduler %q", schedName)
	}
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	opts := sim.Options{Tracer: sink, SampleIntervalSec: 300}
	if churn {
		opts.Speculative = true
		opts.TaskTimeoutSec = 1.5
		opts.Faults = sim.RandomFaultPlan(seed, c, sim.FaultSpec{
			Crashes: 3, StoreLosses: 2, Slowdowns: 2, WindowSec: 4 * 3600,
		})
	}
	r := runSched(t, c, w, p, sch, opts)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	variant := "plain"
	if churn {
		variant = "churn"
	}
	g := greedyGolden{
		Name:          fmt.Sprintf("%s/seed%d/%s", schedName, seed, variant),
		LedgerUC:      make(map[string]int64, len(cost.Categories)),
		SumJobSecBits: math.Float64bits(r.SumJobSec),
		Locality: [4]int{
			r.Locality.Count(metrics.NodeLocal), r.Locality.Count(metrics.ZoneLocal),
			r.Locality.Count(metrics.Remote), r.Locality.Count(metrics.NoInput),
		},
	}
	for _, cat := range cost.Categories {
		g.LedgerUC[string(cat)] = int64(r.Cost.Category(cat))
	}
	sum := sha256.Sum256(buf.Bytes())
	g.TraceSHA256 = hex.EncodeToString(sum[:])
	return g
}

// TestGreedyGoldens pins Delay, FIFO, Fair and Scale to results recorded
// before their dispatch paths were reworked: the same seed must reproduce the
// ledger to the microcent, the total job time to the bit, the locality
// mix and the trace byte for byte. Regenerate only for an intended plan
// change: go test ./internal/sched -run TestGreedyGoldens -update
func TestGreedyGoldens(t *testing.T) {
	var got []greedyGolden
	for _, name := range []string{"delay", "fifo", "fair", "scale"} {
		for _, seed := range []int64{1, 2, 3} {
			for _, churn := range []bool{false, true} {
				got = append(got, greedyGoldenRun(t, name, seed, churn))
			}
		}
	}
	if *updateGoldens {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(greedyGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(greedyGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(greedyGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []greedyGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d runs, test produced %d", len(want), len(got))
	}
	for i := range got {
		gb, _ := json.Marshal(got[i])
		wb, _ := json.Marshal(want[i])
		if !bytes.Equal(gb, wb) {
			t.Errorf("run %s diverged from its golden:\n got  %s\n want %s", want[i].Name, gb, wb)
		}
	}
}
