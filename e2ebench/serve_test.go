package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeDaemon answers /submit with 202 and sequential IDs; the first
// request stalls for stall.
func fakeDaemon(t *testing.T, stall time.Duration) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var next, conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := next.Add(1) - 1
		if id == 0 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%d,"state":"queued"}`, id)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

func testClient(workers int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
}

// A stall on one request must show in the latency of the requests due
// behind it, because latency runs from the due time, and in how late
// the generator sent them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv, _ := fakeDaemon(t, 80*time.Millisecond)
	client := testClient(1)
	defer client.CloseIdleConnections()
	bodies := submitBodies(1, 4)
	start, reqs := openLoop(client, srv.URL, 100, bodies, 1) // due every 10 ms
	for i, rq := range reqs {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !rq.Due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, rq.Due.Sub(start), want.Sub(start))
		}
		if rq.Sent.Before(rq.Due) {
			t.Errorf("request %d sent before it was due", i)
		}
		if rq.Status != http.StatusAccepted || rq.ID != i {
			t.Errorf("request %d: status %d id %d", i, rq.Status, rq.ID)
		}
	}
	// Request 1 was due at +10 ms but could only go out after the stalled
	// request 0 returned at about +80 ms.
	if got := reqs[1].lateMS(); got < 60 {
		t.Errorf("request 1 sent %.1f ms late, want >= 60 behind the stall", got)
	}
	if got := reqs[1].latencyMS(); got < 60 {
		t.Errorf("request 1 latency %.1f ms, want >= 60: the wait behind the stall counts", got)
	}
	if reqs[1].latencyMS() < ms(reqs[1].Answered.Sub(reqs[1].Sent)) {
		t.Error("due-time latency is shorter than send-time latency")
	}
}

// The generator never opens more connections than it has workers.
func TestOpenLoopConnectionBound(t *testing.T) {
	srv, conns := fakeDaemon(t, 0)
	client := testClient(2)
	defer client.CloseIdleConnections()
	_, reqs := openLoop(client, srv.URL, 2000, submitBodies(2, 200), 2)
	for i, rq := range reqs {
		if rq.Status != http.StatusAccepted {
			t.Fatalf("request %d: status %d", i, rq.Status)
		}
	}
	if n := conns.Load(); n > 2 {
		t.Errorf("%d connections opened, want at most 2", n)
	}
}

// A short reference phase on a real daemon: every submission is
// accepted and seen done, /audit reconciles, and nothing is flagged.
func TestReferencePhase(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live daemon")
	}
	client := testClient(connections())
	defer client.CloseIdleConnections()
	r := newReport()
	ph, err := runReference(client, 1, 500*time.Millisecond, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.errs) > 0 {
		t.Fatalf("checks failed: %v", r.errs)
	}
	if len(ph.Reqs) != int(refRate/2) {
		t.Fatalf("%d submissions, want %d", len(ph.Reqs), int(refRate/2))
	}
	for i, rq := range ph.Reqs {
		if _, done := ph.Poll.doneAt[rq.ID]; rq.Status != http.StatusAccepted || !done {
			t.Errorf("submission %d: status %d, seen done %v", i, rq.Status, done)
		}
	}
	if ph.CostUSD <= 0 || ph.Solve.Busy <= 0 {
		t.Errorf("cost %v busy %v, want both positive", ph.CostUSD, ph.Solve.Busy)
	}
}
