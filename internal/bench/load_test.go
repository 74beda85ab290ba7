package bench

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers at once, except that the requests numbered in stall
// hold for d — long enough that both senders are stuck together.
func stallServer(t *testing.T, stall map[int64]bool, d time.Duration) (*httptest.Server, func() error) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stall[n.Add(1)] {
			time.Sleep(d)
		}
		w.Write([]byte("{}"))
	}))
	t.Cleanup(srv.Close)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	t.Cleanup(hc.CloseIdleConnections)
	get := func() error {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = resp.Body.Read(make([]byte, 8))
		if resp.StatusCode != http.StatusOK {
			return errors.New(resp.Status)
		}
		return nil
	}
	return srv, get
}

// While both senders are stuck in stalled requests, arrivals come due with
// every connection busy: those are dropped, not queued, and count as late;
// the stalled requests themselves complete late; everything else is on
// time and the send lag is recorded for every request sent.
func TestOpenLoopStallAccounting(t *testing.T) {
	const stall = 80 * time.Millisecond
	_, get := stallServer(t, map[int64]bool{20: true, 21: true}, stall)
	r := openLoop(100, 2, 0, time.Second, nil, func(uint64) error { return get() })
	if r.Due < 95 || r.Due > 102 {
		t.Fatalf("%d arrivals due in 1s at 100/s", r.Due)
	}
	// The stall spans ~8 arrival intervals; timer jitter on a loaded
	// machine can only shift which ones.
	if r.Dropped < 4 || r.Dropped > 9 {
		t.Errorf("%d arrivals dropped during an %v double stall, want ~7", r.Dropped, stall)
	}
	if r.Failed != 0 {
		t.Errorf("%d failures from a healthy stub", r.Failed)
	}
	sent := r.Due - r.Dropped
	if len(r.LagUS) != sent || len(r.LatencyMS) != sent || r.Sent != sent {
		t.Errorf("sent %d, lags %d, latencies %d, due-dropped %d", r.Sent, len(r.LagUS), len(r.LatencyMS), sent)
	}
	late := 0
	for _, l := range r.LatencyMS {
		if l >= float64(stall/time.Millisecond) {
			late++
		}
	}
	if late < 2 {
		t.Errorf("%d requests took the stall, want the 2 stalled ones", late)
	}
	if r.OnTime > sent-2 {
		t.Errorf("%d on time of %d sent: the stalled requests must be late", r.OnTime, sent)
	}
	if got := r.OnTimePct(); got > 100*float64(r.Due-r.Dropped-2)/float64(r.Due) {
		t.Errorf("on-time %.1f%% counts dropped or stalled requests", got)
	}
}

// Errors count as failed and late; arrivals due before the warm-up ends are
// sent but not measured; a stop channel ends an open-ended loop.
func TestOpenLoopFailuresWarmupStop(t *testing.T) {
	var calls atomic.Int64
	stop := make(chan struct{})
	time.AfterFunc(400*time.Millisecond, func() { close(stop) })
	r := openLoop(100, 2, 100*time.Millisecond, 0, stop, func(i uint64) error {
		calls.Add(1)
		if i%10 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if r.Sent != int(calls.Load()) || r.Sent < r.Due {
		t.Fatalf("sent %d, calls %d, due %d", r.Sent, calls.Load(), r.Due)
	}
	if r.Due < 20 || r.Due > 40 || r.Window < 0.2 || r.Window > 0.45 {
		t.Fatalf("%d due over a %.2fs measured window, want ~30 over ~0.3s", r.Due, r.Window)
	}
	if r.Failed == 0 || r.OnTime+r.Failed+r.Dropped > r.Due {
		t.Fatalf("failed %d, on time %d, dropped %d of %d", r.Failed, r.OnTime, r.Dropped, r.Due)
	}
}

func TestClosedLoop(t *testing.T) {
	_, get := stallServer(t, nil, 0)
	r := closedLoop(2, 50*time.Millisecond, 200*time.Millisecond, func(uint64) error { return get() })
	if r.Due == 0 || r.Failed != 0 || r.Dropped != 0 || len(r.LatencyMS) != r.Due || r.Sent < r.Due {
		t.Fatalf("closed loop %+v", r)
	}
}
