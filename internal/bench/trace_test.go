package bench

import (
	"sync"
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

func at(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }

func iv(a, b float64) interval { return interval{start: at(a), end: at(b)} }

func TestUnionWithin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi float64
		want   float64
	}{
		{"none", nil, 0, 10, 0},
		{"disjoint", []interval{iv(1, 2), iv(4, 6)}, 0, 10, 3},
		{"overlapping count once", []interval{iv(1, 5), iv(3, 8), iv(2, 4)}, 0, 10, 7},
		{"touching", []interval{iv(1, 3), iv(3, 5)}, 0, 10, 4},
		{"clipped to the span", []interval{iv(-5, 2), iv(9, 20)}, 0, 10, 3},
		{"outside the span", []interval{iv(-5, -1), iv(11, 12)}, 0, 10, 0},
		{"nested", []interval{iv(1, 9), iv(2, 3), iv(4, 5)}, 0, 10, 8},
	} {
		got := unionWithin(tc.ivs, at(tc.lo), at(tc.hi))
		if want := time.Duration(tc.want * float64(time.Millisecond)); got != want {
			t.Errorf("%s: union %v, want %v", tc.name, got, want)
		}
	}
}

// Two workers fetching concurrently under one step: the step's self time
// is what no fetch covers, not the step minus the sum of the fetches.
func TestSelfTimeConcurrentFetches(t *testing.T) {
	step := iv(0, 100)
	fetches := []interval{
		iv(10, 40), iv(20, 50), // two workers overlap for 20ms
		iv(60, 70), iv(60, 70), // identical concurrent fetches
		iv(95, 130), // runs past the step's end
	}
	if got, want := selfTime(step, fetches), 45*time.Millisecond; got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
}

// The recorder joins each call to its round trip by key and each round
// trip to its handler by id, concurrently, and the three layers add up to
// the call.
func TestRecorderJoin(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := callKey("profile", "p", 0, w%2) // identical calls overlap
				c := rec.beginCall("profile", key)
				rt := rec.beginRoundTrip(key, rec.nextID("x"))
				h := interval{start: time.Now()}
				h.end = time.Now()
				rec.handler(rt.id, h)
				rec.endRoundTrip(rt)
				rec.endCall(c)
			}
		}(w)
	}
	wg.Wait()
	fs, js := rec.fetches()
	if js.Calls != 200 || js.Joined != 200 || js.Unjoined != 0 || js.Negative != 0 {
		t.Fatalf("join stats %+v", js)
	}
	for _, f := range fs {
		if f.parse+f.wire+f.h != f.call || f.parse < 0 || f.wire < 0 {
			t.Fatalf("layers %v+%v+%v do not add to the call %v", f.parse, f.wire, f.h, f.call)
		}
	}
	spans := rec.Spans(10)
	if len(spans) != 30 {
		t.Fatalf("%d spans for 10 calls, want 30", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID || spans[0].ReqID != spans[2].ReqID {
		t.Fatalf("call/wire/handler spans not nested under one request id: %+v", spans[:3])
	}
}
