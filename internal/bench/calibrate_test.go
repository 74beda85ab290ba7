package bench

import (
	"io"
	"os"
	"testing"
)

// A child's probe request is answered over the pipes with a timed pass, and
// the parent stops serving once the child closes its end.
func TestProbeLink(t *testing.T) {
	reqR, reqW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer reqR.Close()
	respR, respW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer respR.Close()
	served := make(chan error, 1)
	go func() { served <- newProber().serve(reqR, respW) }()

	link := &probeLink{req: reqW, resp: respR}
	for i := 0; i < 2; i++ {
		d, err := link.ask(1)
		if err != nil || d <= 0 {
			t.Fatalf("probe %d: %v, %v", i, d, err)
		}
	}
	reqW.Close()
	if err := <-served; err != nil {
		t.Fatalf("serving ended with %v after the child closed its end", err)
	}
	// A child still waiting on an answer sees the end instead of hanging.
	if _, err := respR.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("answer pipe after serving ended: %v, want EOF", err)
	}
}
