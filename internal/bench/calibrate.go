package bench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// On a shared machine the speed of the CPUs drifts by tens of percent over
// minutes as neighbours come and go, and every wall time drifts with it.
// So each operation the benchmark times is paired with a probe timed right
// next to it, and the operation's time is scaled by (probeRef/probe) to the
// power probeExp: it reads as the time on a machine where the probe takes
// probeRef.
//
// The probe is standard-library code. It runs in the workload process, not
// in the repetition child being measured: the child asks for it over a pipe
// and waits, idle, until the answer comes back. So the probe's memory, its
// collections and its CPU time are never the measured process's, and no
// change to the program moves the probe. The unscaled numbers stay in the
// artifact.
const probeRef = 35 * time.Millisecond

// probeExp is how the workloads' times follow the probe's. On a shared
// 2-vCPU machine, over probe times from 36 to 91 ms, the log of each
// workload's unscaled time against the log of its probe had slopes of
// 0.70 (rotate-metro), 0.75 (coldstart-metro), 0.80 (serve-metro) and 0.81
// (attack-hs1): the workloads slow less than the probe does. Scaling by the
// probe's full ratio made a busy machine read fast.
const probeExp = 0.75

// probeN is the probe's size; one pass takes ~35 ms on an idle 2-vCPU Xeon.
const probeN = 200000

// prober owns the probe's buffers, allocated once so that timing the probe
// allocates nothing and sets off no collection.
type prober struct {
	keys, sorted []uint64
	m            map[uint64]uint64
	buf          []byte
}

func newProber() *prober {
	p := &prober{
		keys:   make([]uint64, probeN),
		sorted: make([]uint64, probeN),
		m:      make(map[uint64]uint64, probeN),
		buf:    make([]byte, 0, probeN*binary.MaxVarintLen64),
	}
	x := uint64(1)
	for i := range p.keys {
		x = splitmix64(x)
		p.keys[i] = x
	}
	return p
}

// run times one pass: fill a map, sort, and round-trip the values through
// varints — the hashing, branching and memory traffic the workloads are
// made of. A corrupted pass is an error, not a timing.
func (p *prober) run() (time.Duration, error) {
	start := time.Now()
	clear(p.m)
	for i, k := range p.keys {
		p.m[k] = uint64(i)
	}
	copy(p.sorted, p.keys)
	slices.Sort(p.sorted)
	buf := p.buf[:0]
	for _, k := range p.sorted {
		buf = binary.AppendUvarint(buf, p.m[k])
	}
	sum := uint64(0)
	for len(buf) > 0 {
		v, n := binary.Uvarint(buf)
		sum += v
		buf = buf[n:]
	}
	d := time.Since(start)
	if sum != probeN*(probeN-1)/2 {
		return 0, fmt.Errorf("bench: probe checksum %d", sum)
	}
	return d, nil
}

// speed collects the prober's process's garbage, then returns the median of
// k timed passes.
func (p *prober) speed(k int) (time.Duration, error) {
	runtime.GC()
	out := make([]float64, k)
	for i := range out {
		d, err := p.run()
		if err != nil {
			return 0, err
		}
		out[i] = float64(d)
	}
	return time.Duration(median(out)), nil
}

// serve answers a child's probe requests until the child closes its end:
// each request is one byte, a pass count, and each answer the median of
// that many passes in nanoseconds. It closes resp when it returns, so a
// child waiting on an answer that will not come sees EOF.
func (p *prober) serve(req io.Reader, resp io.WriteCloser) error {
	defer resp.Close()
	var k [1]byte
	for {
		if _, err := io.ReadFull(req, k[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("bench: reading probe request: %w", err)
		}
		d, err := p.speed(int(k[0]))
		if err != nil {
			return err
		}
		if err := binary.Write(resp, binary.LittleEndian, int64(d)); err != nil {
			return fmt.Errorf("bench: answering probe request: %w", err)
		}
	}
}

// probeLink is a repetition child's end of its parent's prober: spawn hands
// the child the request pipe's write end and the answer pipe's read end as
// its first two extra files.
type probeLink struct{ req, resp *os.File }

func childProbeLink() *probeLink {
	return &probeLink{req: os.NewFile(3, "probe-request"), resp: os.NewFile(4, "probe-answer")}
}

// ask has the parent time k passes of the probe and returns their median;
// the child does nothing until the answer arrives.
func (l *probeLink) ask(k int) (time.Duration, error) {
	if _, err := l.req.Write([]byte{byte(k)}); err != nil {
		return 0, fmt.Errorf("bench: requesting a probe: %w", err)
	}
	var ns int64
	if err := binary.Read(l.resp, binary.LittleEndian, &ns); err != nil {
		return 0, fmt.Errorf("bench: reading the probe: %w", err)
	}
	return time.Duration(ns), nil
}

// sidePasses is how many passes a metro child has timed on each side of a
// stretch of work it times: its set-up, and its timed work. Such a stretch
// lasts a second or more, so it is scaled by the mean of the probes on its
// two sides.
const sidePasses = 5

// side has one side of a stretch timed: the median of sidePasses passes.
func (l *probeLink) side() (time.Duration, error) { return l.ask(sidePasses) }

// record appends one operation's end-to-end measurement to samples: as
// measured under "raw_"+metric, and scaled by the operation's probe under
// metric. Times scale by (probeRef/probe)^probeExp and rates by the
// inverse; a rate the benchmark's own schedule bounds is given a zero probe
// and stays as measured.
func record(samples map[string][]float64, metric string, v float64, probe time.Duration) {
	samples["raw_"+metric] = append(samples["raw_"+metric], v)
	if probe > 0 {
		f := math.Pow(float64(probeRef)/float64(probe), probeExp)
		if metric == MetricGoodput {
			f = 1 / f
		}
		v *= f
	}
	samples[metric] = append(samples[metric], v)
}
