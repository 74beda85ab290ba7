package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// output is run's stdout or stderr in a test. Writes may come from the
// evolve loop while the test reads, and a test can wait for the next one.
type output struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	wake chan struct{} // closed by the next Write
}

func newOutput() *output { return &output{wake: make(chan struct{})} }

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	close(o.wake)
	o.wake = make(chan struct{})
	return o.buf.Write(p)
}

// read returns what was written so far and a channel closed by the next
// write.
func (o *output) read() (string, <-chan struct{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String(), o.wake
}

func (o *output) String() string {
	s, _ := o.read()
	return s
}

// daemon is one osnd run inside the test process.
type daemon struct {
	url, metrics   string // base URLs of the bound listeners, from the banners
	stdout, stderr *output
	cancel         context.CancelFunc
	exited         chan struct{}
	code           int // run's exit status, once exited is closed
	stopped        bool
}

var (
	servingBanner = regexp.MustCompile(`osnd: \S+ policy on (\S+) `)
	metricsBanner = regexp.MustCompile(`osnd: metrics on (\S+) `)
	schoolBanner  = regexp.MustCompile(`serving school "(.+?)"`)
)

// startOSND runs osnd with args in this process and returns once it has
// announced its listeners. The daemon is stopped when the test ends, and
// must then exit 0.
func startOSND(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{stdout: newOutput(), stderr: newOutput(), cancel: cancel, exited: make(chan struct{})}
	go func() {
		defer close(d.exited)
		d.code = run(ctx, args, d.stdout, d.stderr)
	}()
	t.Cleanup(func() { d.stop(t) })
	d.url = "http://" + d.await(t, servingBanner)[1]
	if slices.Contains(args, "-metrics-addr") {
		d.metrics = "http://" + d.await(t, metricsBanner)[1]
	}
	return d
}

// await waits until re matches stdout and returns its submatches.
func (d *daemon) await(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	for {
		out, wake := d.stdout.read()
		if m := re.FindStringSubmatch(out); m != nil {
			return m
		}
		select {
		case <-wake:
		case <-d.exited:
			if m := re.FindStringSubmatch(d.stdout.String()); m != nil {
				return m
			}
			t.Fatalf("osnd exited %d before printing %q\nstdout:\n%s\nstderr:\n%s", d.code, re, d.stdout, d.stderr)
		}
	}
}

// stop cancels the run, as SIGTERM does, waits for run to return and
// requires exit 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if d.stopped {
		return
	}
	d.stopped = true
	d.cancel()
	<-d.exited
	if d.code != 0 {
		t.Errorf("osnd exited %d\nstderr:\n%s", d.code, d.stderr)
	}
}

// child is one of this module's one-shot commands run by `go run` as a
// child process. It exits by itself and is waited for, at the latest when
// the test ends.
type child struct {
	name           string
	stdout, stderr bytes.Buffer
	done           chan struct{}
	err            error // the exit, once done is closed
}

// statSources stats every Go file of the module once. go test caches a
// passing result by the files this process touched, not by those a child
// builds from, so without it a change to hsprofile alone would be answered
// from the cache. A failed walk only loses that, so its error is dropped.
var statSources sync.Once

// goStart starts `go run hsprofiler/cmd/<name>` with args.
func goStart(t *testing.T, name string, args ...string) *child {
	t.Helper()
	statSources.Do(func() {
		root := filepath.Join("..", "..")
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			case strings.HasSuffix(path, ".go"):
				_, err = os.Stat(path)
			}
			return err
		})
	})
	c := &child{name: name, done: make(chan struct{})}
	cmd := exec.Command("go", append([]string{"run", "hsprofiler/cmd/" + name}, args...)...)
	cmd.Stdout, cmd.Stderr = &c.stdout, &c.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	t.Cleanup(func() { <-c.done })
	return c
}

// wait waits for the child, requires exit 0 and returns its stdout.
func (c *child) wait(t *testing.T) string {
	t.Helper()
	<-c.done
	if c.err != nil {
		t.Fatalf("%s: %v\n%s", c.name, c.err, c.stderr.String())
	}
	return c.stdout.String()
}

// goRun runs a child to completion and returns its stdout.
func goRun(t *testing.T, name string, args ...string) string {
	t.Helper()
	return goStart(t, name, args...).wait(t)
}

// get fetches url, requires a 200 and returns the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// getJSON fetches url and decodes its body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(get(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// readJSON decodes the file at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// A -metrics-addr that is already taken fails the start: exit 1, the flag
// named on stderr, and no banner for the metrics listener.
func TestBadMetricsAddrFails(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	// A run that ignores the failure serves until the deadline, then exits 0.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-scenario", "tiny", "-addr", "127.0.0.1:0", "-metrics-addr", held.Addr().String()}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-metrics-addr") {
		t.Errorf("stderr does not name -metrics-addr:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "metrics on") {
		t.Errorf("stdout announces the metrics listener:\n%s", stdout.String())
	}
}

// run stops what it starts: cancelled after the first epoch of an
// unbounded -evolve, it returns 0 within the shutdown grace, and nothing
// is printed after it returned.
func TestRunStopsWhatItStarts(t *testing.T) {
	const interval = 20 * time.Millisecond
	d := startOSND(t, "-scenario", "tiny", "-addr", "127.0.0.1:0", "-evolve", "-evolve-interval", interval.String())
	d.await(t, regexp.MustCompile(`osnd: epoch 1 `))
	d.cancel()
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second): // the default -shutdown-grace
		t.Fatal("run did not return within the shutdown grace")
	}
	d.stop(t)
	out := d.stdout.String()
	time.Sleep(10 * interval)
	if late := strings.TrimPrefix(d.stdout.String(), out); late != "" {
		t.Errorf("stdout gained lines after run returned:\n%s", late)
	}
}
