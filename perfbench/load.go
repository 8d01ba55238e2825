package main

// Closed-loop load over loopback TCP, and the in-process server the
// workloads drive.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"inf2vec/internal/obs"
	"inf2vec/internal/serve"
)

// defaultTimeout is cmd/serve's default per-request deadline.
const defaultTimeout = 2 * time.Second

// serveConfig is cmd/serve's default configuration for one model: JSON
// access log at info level, tracing at the daemon sample rate, and the
// default deadlines, limits and seeds settings. Only the listen address
// (an ephemeral loopback port) and the log destination differ.
func serveConfig(model, graph, precision, topk string, logger *slog.Logger) serve.Config {
	return serve.Config{
		Addr:             "127.0.0.1:0",
		ModelPath:        model,
		ModelPrecision:   precision,
		DefaultTimeout:   defaultTimeout,
		MaxTimeout:       30 * time.Second,
		MaxInFlight:      256,
		DrainTimeout:     10 * time.Second,
		Logger:           logger,
		Trace:            obs.TracerConfig{SampleRate: 0.01, SlowThreshold: 100 * time.Millisecond, RingSize: 256},
		TopKIndex:        topk,
		GraphPath:        graph,
		SeedsMaxInFlight: 2,
		SeedsCacheSize:   128,
		SeedsOffset:      -2,
	}
}

// fileLogger opens a JSON info-level logger on a file, as cmd/serve logs to
// its stderr; the returned close function flushes nothing (slog writes
// through) and closes the file.
func fileLogger(path, level string) (*slog.Logger, func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	l, err := obs.NewLogger(f, "json", level)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, func() { f.Close() }, nil
}

// liveServer is a serve.Server running its own listener in this process.
type liveServer struct {
	s      *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
	onStop []func()
}

// start runs s on its configured address and waits until it listens.
func start(s *serve.Server) (*liveServer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{s: s, cancel: cancel, done: make(chan error, 1)}
	go func() { ls.done <- s.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for s.Addr() == "" {
		select {
		case err := <-ls.done:
			cancel()
			return nil, fmt.Errorf("server exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			ls.stop()
			return nil, fmt.Errorf("server did not listen within 10s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	ls.base = "http://" + s.Addr()
	return ls, nil
}

// stop drains the server and waits for Run to return.
func (ls *liveServer) stop() error {
	ls.cancel()
	err := <-ls.done
	for _, f := range ls.onStop {
		f()
	}
	return err
}

// client is one keep-alive connection's worth of request state.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

// do sends one request and reads the whole response into c.buf.
func (c *client) do(method, path string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// op is one request of a workload's stream. check runs after the latency
// sample is taken, so verifying an answer never inflates its latency.
type op struct {
	class  int
	name   string // span name in traced runs
	method string
	path   string
	body   []byte
	check  func(body []byte) error
}

// loadStats is what one closed-loop window observed.
type loadStats struct {
	lat       [][]float64 // latencies in milliseconds, per op class
	completed int64
	failed    int64
	window    time.Duration
	mismatch  int64
	firstErr  error
}

// add pools another window into ls.
func (ls *loadStats) add(o *loadStats) {
	for k := range ls.lat {
		ls.lat[k] = append(ls.lat[k], o.lat[k]...)
	}
	ls.completed += o.completed
	ls.failed += o.failed
	ls.mismatch += o.mismatch
	ls.window += o.window
	if ls.firstErr == nil {
		ls.firstErr = o.firstErr
	}
}

func (ls *loadStats) classes(cs ...int) []float64 {
	var out []float64
	for _, c := range cs {
		out = append(out, ls.lat[c]...)
	}
	return out
}

// windowStats pools a whole window: the median and 99th percentile of the
// given latencies, and the completion rate of all requests. A window too
// small for a p99 (fewer than ten samples beyond it) is an error.
func windowStats(lat []float64, completed int64, window time.Duration) (p50, p99, rate float64, err error) {
	if len(lat) == 0 {
		return 0, 0, 0, fmt.Errorf("no request completed")
	}
	p99, ok := tailQuantile(lat, 0.99)
	if !ok {
		return 0, 0, 0, fmt.Errorf("%d requests are too few for a p99", len(lat))
	}
	return median(lat), p99, float64(completed) / window.Seconds(), nil
}

// closedLoop runs one goroutine per client for d; each sends its next op
// only after the previous answer arrived. next(c, i) gives client c's i-th
// op. With rec set, every request also records a client span.
func closedLoop(clients []*client, d time.Duration, classes int, next func(c, i int) op, rec *recorder) *loadStats {
	out := &loadStats{lat: make([][]float64, classes)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			st := &loadStats{lat: make([][]float64, classes)}
			for i := 0; time.Now().Before(end); i++ {
				st.send(c, ci, next(ci, i), rec)
			}
			mu.Lock()
			defer mu.Unlock()
			out.add(st)
		}(ci, c)
	}
	wg.Wait()
	out.window = time.Since(start)
	return out
}

// sequence sends ops one after another from one client, however long
// they take.
func sequence(c *client, classes int, ops []op, rec *recorder) *loadStats {
	st := &loadStats{lat: make([][]float64, classes)}
	start := time.Now()
	for _, o := range ops {
		st.send(c, 0, o, rec)
	}
	st.window = time.Since(start)
	return st
}

// send sends o from client c (thread ci in spans), records its latency
// or failure in ls, and then checks the answer.
func (ls *loadStats) send(c *client, ci int, o op, rec *recorder) {
	t0 := time.Now()
	sp := rec.start(o.name, nil, ci)
	status, err := c.do(o.method, o.path, o.body)
	el := time.Since(t0)
	sp.end()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s %s: HTTP %d: %s", o.method, o.path, status, bytes.TrimSpace(c.buf.Bytes()))
	}
	if err != nil {
		ls.failed++
		if ls.firstErr == nil {
			ls.firstErr = err
		}
		return
	}
	ls.completed++
	ls.lat[o.class] = append(ls.lat[o.class], ms(el))
	if o.check != nil {
		if err := o.check(c.buf.Bytes()); err != nil {
			ls.mismatch++
			if ls.firstErr == nil {
				ls.firstErr = err
			}
		}
	}
}

// newClients returns n clients sharing one transport capped at n
// connections, one per client.
func newClients(base string, n int) []*client {
	tr := newTransport(n)
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{hc: hc, base: base}
	}
	return cs
}

func closeClients(cs []*client) {
	if len(cs) > 0 {
		cs[0].hc.CloseIdleConnections()
	}
}

// scratchDir makes the run's private working directory under the build
// directory; the caller removes it.
func scratchDir(buildDir string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, fmt.Sprintf("run-%d-", os.Getpid()))
}
