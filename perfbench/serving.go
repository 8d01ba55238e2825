package main

// The serve-point and serve-rank workloads.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"inf2vec/internal/serve"
)

const (
	warmup = time.Second
	// setupRepsPoint and setupRepsRank are how many cold starts a run times;
	// setup_s is their median. serve-rank's start includes a multi-second
	// index build, so it repeats fewer times.
	setupRepsPoint = 31
	setupRepsRank  = 3
	// loadInstances is how many of those servers share the measured window.
	loadInstances = 3
	// activationEvery puts one /v1/activation among every eight requests
	// of serve-point.
	activationEvery = 8
	// seedsPerServer is how many /v1/seeds requests serve-rank sends to each
	// measured server, one at a time after its top-k window. Mixed into the
	// top-k stream, CELF took most of the time of the client that sent it and
	// a core of the server's, and the top-k p50 then spread by 27% over ten
	// seeds, against 16% for the index build of the same runs.
	seedsPerServer = 8
	topK           = 10
	// recallFloor is the least mean recall@10 the ivf answers of serve-rank
	// may have against the benchmark's brute-force top-k.
	recallFloor = 0.9
	// seedsCheckRuns is how many cascades the benchmark simulates to check
	// each served spread.
	seedsCheckRuns = 400
)

type pair struct{ u, v int32 }

// servingInputs is the request streams and reference model of the serving
// dataset, parsed before any clock starts.
type servingInputs struct {
	model      string
	graph      string
	ref        *refModel
	scores     []pair
	activation []activationBody
	actRaw     [][]byte
	sources    []int32
	seeds      []seedsBody
	seedsRaw   [][]byte
}

func loadServingInputs(dirs inputDirs, withSeeds bool) (*servingInputs, error) {
	dir := dirs.reqs
	in := &servingInputs{model: filepath.Join(dirs.data, "model.i2v"), graph: filepath.Join(dirs.data, "graph.tsv")}
	var err error
	if in.ref, err = readRefModel(in.model); err != nil {
		return nil, err
	}
	lines, err := readLines(filepath.Join(dir, "score.tsv"))
	if err != nil {
		return nil, err
	}
	for _, l := range lines {
		var p pair
		if _, err := fmt.Sscanf(l, "%d\t%d", &p.u, &p.v); err != nil {
			return nil, fmt.Errorf("score.tsv: %w", err)
		}
		in.scores = append(in.scores, p)
	}
	if in.sources, err = readUsers(filepath.Join(dir, "topk.tsv")); err != nil {
		return nil, err
	}
	if lines, err = readLines(filepath.Join(dir, "activation.jsonl")); err != nil {
		return nil, err
	}
	for _, l := range lines {
		var b activationBody
		if err := json.Unmarshal([]byte(l), &b); err != nil {
			return nil, fmt.Errorf("activation.jsonl: %w", err)
		}
		in.activation = append(in.activation, b)
		in.actRaw = append(in.actRaw, []byte(l))
	}
	if withSeeds {
		if lines, err = readLines(filepath.Join(dir, "seeds.jsonl")); err != nil {
			return nil, err
		}
		for _, l := range lines {
			var b seedsBody
			if err := json.Unmarshal([]byte(l), &b); err != nil {
				return nil, fmt.Errorf("seeds.jsonl: %w", err)
			}
			in.seeds = append(in.seeds, b)
			in.seedsRaw = append(in.seedsRaw, []byte(l))
		}
	}
	return in, nil
}

func readUsers(path string) ([]int32, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	out := make([]int32, len(lines))
	for i, l := range lines {
		u, err := strconv.ParseInt(l, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[i] = int32(u)
	}
	return out, nil
}

// scoreOp is the i-th /v1/score request with its check.
func (in *servingInputs) scoreOp(i int) op {
	p := in.scores[i%len(in.scores)]
	return op{
		name: "client.score", method: http.MethodGet,
		path: "/v1/score?source=" + strconv.Itoa(int(p.u)) + "&target=" + strconv.Itoa(int(p.v)),
		check: func(b []byte) error {
			var a struct {
				Source, Target int32
				Score          float64
			}
			if err := json.Unmarshal(b, &a); err != nil {
				return err
			}
			return in.ref.checkScore(p.u, p.v, a.Source, a.Target, a.Score, false)
		},
	}
}

func (in *servingInputs) activationOp(i int) op {
	j := i % len(in.activation)
	req := in.activation[j]
	return op{
		class: 1, name: "client.activation", method: http.MethodPost, path: "/v1/activation", body: in.actRaw[j],
		check: func(b []byte) error {
			var a struct {
				Candidate   int32
				Agg         string
				ActiveCount int `json:"active_count"`
				Score       float64
			}
			if err := json.Unmarshal(b, &a); err != nil {
				return err
			}
			if a.Candidate != req.Candidate || !strings.EqualFold(a.Agg, req.Agg) || a.ActiveCount != len(req.Active) {
				return fmt.Errorf("activation: answer %+v does not echo request %+v", a, req)
			}
			return in.ref.checkActivation(req.Active, req.Candidate, req.Agg, a.Score)
		},
	}
}

func topkPath(u int32) string {
	return "/v1/topk?source=" + strconv.Itoa(int(u)) + "&k=" + strconv.Itoa(topK)
}

// topkAnswer is the /v1/topk response shape.
type topkAnswer struct {
	Source  int32
	Results []ranked
}

// coldStart times one server start: construct (read, validate and convert
// the model, build the index, load the graph), listen, and the first
// answer. It also measures the live heap the start added, after a GC.
func coldStart(cfg serve.Config, first op) (*liveServer, float64, float64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s, err := serve.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	ls, err := start(s)
	if err != nil {
		return nil, 0, 0, err
	}
	cs := newClients(ls.base, 1)
	status, err := cs[0].do(first.method, first.path, first.body)
	setup := time.Since(t0).Seconds()
	closeClients(cs)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first answer: HTTP %d", status)
	}
	if err != nil {
		ls.stop()
		return nil, 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return ls, setup, (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6, nil
}

// serveWindows runs reps cold starts of the server cfg builds and sets
// setup_s and heap_mb from their medians. Every (reps/loadInstances)-th
// server, after its warm-up, carries an equal share of the measured
// window under closed-loop load from procs() clients; their windows are
// pooled. The same requests on one server process ran up to 40% apart in
// p50 from one process to the next, so the window spreads over several,
// and the cold starts between them spread setup_s over the whole run.
// after, if set, runs on the k-th measured server once its window ends.
func serveWindows(r *run, reps int, cfg func(*slog.Logger) serve.Config, first op, classes int, next func(c, i int) op, after func(base string, k int)) (*loadStats, error) {
	var setups, heaps []float64
	out := &loadStats{lat: make([][]float64, classes)}
	stride, loaded := reps/loadInstances, 0
	for i := 0; i < reps; i++ {
		logger, closeLog, err := fileLogger(filepath.Join(r.scratch, fmt.Sprintf("access-%d.log", i)), "info")
		if err != nil {
			return nil, err
		}
		ls, setup, heap, err := coldStart(cfg(logger), first)
		if err != nil {
			closeLog()
			return nil, err
		}
		ls.onStop = append(ls.onStop, closeLog)
		setups = append(setups, setup)
		heaps = append(heaps, heap)
		if (i+1)%stride == 0 && loaded < loadInstances {
			clients := newClients(ls.base, procs())
			closedLoop(clients, warmup, classes, next, nil)
			r.beginWindow()
			out.add(closedLoop(clients, r.window/loadInstances, classes, next, r.rec))
			r.endWindow()
			closeClients(clients)
			if after != nil {
				after(ls.base, loaded)
			}
			loaded++
		}
		if err := ls.stop(); err != nil {
			return nil, err
		}
	}
	r.set("setup_s", "s", median(setups))
	r.set("heap_mb", "MB", median(heaps))
	return out, nil
}

// servingConfig returns a builder of the server configuration over the
// serving model, given the access logger.
func servingConfig(in *servingInputs, graph, precision, topk string) func(*slog.Logger) serve.Config {
	return func(logger *slog.Logger) serve.Config {
		return serveConfig(in.model, graph, precision, topk, logger)
	}
}

func measureServePoint(r *run, dirs inputDirs) error {
	in, err := loadServingInputs(dirs, false)
	if err != nil {
		return err
	}
	stride := len(in.scores) / procs()
	next := func(c, i int) op {
		if i%activationEvery == activationEvery-1 {
			return in.activationOp(c*len(in.activation)/procs() + i/activationEvery)
		}
		return in.scoreOp(c*stride + i)
	}
	st, err := serveWindows(r, setupRepsPoint, servingConfig(in, "", "fp32", serve.TopKIndexExact), in.scoreOp(0), 2, next, nil)
	if err != nil {
		return err
	}
	if err := r.reportRequests(st, 0, 1); err != nil {
		return err
	}
	r.set("heavy_p50_ms", "ms", median(st.lat[1]))
	return nil
}

// reportRequests sets the latency and throughput metrics of a window —
// latency over the given op classes, throughput over all — and accounts
// its operations.
func (r *run) reportRequests(st *loadStats, classes ...int) error {
	r.attempted += st.completed + st.failed
	r.failure(st.failed, st.firstErr)
	r.mismatch(st.mismatch, st.firstErr)
	p50, p99, rate, err := windowStats(st.classes(classes...), st.completed, st.window)
	if err != nil {
		return err
	}
	r.set("p50_ms", "ms", p50)
	r.set("ops_per_s", "1/s", rate)
	r.p99 = p99
	return nil
}

func measureServeRank(r *run, dirs inputDirs) error {
	in, err := loadServingInputs(dirs, true)
	if err != nil {
		return err
	}
	adj, err := readAdjacency(in.graph)
	if err != nil {
		return err
	}
	sim := newCascadeSim(adj, in.ref, -2)
	first := op{method: http.MethodGet, path: topkPath(in.sources[0])}

	// Answers, warm-up ones included, are kept for the recall check, which
	// needs the whole run: recall against brute force per distinct source.
	var mu sync.Mutex
	answers := map[int32][]ranked{}
	stride := len(in.sources) / procs()
	next := func(c, i int) op {
		u := in.sources[(c*stride+i)%len(in.sources)]
		return op{name: "client.topk", method: http.MethodGet, path: topkPath(u),
			check: func(b []byte) error {
				var a topkAnswer
				if err := json.Unmarshal(b, &a); err != nil {
					return err
				}
				if a.Source != u {
					return fmt.Errorf("topk(%d): answer is for %d", u, a.Source)
				}
				if err := in.ref.checkTopK(u, topK, a.Results, true); err != nil {
					return err
				}
				mu.Lock()
				if _, ok := answers[u]; !ok {
					answers[u] = a.Results
				}
				mu.Unlock()
				return nil
			}}
	}
	// After its top-k window, each measured server answers the next
	// seedsPerServer requests of the seeds stream, all distinct, so every
	// run sends the same requests; each spread is checked against a
	// simulation.
	rng := rand.New(rand.NewPCG(r.seed, 0xc0ffee))
	seeds := &loadStats{lat: make([][]float64, 1)}
	after := func(base string, k int) {
		ops := make([]op, seedsPerServer)
		for i := range ops {
			j := k*seedsPerServer + i
			req := in.seeds[j]
			ops[i] = op{name: "client.seeds", method: http.MethodPost, path: "/v1/seeds", body: in.seedsRaw[j],
				check: func(b []byte) error {
					var a seedsAnswer
					if err := json.Unmarshal(b, &a); err != nil {
						return err
					}
					return sim.checkSeeds(req, a, seedsCheckRuns, rng)
				}}
		}
		cs := newClients(base, 1)
		seeds.add(sequence(cs[0], 1, ops, r.rec))
		closeClients(cs)
	}
	st, err := serveWindows(r, setupRepsRank, servingConfig(in, in.graph, "int8", serve.TopKIndexIVF), first, 1, next, after)
	if err != nil {
		return err
	}
	if err := r.reportRequests(st, 0); err != nil {
		return err
	}
	r.attempted += seeds.completed + seeds.failed
	r.failure(seeds.failed, seeds.firstErr)
	r.mismatch(seeds.mismatch, seeds.firstErr)
	if len(seeds.lat[0]) == 0 {
		return fmt.Errorf("no /v1/seeds request completed")
	}
	r.set("heavy_p50_ms", "ms", median(seeds.lat[0]))

	// Recall against brute force, over every distinct source answered.
	r.recall = meanRecall(in.ref, answers)
	if r.recall < recallFloor {
		r.mismatch(1, fmt.Errorf("topk: mean recall@%d %.4f below the floor %.2f", topK, r.recall, recallFloor))
	}
	return nil
}

// meanRecall is the mean recall@k of the answers against brute force,
// computed on every core.
func meanRecall(ref *refModel, answers map[int32][]ranked) float64 {
	us := make([]int32, 0, len(answers))
	for u := range answers {
		us = append(us, u)
	}
	var wg sync.WaitGroup
	sums := make([]float64, procs())
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(us); i += len(sums) {
				sums[w] += recall(answers[us[i]], ref.bruteTopK(us[i], topK))
			}
		}(w)
	}
	wg.Wait()
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total / float64(len(us))
}
