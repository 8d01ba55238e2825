package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/datagen"
	"inf2vec/internal/graph"
	"inf2vec/internal/obs"
	"inf2vec/internal/pipeline"
)

// A datasetSpec is one input family: a digg-like graph and action log
// scaled to a size, its splits, a trained model where the workload serves
// one, and the request streams the load generator replays. The dataset
// and the streams are deterministic functions of (spec, seed) and are
// cached in separate directories whose names carry both, so a cached copy
// is interchangeable with a fresh one.
type datasetSpec struct {
	kind  string
	users int32 // 0 keeps the preset's universe
	items int32
	// modelIters > 0 trains and stores a serving model with that many SGD
	// passes (one worker, so the bytes depend on the seed alone).
	modelIters int
	// trainFrac and streamFrac split episodes into the training log, the
	// stream that freshness appends, and the held-out rest.
	trainFrac, streamFrac float64
	// dataSeed, when nonzero, fixes the dataset and the /v1/seeds stream
	// whatever the run's seed, which then draws the other request streams.
	dataSeed uint64
}

var (
	// servingSpec is the universe behind serve-point and serve-rank: large
	// enough that the IVF index prunes most users per query (two shards of
	// 10k rows, 300 clusters each, 24 probed). Its dataset is fixed: the
	// cost of a /v1/seeds request follows the cascade regime of the served
	// model, which moves by ±12% between generated datasets, more than the
	// benchmark's bounds.
	servingSpec = datasetSpec{kind: "serving", users: 20000, items: 120, modelIters: 2, trainFrac: 0.8, streamFrac: 0.1, dataSeed: 1}
	// freshSpec is small so one pipeline round (ten single-worker epochs
	// over the whole consumed log) takes about a second and a run holds
	// several rounds. Half the episodes are held out: the log the pipeline
	// trains on stays small while the AUC is taken over ~160 episodes, so
	// it does not swing with a handful of them. The stream holds more
	// episodes than a run has rounds, so each round appends a distinct one.
	// The dataset is fixed, as the serving one is: a round retrains over the
	// whole log, whose size differs between generated datasets, and with a
	// dataset per seed the round time spread by 16% (IQR/median over ten seeds),
	// against 7% over five seeds with one dataset. The seed draws the
	// reader's stream and the pipeline's training seed.
	freshSpec = datasetSpec{kind: "fresh", users: 640, items: 320, trainFrac: 0.35, streamFrac: 0.15, dataSeed: 1}
	// trainSpec is the unmodified digg-like preset, the paper's Table II and
	// Fig. 9 setting.
	trainSpec = datasetSpec{kind: "train", trainFrac: 0.8, streamFrac: 0.1}
)

// inputsVersion is bumped whenever the generated files change shape, so a
// stale cache is regenerated rather than misread.
const inputsVersion = 5

// Request stream sizes. The load generator cycles through each stream; the
// seeds stream is long enough that no run repeats a request.
const (
	numScoreReqs      = 8192
	numActivationReqs = 2048
	numTopKReqs       = 8192
	numSeedsReqs      = 4096
)

// Every /v1/seeds request has the shape of the README's explicit-list
// example, {"k":3,"policy":"list","candidates":[3,12,40,77]}: three seeds
// from four candidates, with mc_runs left out so the server's default
// applies. The README's other example, {"k":5,"mc_runs":100} over the
// default 100-user degree shortlist, needs ~18 s on the serving universe,
// far past the server's 2 s default deadline; the traced run measures how
// far it gets within that deadline (infmax.default_req_evals).
const (
	seedsK          = 3
	seedsCandidates = 4
	// seedsMCRuns is the server's default Monte-Carlo run count.
	seedsMCRuns = 100
	// defaultReqK and defaultReqPool are the README's default-policy request:
	// five seeds from the 100 highest out-degree users, at the default runs.
	defaultReqK    = 5
	defaultReqPool = 100
)

// inputDirs locates one run's inputs: the dataset (graph, logs, model,
// pipeline state) and the request streams drawn for the run's seed.
type inputDirs struct{ data, reqs string }

func (d datasetSpec) name(part string, seed uint64) string {
	return fmt.Sprintf("%s-%s-v%d-u%d-i%d-m%d-s%d", d.kind, part, inputsVersion, d.users, d.items, d.modelIters, seed)
}

// ensureInputs returns the cache directories for (spec, seed), generating
// what is missing, or everything when regen is set.
func ensureInputs(cacheRoot string, d datasetSpec, seed uint64, regen bool) (inputDirs, error) {
	dataSeed := seed
	if d.dataSeed != 0 {
		dataSeed = d.dataSeed
	}
	var in inputDirs
	var err error
	in.data, err = ensureDir(cacheRoot, d.name("data", dataSeed), regen, func(dir string) error {
		return generateData(dir, d, dataSeed)
	})
	if err != nil {
		return in, fmt.Errorf("generating %s dataset: %w", d.kind, err)
	}
	in.reqs, err = ensureDir(cacheRoot, d.name("requests", seed), regen, func(dir string) error {
		return generateRequests(dir, in.data, d, seed)
	})
	if err != nil {
		return in, fmt.Errorf("generating %s requests: %w", d.kind, err)
	}
	return in, nil
}

// ensureDir returns cacheRoot/name, running gen to fill it first when it
// is missing or regen is set. gen writes into a temporary sibling that is
// renamed into place, so an interrupted run never leaves a half-written
// cache entry behind.
func ensureDir(cacheRoot, name string, regen bool, gen func(dir string) error) (string, error) {
	dir := filepath.Join(cacheRoot, name)
	if !regen {
		if _, err := os.Stat(filepath.Join(dir, "done")); err == nil {
			return dir, nil
		}
	}
	if err := os.MkdirAll(cacheRoot, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(cacheRoot, name+".tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	if err := gen(tmp); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, "done"), nil, 0o644); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

func generateData(dir string, d datasetSpec, seed uint64) error {
	cfg := datagen.DiggLike(seed)
	if d.users > 0 {
		cfg.NumUsers, cfg.NumItems = d.users, d.items
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}
	train, stream, test, err := ds.Log.Split(seed+101, d.trainFrac, d.streamFrac)
	if err != nil {
		return err
	}
	if err := writeGraph(filepath.Join(dir, "graph.tsv"), ds.Graph); err != nil {
		return err
	}
	for name, l := range map[string]*actionlog.Log{"actions.tsv": train, "stream.tsv": stream, "heldout.tsv": test} {
		if err := writeLog(filepath.Join(dir, name), l); err != nil {
			return err
		}
	}
	if d.modelIters > 0 {
		res, err := core.Train(ds.Graph, train, core.Config{
			Dim: 50, ContextLength: 50, Alpha: 0.1, LearningRate: 0.025,
			NegativeSamples: 5, Iterations: d.modelIters, Workers: 1, Seed: seed,
		})
		if err != nil {
			return err
		}
		if err := res.Model.Store.SaveFile(filepath.Join(dir, "model.i2v")); err != nil {
			return err
		}
	}
	if d.kind == freshSpec.kind {
		return bootstrapFresh(dir, ds.Graph, seed)
	}
	return nil
}

// generateRequests draws the request streams for a seed from the dataset
// in dataDir.
func generateRequests(dir, dataDir string, d datasetSpec, seed uint64) error {
	g, err := readGraph(filepath.Join(dataDir, "graph.tsv"))
	if err != nil {
		return err
	}
	train, err := readLog(filepath.Join(dataDir, "actions.tsv"), g.NumNodes())
	if err != nil {
		return err
	}
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	src := newActivitySampler(train)
	if d.modelIters > 0 {
		if err := writeScoreReqs(filepath.Join(dir, "score.tsv"), g, src, r); err != nil {
			return err
		}
		if err := writeActivationReqs(filepath.Join(dir, "activation.jsonl"), g, train, src, r); err != nil {
			return err
		}
		// The seeds stream comes from the fixed dataset seed, so every run
		// sends the same sequence of distinct requests: one request's cost
		// follows the cascades its candidates start and varies threefold
		// between candidate sets, and a run completes only ~40 of them.
		if err := writeSeedsReqs(filepath.Join(dir, "seeds.jsonl"), src, rand.New(rand.NewPCG(d.dataSeed, 0x5eed5))); err != nil {
			return err
		}
	}
	return writeUsers(filepath.Join(dir, "topk.tsv"), src, r, numTopKReqs)
}

// bootstrapFresh runs the pipeline's first round over the initial log, so
// the cache holds the state directory a restarted daemon recovers from.
func bootstrapFresh(dir string, g *graph.Graph, seed uint64) error {
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	if err := copyFile(filepath.Join(dir, "actions.tsv"), filepath.Join(state, "actions.tsv")); err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	p, err := pipeline.New(freshPipelineConfig(state, g, seed, logger, nil, obs.NewRegistry()))
	if err != nil {
		return err
	}
	published, err := p.Step(context.Background())
	if err != nil {
		return err
	}
	if !published {
		return fmt.Errorf("bootstrap round published nothing")
	}
	return nil
}

// freshPipelineConfig is cmd/pipeline's default configuration over the
// files of a state directory.
func freshPipelineConfig(state string, g *graph.Graph, seed uint64, logger *slog.Logger, tracer *obs.Tracer, reg *obs.Registry) pipeline.Config {
	return pipeline.Config{
		Graph:     g,
		LogPath:   filepath.Join(state, "actions.tsv"),
		ModelPath: filepath.Join(state, "model.i2v"),
		Train: core.Config{
			Dim: 50, ContextLength: 50, Alpha: 0.1, LearningRate: 0.005,
			Iterations: 10, NegativeSamples: 5, Workers: 1, Seed: seed,
		},
		Logger:   logger,
		Registry: reg,
		Tracer:   tracer,
	}
}

// activitySampler draws users in proportion to their action counts in the
// training log, so request sources are as heavy-tailed as the log's
// activity and hot rows repeat the way they do in real traffic.
type activitySampler struct {
	users []int32
	cum   []int64
}

func newActivitySampler(l *actionlog.Log) *activitySampler {
	s := &activitySampler{}
	var total int64
	for u, c := range l.UserActionCounts() {
		if c > 0 {
			total += c
			s.users = append(s.users, int32(u))
			s.cum = append(s.cum, total)
		}
	}
	return s
}

func (s *activitySampler) draw(r *rand.Rand) int32 {
	x := r.Int64N(s.cum[len(s.cum)-1])
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > x })
	return s.users[i]
}

// target picks the user whose influence from u is asked about: an
// out-neighbour when u has one (the question a feed ranker asks), otherwise
// another active user.
func target(g *graph.Graph, s *activitySampler, r *rand.Rand, u int32) int32 {
	if out := g.OutNeighbors(u); len(out) > 0 {
		return out[r.IntN(len(out))]
	}
	for {
		if v := s.draw(r); v != u {
			return v
		}
	}
}

func writeScoreReqs(path string, g *graph.Graph, s *activitySampler, r *rand.Rand) error {
	return writeLines(path, numScoreReqs, func(int) string {
		u := s.draw(r)
		return fmt.Sprintf("%d\t%d", u, target(g, s, r, u))
	})
}

func writeUsers(path string, s *activitySampler, r *rand.Rand, n int) error {
	return writeLines(path, n, func(int) string { return strconv.Itoa(int(s.draw(r))) })
}

// activationBody is the /v1/activation request shape.
type activationBody struct {
	Active    []int32 `json:"active"`
	Candidate int32   `json:"candidate"`
	Agg       string  `json:"agg"`
}

// writeActivationReqs takes the active set from the first adopters of a
// training episode and asks about a follower of the latest of them.
func writeActivationReqs(path string, g *graph.Graph, l *actionlog.Log, s *activitySampler, r *rand.Rand) error {
	return writeLines(path, numActivationReqs, func(int) string {
		var ep *actionlog.Episode
		for ep == nil || ep.Len() < 2 {
			ep = l.Episode(r.IntN(l.NumEpisodes()))
		}
		n := 1 + r.IntN(min(5, ep.Len()-1))
		body := activationBody{Agg: "ave"}
		for _, rec := range ep.Records[:n] {
			body.Active = append(body.Active, rec.User)
		}
		body.Candidate = target(g, s, r, body.Active[n-1])
		if r.IntN(4) == 0 {
			body.Agg = "max"
		}
		b, _ := json.Marshal(body)
		return string(b)
	})
}

// seedsBody is the /v1/seeds request shape.
type seedsBody struct {
	K          int     `json:"k"`
	MCRuns     int     `json:"mc_runs,omitempty"`
	Policy     string  `json:"policy"`
	Candidates []int32 `json:"candidates"`
}

// runs is the Monte-Carlo run count the server uses for the request.
func (b seedsBody) runs() int {
	if b.MCRuns == 0 {
		return seedsMCRuns
	}
	return b.MCRuns
}

// writeSeedsReqs writes distinct candidate pools, so every request runs CELF
// and none is answered from the server's result cache.
func writeSeedsReqs(path string, s *activitySampler, r *rand.Rand) error {
	seen := make(map[string]bool)
	return writeLines(path, numSeedsReqs, func(int) string {
		for {
			pool := make(map[int32]bool)
			for len(pool) < seedsCandidates {
				pool[s.draw(r)] = true
			}
			body := seedsBody{K: seedsK, Policy: "list"}
			for u := range pool {
				body.Candidates = append(body.Candidates, u)
			}
			sort.Slice(body.Candidates, func(i, j int) bool { return body.Candidates[i] < body.Candidates[j] })
			b, _ := json.Marshal(body)
			if !seen[string(b)] {
				seen[string(b)] = true
				return string(b)
			}
		}
	})
}

func writeLines(path string, n int, line func(i int) string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < n; i++ {
		w.WriteString(line(i))
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLines(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"), nil
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeLog(path string, l *actionlog.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := actionlog.WriteTSV(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f, 0)
}

func readLog(path string, numUsers int32) (*actionlog.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return actionlog.ReadTSV(f, numUsers)
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// procs is the core count the run sees; client goroutines and connections
// never exceed it.
func procs() int { return runtime.GOMAXPROCS(0) }
