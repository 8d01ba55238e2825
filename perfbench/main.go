// Command perfbench is the repository's end-to-end benchmark. It drives the
// program through its public surface — the HTTP API over loopback TCP,
// pipeline.Pipeline.Step and core training — on inputs generated from a
// seed, checks every answer against an independent recomputation, and
// prints one JSON result line.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload serve-point|serve-rank|freshness|train
//	          [--seed N] [--seconds S] [--trace 0|1]
//	perfbench --workload W --repeat N [--seed N] [--seconds S]
//	perfbench --workload W --gen-inputs [--seed N]
//
// Every workload reports every metric BENCHMARK.json lists: with --trace 0
// its end_to_end metrics, with --trace 1 its per_layer ones. The result
// line holds exactly those; the figures a workload measures beyond them
// are printed above it.
//
// --trace 1 is the traced run: it runs the workload untraced and then with
// the benchmark's own spans, measures each layer from outside, writes the
// spans as JSONL and prints per-layer metrics instead of end-to-end ones.
// --repeat runs the workload N times in fresh processes with seeds
// N, N+1, ... and prints the median and quartiles of each metric.
// --gen-inputs rebuilds the workload's input cache for the seed and exits.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is the state one benchmark invocation shares across its phases.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	buildDir string // .bench_build in the checkout: inputs cache, scratch, traces
	scratch  string
	rec      *recorder // nil outside the traced pass

	attempted, failed int64
	mismatches        int64
	firstMismatch     error
	metrics           map[string]metricValue

	// untraced holds the traced run's untraced end-to-end metrics while its
	// layers are measured.
	untraced map[string]metricValue
	// Summed by endWindow: GC work during the measured windows.
	gcCycles  uint32
	gcPauseMS float64
	gcMark    runtime.MemStats
	// p99 is the last window's pooled p99 latency. It is reported only by
	// the traced run, without a bound: its run-to-run spread on a shared
	// machine is wider than any bound the benchmark may set.
	p99    float64
	recall float64      // mean top-k recall of the last serve-rank window
	fresh  *freshLayers // what the last freshness pass observed
}

// beginWindow and endWindow bracket a measured window to count the GC work
// done inside it.
func (r *run) beginWindow() { runtime.ReadMemStats(&r.gcMark) }

func (r *run) endWindow() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	r.gcCycles += now.NumGC - r.gcMark.NumGC
	r.gcPauseMS += float64(now.PauseTotalNs-r.gcMark.PauseTotalNs) / 1e6
}

// failure records operations that failed outright (transport errors,
// non-200 answers); the first one is printed to standard error.
func (r *run) failure(n int64, err error) {
	r.failed += n
	if n > 0 && err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
	}
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// mismatch records a wrong answer; the run then reports correct=false.
func (r *run) mismatch(n int64, err error) {
	r.mismatches += n
	if n > 0 && err != nil && r.firstMismatch == nil {
		r.firstMismatch = err
	}
}

type workload struct {
	spec datasetSpec
	// measure runs the workload once and sets its end-to-end metrics.
	measure func(r *run, in inputDirs) error
	// layers measures the per-layer metrics from outside the program, in
	// the traced run only.
	layers func(r *run, in inputDirs) error
	// primary names the end-to-end metric the tracing overhead compares.
	primary string
}

var workloads = map[string]workload{
	"serve-point": {spec: servingSpec, measure: measureServePoint, layers: layersServePoint, primary: "p50_ms"},
	"serve-rank":  {spec: servingSpec, measure: measureServeRank, layers: layersServeRank, primary: "p50_ms"},
	"freshness":   {spec: freshSpec, measure: measureFreshness, layers: layersFreshness, primary: "heavy_p50_ms"},
	"train":       {spec: trainSpec, measure: measureTrain, layers: layersTrain, primary: "p50_ms"},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "serve-point, serve-rank, freshness or train")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window per pass, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times with consecutive seeds and summarize")
	genInputs := flag.Bool("gen-inputs", false, "rebuild the input cache for the workload and seed, then exit")
	buildDir := flag.String("build-dir", ".bench_build", "directory for the input cache, scratch files and span files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	cache := filepath.Join(*buildDir, "inputs")
	if *genInputs {
		in, err := ensureInputs(cache, w.spec, *seed, true)
		if err == nil {
			fmt.Println(in.data)
			fmt.Println(in.reqs)
		}
		return err
	}
	if *repeat > 0 {
		return repeatRuns(*name, *seed, *seconds, *repeat, *buildDir)
	}
	listed, err := readManifest(manifest, *trace == 1)
	if err != nil {
		return err
	}
	inputs, err := ensureInputs(cache, w.spec, *seed, false)
	if err != nil {
		return err
	}
	scratch, err := scratchDir(*buildDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	r := &run{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		buildDir: *buildDir, scratch: scratch, metrics: map[string]metricValue{}}
	if *trace == 1 {
		err = tracedRun(r, w, inputs)
	} else {
		err = w.measure(r, inputs)
	}
	if err != nil {
		return err
	}
	if r.firstMismatch != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers; first: %v\n", r.mismatches, r.firstMismatch)
	}
	metrics, err := selectListed(r.metrics, listed)
	if err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	if *trace == 0 {
		printExtra(r.metrics, metrics)
	}
	out, err := json.Marshal(result{Correct: r.mismatches == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// manifest is the benchmark's manifest, read from the repository root the
// benchmark runs in.
const manifest = "BENCHMARK.json"

// listedMetric is one metric entry of BENCHMARK.json.
type listedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readManifest returns the end_to_end or, for the traced run, the
// per_layer metrics of the manifest at path.
func readManifest(path string, perLayer bool) ([]listedMetric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []listedMetric `json:"end_to_end"`
		PerLayer []listedMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if perLayer {
		return m.PerLayer, nil
	}
	return m.EndToEnd, nil
}

// selectListed returns the listed metrics from got. A listed metric the run
// did not measure, or measured in another unit, is an error: the result
// line must hold every one.
func selectListed(got map[string]metricValue, listed []listedMetric) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(listed))
	for _, l := range listed {
		v, ok := got[l.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", l.Name)
		}
		if v.Unit != l.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, listed in %s", l.Name, v.Unit, l.Unit)
		}
		out[l.Name] = v
	}
	return out, nil
}

// printExtra prints the figures of an untraced run that the result line
// does not hold.
func printExtra(all, listed map[string]metricValue) {
	var names []string
	for n := range all {
		if _, ok := listed[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-16s %14.4f %s\n", n, all[n].Value, all[n].Unit)
	}
}

// tracedRun measures the workload untraced, then again with spans, then
// each layer from outside; it reports per-layer metrics and the tracing
// overhead on the workload's primary metric.
func tracedRun(r *run, w workload, inputs inputDirs) error {
	if err := w.measure(r, inputs); err != nil {
		return err
	}
	untraced := r.metrics
	gcCycles, gcPause, p99 := r.gcCycles, r.gcPauseMS, r.p99

	r.rec = newRecorder()
	r.metrics = map[string]metricValue{}
	if err := w.measure(r, inputs); err != nil {
		return err
	}
	traced := r.metrics
	fmt.Printf("end-to-end, untraced vs traced (%s, seed %d, GOMAXPROCS %d):\n", r.workload, r.seed, runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(untraced))
	for n := range untraced {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-16s %14.4f %14.4f %s\n", n, untraced[n].Value, traced[n].Value, untraced[n].Unit)
	}

	r.metrics = map[string]metricValue{}
	r.untraced = untraced
	if err := w.layers(r, inputs); err != nil {
		return err
	}
	r.set("go.gc_cycles", "count", float64(gcCycles))
	r.set("go.gc_pause_ms", "ms", gcPause)
	if p99 > 0 {
		r.set("p99_ms", "ms", p99)
	}
	p := w.primary
	r.set("perfbench.trace_overhead_pct", "%", 100*(traced[p].Value-untraced[p].Value)/untraced[p].Value)

	spanFile := filepath.Join(r.buildDir, "traces", fmt.Sprintf("%s-s%d.jsonl", r.workload, r.seed))
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return err
	}
	if err := r.rec.writeJSONL(spanFile); err != nil {
		return err
	}
	fmt.Printf("\nspans: %s\nself time by span:\n", spanFile)
	printSelfTimes(os.Stdout, r.rec.selfTimes())
	fmt.Printf("\nper-layer metrics:\n")
	names = names[:0]
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	return nil
}

// repeatRuns runs the workload n times in fresh processes and prints the
// median and quartiles of every metric, the figures the bounds in
// BENCHMARK.json are set from.
func repeatRuns(name string, seed uint64, seconds, n int, buildDir string) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0", "--build-dir", buildDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var last string
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("seed %d: parsing result: %w", s, err)
		}
		fmt.Printf("seed %d: %s\n", s, last)
		if !res.Correct {
			return fmt.Errorf("seed %d: wrong answers", s)
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("\n%-16s %12s %12s %12s %10s  unit\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, k := range names {
		v := vals[k]
		q1, md, q3 := pyQuartiles(v)
		fmt.Printf("%-16s %12.4f %12.4f %12.4f %10.4f  %s\n", k, q1, md, q3, (q3-q1)/md, units[k])
	}
	return nil
}

// pyQuartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is how run-to-run spread is judged.
func pyQuartiles(v []float64) (q1, md, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
