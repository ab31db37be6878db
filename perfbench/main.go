// Command perfbench is the repository's end-to-end benchmark: it
// builds a workload's input from a seed, drives it through
// quicsand.Replay or quicsand.StreamReplay for a fixed window, gates
// every result against the analytic oracle, and prints each metric by
// name and unit, ending with one JSON result line. With -trace 1 it
// runs the per-layer ledger instead. See README.md in this directory.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload month-batch --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"quicsand"
	"quicsand/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload     string
	seed         uint64
	seconds      int
	trace        int
	identity     string
	fingerprints string
	work         string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies the machine, toolchain and input of a run.
type provenance struct {
	Workload   string          `json:"workload"`
	Seed       uint64          `json:"seed"`
	NumCPU     int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Workers    int             `json:"workers"`
	Build      telemetry.Build `json:"build"`
	Input      fingerprint     `json:"input"`
	// Reference is "match", "different" or "unrecorded" against
	// perfbench/fingerprints.json. Runs on different inputs are
	// different benchmarks, not comparisons.
	Reference string `json:"reference"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name (month-batch, month-stream, flood-stream)")
	fs.Uint64Var(&o.seed, "seed", 7, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	fs.StringVar(&o.identity, "identity", filepath.Join("testdata", "golden", "identity.pem"), "TLS identity that pins template bytes")
	fs.StringVar(&o.fingerprints, "fingerprints", filepath.Join("perfbench", "fingerprints.json"), "recorded input fingerprints")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for inputs, ledgers and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 || o.seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --trace 0|1, --seconds >= 1 and no positional arguments")
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, lines, err := execute(w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	doc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(doc))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute sets the workload up and runs it; lines are the
// human-readable report printed before the result line.
func execute(w workload, o options, stderr io.Writer) (*result, []string, error) {
	id, err := loadIdentity(o.identity)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := w.config(o.seed, id)
	if err != nil {
		return nil, nil, err
	}
	ref, err := referenceFingerprints(o.fingerprints)
	if err != nil {
		return nil, nil, err
	}
	minN, maxN := minSetups, maxSetups
	if o.trace == 1 {
		minN, maxN = 1, 1 // the ledger does not report setup_s
	}
	su, err := setup(w, cfg, filepath.Join(o.work, "inputs"), minN, maxN)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer os.Remove(su.path)
	prov := provenance{
		Workload: w.name, Seed: o.seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers, Build: telemetry.Provenance(), Input: su.fp,
		Reference: compareFingerprint(ref, w.name, o.seed, su.fp),
	}
	if prov.Reference == "different" {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: input differs from the recorded fingerprint; this run measures a different input and is not comparable with runs on the recorded one\n", w.name, o.seed)
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return nil, nil, err
	}
	lines := []string{"provenance " + string(pj)}

	exp, err := expect(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	window := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		return ledgerResult(w, o, cfg, su, exp, prov, window, lines, stderr)
	}

	var bref *batchReference
	if w.stream {
		if bref, err = referenceReplay(w, cfg, su.path); err != nil {
			return nil, nil, err
		}
	}
	m, err := measure(w, cfg, su, exp, bref, window)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range m.failures {
		fmt.Fprintln(stderr, "perfbench: correctness:", f)
	}
	res := &result{
		Correct:   len(m.failures) == 0 && m.lost == 0,
		Attempted: m.records,
		Failed:    m.lost,
		Metrics: map[string]metric{
			"setup_s":           {su.setupS, "s"},
			"pkts_per_s":        {median(m.pktsPerS), "1/s"},
			"cpu_ns_per_pkt":    {median(m.cpuNS), "ns"},
			"allocs_per_pkt":    {median(m.allocs), "count"},
			"live_heap_peak_mb": {median(m.heapMB), "MB"},
			"ckpt_p50_ms":       {quantile(m.emitMS, 0.5), "ms"},
			"ckpt_p90_ms":       {quantile(m.emitMS, 0.9), "ms"},
		},
	}
	for i := range m.pktsPerS {
		lines = append(lines, fmt.Sprintf("rep %d pkts_per_s %.0f cpu_ns_per_pkt %.1f allocs_per_pkt %.4f live_heap_peak_mb %.2f",
			i+1, m.pktsPerS[i], m.cpuNS[i], m.allocs[i], m.heapMB[i]))
	}
	lines = append(lines,
		fmt.Sprintf("run setups %d", len(su.samples)),
		fmt.Sprintf("run reps %d", m.reps),
		fmt.Sprintf("run ckpt_samples %d", len(m.emitMS)),
		fmt.Sprintf("run alerts %d", m.alerts),
		fmt.Sprintf("run lost_share %g", ratio(m.lost, m.records)))
	return res, append(lines, metricLines(res.Metrics, endToEnd)...), nil
}

// ledgerResult runs the traced pass and writes its ledger and spans.
func ledgerResult(w workload, o options, cfg quicsand.Config, su *setupResult, exp *expectations,
	prov provenance, window time.Duration, lines []string, stderr io.Writer) (*result, []string, error) {
	L, err := traced(w, cfg, su, exp, window)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range L.gateErrs {
		fmt.Fprintln(stderr, "perfbench: correctness:", f)
	}
	dir := filepath.Join(o.work, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	doc := struct {
		Provenance  provenance        `json:"provenance"`
		SampleEvery int               `json:"sample_every"`
		SliceItems  int               `json:"slice_items"`
		Metrics     map[string]metric `json:"metrics"`
		Layers      []layerRow        `json:"layers"`
		ChainWallNS int64             `json:"chain_wall_ns"`
		ResidualPct float64           `json:"chain_residual_pct"`
	}{prov, sampleEvery, sliceItems, L.metrics, L.layers, L.chain.wall.Nanoseconds(), L.residualPct}
	if err := writeJSON(base+".ledger.json", doc); err != nil {
		return nil, nil, err
	}
	if err := writeTraceFile(base+".trace.json", w.name, L.chain, L.driver); err != nil {
		return nil, nil, err
	}
	lines = append(lines, "ledger "+base+".ledger.json", "trace "+base+".trace.json",
		fmt.Sprintf("chain residual_pct %.2f (signed; negative = spans over-attribute)", L.residualPct))
	for _, r := range L.layers {
		lines = append(lines, fmt.Sprintf("layer %-10s self %8.1f ms  %10d calls  %8.1f ns/call",
			r.Layer, float64(r.SelfNS)/1e6, r.Calls, r.NSPerCall))
	}
	res := &result{
		Correct:   len(L.gateErrs) == 0,
		Attempted: L.records,
		Metrics:   L.metrics,
	}
	return res, append(lines, metricLines(res.Metrics, perLayer)...), nil
}

// metricLines renders "name value unit" in the benchmark's order and
// checks that the run produced exactly the declared metrics.
func metricLines(m map[string]metric, names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			panic("perfbench: metric " + n + " not produced") // a bug in this program
		}
		out = append(out, fmt.Sprintf("%s %v %s", n, v.Value, v.Unit))
	}
	if len(m) != len(names) {
		panic(fmt.Sprintf("perfbench: produced %d metrics, declared %d", len(m), len(names)))
	}
	return out
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares,
// in its order; the self-test holds the two lists equal.
var endToEnd = []string{
	"setup_s", "pkts_per_s", "cpu_ns_per_pkt", "allocs_per_pkt", "live_heap_peak_mb", "ckpt_p50_ms", "ckpt_p90_ms",
}

var perLayer = []string{
	"plan.ms", "plan.sources",
	"generate.ns_per_pkt", "generate.allocs_per_pkt",
	"capture.ns_per_pkt", "capture.allocs_per_pkt", "capture.mb_per_s",
	"engine.schedule_ms", "engine.analyze_ms", "engine.reduce_ms", "engine.shard_skew",
	"scatter.batch_fill_mean", "scatter.batch_reuse_ratio",
	"telescope.ns_per_pkt",
	"classify.ns_per_pkt", "classify.research_share",
	"dissect.ns_per_dgram", "dissect.allocs_per_dgram", "dissect.pkts_per_dgram", "dissect.decrypt_ratio", "dissect.opener_hit_ratio",
	"sessions.ns_per_pkt", "sessions.emitted", "sessions.spill_ratio",
	"dosdetect.ns_per_session", "dosdetect.attacks",
	"correlate.ms",
	"detect.ns_per_pkt", "detect.sources_evicted", "detect.alerts",
	"stream.offer_ns_per_pkt", "stream.offer_p99_us", "stream.offer_allocs_per_pkt",
	"ckpt.freeze_ms", "ckpt.encode_ms", "ckpt.reduce_ms", "ckpt.image_mb", "ckpt.resume_ms",
	"chain.unattributed_pct", "trace.overhead_pct",
}
