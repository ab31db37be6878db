package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
)

// workers is the analysis shard count every workload runs at: the
// multi-worker path telescoped and Replay use in production, sized to
// the 2-CPU reference box the baseline was measured on.
const workers = 2

// A timed run builds its input at least minSetups times, and goes on
// (up to maxSetups) until setupBudget of set-up time is sampled, so a
// cheap input's median rests on as much time as an expensive one's.
// setup_s reports the median, so one slow page-cache flush does not
// decide the figure.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
)

// workload is one benchmark input plus the driver that consumes it.
type workload struct {
	name     string
	scenario string
	scale    float64
	thin     uint32
	// stream selects quicsand.StreamReplay (with the detector bank and
	// periodic checkpoint emits) instead of quicsand.Replay.
	stream bool
	// mmap opens the input with capture.OpenFile (zero-copy QSND
	// buffer); otherwise capture.NewSource streams it through the
	// buffered Reader.
	mmap bool
	// maxSources bounds the detector's per-shard source state (0 = no
	// budget) and interval is the checkpoint-emit period in captured
	// packets, for the stream driver and the traced streaming pass.
	maxSources int
	interval   uint64
}

// workloads is the benchmark's fixed set, in BENCHMARK.json order.
var workloads = []workload{
	// The paper's offline job: 75% of the month is TCP/ICMP backscatter
	// and 24% research sweeps, so telescope, the research classifier,
	// common sessions and dosdetect do the work; dissect sees ~1%.
	{
		name:     "month-batch",
		scenario: "paper-2021", scale: 0.05, thin: 64, mmap: true,
		// The batch driver never streams; the traced run's off-path
		// streaming pass uses month-stream's settings on this input.
		maxSources: 64, interval: 50000,
	},
	// The same month through per-packet Offer dispatch on tiny
	// records, with a source budget that makes the detector evict and
	// ~120 checkpoints of the large common-session state.
	{
		name:     "month-stream",
		scenario: "paper-2021", scale: 0.05, thin: 64, mmap: true,
		stream: true, maxSources: 64, interval: 50000,
	},
	// The attack the paper is about: every record is a long-header
	// backscatter datagram, so dissect, QUIC sessions with fresh SCIDs,
	// detect and Offer's per-byte payload copy do the work.
	{
		name:     "flood-stream",
		scenario: "handshake-flood-qfam", scale: 0.1, thin: 64,
		stream: true, interval: 4000,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config is the analysis configuration for a seed: the golden identity
// pins template handshake bytes, so the same seed yields a
// byte-identical input in every process and on every commit that keeps
// the generator's output.
func (w workload) config(seed uint64, id *tlsmini.Identity) (quicsand.Config, error) {
	sc, err := scenario.Builtin(w.scenario)
	if err != nil {
		return quicsand.Config{}, err
	}
	return quicsand.Config{
		Seed: seed, Scale: w.scale, ResearchThin: w.thin,
		Identity: id, Scenario: sc, Workers: workers,
	}, nil
}

// detectConfig is the detector bank the stream workloads arm.
func (w workload) detectConfig() detect.Config {
	d := detect.Default()
	d.MaxSources = w.maxSources
	return d
}

func loadIdentity(path string) (*tlsmini.Identity, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("identity: %w", err)
	}
	id, err := tlsmini.ParseIdentityPEM(data)
	if err != nil {
		return nil, fmt.Errorf("identity %s: %w", path, err)
	}
	return id, nil
}

// buildInput plans the scenario, drains the canonical sequential
// generator feed (the stream StreamLive offers), keeps the packets
// inside the telescope and writes them to path as QSND. It returns the
// record count.
func buildInput(cfg quicsand.Config, path string) (uint64, error) {
	plan := cfg
	plan.Workers = 1 // inline streamer: no shard goroutines to stop
	s, err := quicsand.NewStreamer(quicsand.StreamConfig{Config: plan})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	tw := telescope.NewWriter(f)
	s.Generator().Feeds(1, true)[0].Run(func(p *telescope.Packet) {
		if netmodel.InTelescope(p.Dst) {
			tw.Capture(p)
		}
	})
	if err := tw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("write input: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("write input: %w", err)
	}
	return tw.Count(), nil
}

// input is an opened benchmark input. src is the value OpenFile or
// NewSource returned, handed to the drivers unwrapped: Replay picks its
// ingest path (decode-after-scatter for a SpanSource) and its reported
// format from the source's concrete type, as it does in the CLI. Close
// releases the mapping (if any) and the file.
type input struct {
	src capture.Source
	f   *os.File
}

func (in *input) Close() error {
	var err error
	if c, ok := in.src.(io.Closer); ok {
		err = c.Close()
	}
	if cerr := in.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// open opens the input the way the workload's driver reads it.
func (w workload) open(path string) (*input, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var src capture.Source
	if w.mmap {
		src, err = capture.OpenFile(f)
	} else {
		src, err = capture.NewSource(f)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("open input: %w", err)
	}
	return &input{src: src, f: f}, nil
}

// fingerprint identifies an input: equal fingerprints mean
// byte-identical inputs, so two runs are comparable.
type fingerprint struct {
	SHA256  string `json:"sha256"`
	Packets uint64 `json:"packets"`
	Bytes   int64  `json:"bytes"`
}

func fingerprintFile(path string, packets uint64) (fingerprint, error) {
	f, err := os.Open(path)
	if err != nil {
		return fingerprint{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return fingerprint{}, fmt.Errorf("hash input: %w", err)
	}
	return fingerprint{SHA256: hex.EncodeToString(h.Sum(nil)), Packets: packets, Bytes: n}, nil
}

// setupResult is the outcome of setting a run up: the input on disk,
// its fingerprint, and the median set-up time.
type setupResult struct {
	path    string
	fp      fingerprint
	setupS  float64
	samples []float64
}

// setup builds the input between minN and maxN times (plan, generate,
// write, open — all that precedes the first ingested packet), checks
// that every build produced the same bytes, and reports the median
// duration. The caller removes the input; on error setup removes it.
func setup(w workload, cfg quicsand.Config, dir string, minN, maxN int) (*setupResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &setupResult{path: filepath.Join(dir, fmt.Sprintf("%s-seed%d.qsnd", w.name, cfg.Seed))}
	if err := res.build(w, cfg, minN, maxN); err != nil {
		os.Remove(res.path)
		return nil, err
	}
	return res, nil
}

func (res *setupResult) build(w workload, cfg quicsand.Config, minN, maxN int) error {
	var spent time.Duration
	for i := 0; i < minN || i < maxN && spent < setupBudget; i++ {
		t0 := time.Now()
		packets, err := buildInput(cfg, res.path)
		if err != nil {
			return err
		}
		in, err := w.open(res.path)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		spent += d
		res.samples = append(res.samples, d.Seconds())
		if err := in.Close(); err != nil {
			return err
		}
		fp, err := fingerprintFile(res.path, packets)
		if err != nil {
			return err
		}
		if i > 0 && fp != res.fp {
			return fmt.Errorf("input build %d differs from build 0 (%+v vs %+v): the generator is not deterministic", i, fp, res.fp)
		}
		res.fp = fp
	}
	res.setupS = median(res.samples)
	// Push the input to disk now, so background writeback does not
	// compete with the timed window.
	f, err := os.Open(res.path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sync input: %w", err)
	}
	return nil
}

// referenceFingerprints reads the recorded fingerprints, keyed by
// workload then seed. A missing file means nothing is recorded.
func referenceFingerprints(path string) (map[string]map[string]fingerprint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref map[string]map[string]fingerprint
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("fingerprints %s: %w", path, err)
	}
	return ref, nil
}

// compareFingerprint reports "match", "different" or "unrecorded". A
// different input is a different benchmark, never a comparison.
func compareFingerprint(ref map[string]map[string]fingerprint, workload string, seed uint64, fp fingerprint) string {
	want, ok := ref[workload][fmt.Sprint(seed)]
	switch {
	case !ok:
		return "unrecorded"
	case want == fp:
		return "match"
	default:
		return "different"
	}
}
