package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quicsand"
	"quicsand/internal/capture"
)

// Run from this directory: go test ./...
const testIdentity = "../testdata/golden/identity.pem"

// tiny shrinks a workload so a whole run takes a second or two while
// every layer still sees traffic and every driver still checkpoints.
func tiny(w workload) workload {
	if w.scenario == "paper-2021" {
		w.scale, w.interval = 0.001, 2000
	} else {
		w.scale, w.interval = 0.005, 500
	}
	return w
}

func testOptions(t *testing.T, w workload, trace int) options {
	return options{
		workload: w.name, seed: 7, seconds: 1, trace: trace,
		identity: testIdentity, fingerprints: "fingerprints.json", work: t.TempDir(),
	}
}

// TestBenchmarkDeclaration holds BENCHMARK.json to the workloads and
// metrics this program produces.
func TestBenchmarkDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) string {
		var out []string
		for _, e := range list {
			out = append(out, e.Name)
		}
		return strings.Join(out, " ")
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	if got, want := names(doc.Workloads), strings.Join(wl, " "); got != want {
		t.Errorf("workloads: BENCHMARK.json %q, program %q", got, want)
	}
	if got, want := names(doc.EndToEnd), strings.Join(endToEnd, " "); got != want {
		t.Errorf("end_to_end: BENCHMARK.json %q, program %q", got, want)
	}
	if got, want := names(doc.PerLayer), strings.Join(perLayer, " "); got != want {
		t.Errorf("per_layer: BENCHMARK.json %q, program %q", got, want)
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// scale: each must pass its gates and report every declared metric as
// a finite number.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		for trace, names := range [][]string{endToEnd, perLayer} {
			res, lines, err := execute(w, testOptions(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, n := range names {
				m, ok := res.Metrics[n]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v)", w.name, trace, n, m, ok)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, n, m.Value)
				}
			}
			if len(lines) < len(names) {
				t.Errorf("%s trace=%d: %d report lines for %d metrics", w.name, trace, len(lines), len(names))
			}
		}
	}
}

// TestGateTrips proves the gates have teeth: the oracle of another seed
// must reject the analysis, and a stream result that differs from the
// batch reference must be refused.
func TestGateTrips(t *testing.T) {
	id, err := loadIdentity(testIdentity)
	if err != nil {
		t.Fatal(err)
	}
	w := tiny(workloads[0])
	cfg, err := w.config(7, id)
	if err != nil {
		t.Fatal(err)
	}
	su, err := setup(w, cfg, t.TempDir(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runDriver(w, cfg, su.path)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := expect(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnalysis(exp.analysis, r.final); err != nil {
		t.Fatalf("own seed's oracle rejects the analysis: %v", err)
	}
	other := cfg
	other.Seed++
	wrong, err := expect(w, other)
	if err != nil {
		t.Fatal(err)
	}
	if checkAnalysis(wrong.analysis, r.final) == nil {
		t.Fatal("the oracle of another seed accepted the analysis; the gate is vacuous")
	}

	ref, err := referenceReplay(w, cfg, su.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.check(r.final); err != nil {
		t.Fatalf("batch reference rejects an identical replay: %v", err)
	}
	ref.counters.SessionsEmitted++
	if ref.check(r.final) == nil {
		t.Fatal("batch reference accepted a result with different counters")
	}
}

// TestBatchIngestPath holds every batch replay the benchmark makes to
// the CLI's ingest path: QSND decoded on the shards, from the mmap
// source and from the streamed one. A replay through a wrapped source
// falls back to the inline decode, and the gate must refuse it.
func TestBatchIngestPath(t *testing.T) {
	id, err := loadIdentity(testIdentity)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := tiny(w)
		w.stream = false
		cfg, err := w.config(7, id)
		if err != nil {
			t.Fatal(err)
		}
		su, err := setup(w, cfg, t.TempDir(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runDriver(w, cfg, su.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkIngest(r.final); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}

		in, err := w.open(su.path)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := quicsand.Replay(cfg, struct{ capture.Source }{in.src})
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
		if checkIngest(wrapped) == nil {
			t.Errorf("%s: the ingest gate accepted a replay through a wrapped source (decode path %q)",
				w.name, wrapped.Telemetry.Ingest.DecodePath)
		}
	}
}

// TestFingerprintComparison covers the three verdicts a run's input can
// get against the recorded fingerprints.
func TestFingerprintComparison(t *testing.T) {
	fp := fingerprint{SHA256: "ab", Packets: 3, Bytes: 99}
	path := filepath.Join(t.TempDir(), "fp.json")
	if err := writeJSON(path, map[string]map[string]fingerprint{"month-batch": {"7": fp}}); err != nil {
		t.Fatal(err)
	}
	ref, err := referenceFingerprints(path)
	if err != nil {
		t.Fatal(err)
	}
	changed := fp
	changed.SHA256 = "cd"
	for _, c := range []struct {
		workload string
		seed     uint64
		fp       fingerprint
		want     string
	}{
		{"month-batch", 7, fp, "match"},
		{"month-batch", 7, changed, "different"},
		{"month-batch", 8, fp, "unrecorded"},
		{"flood-stream", 7, fp, "unrecorded"},
	} {
		if got := compareFingerprint(ref, c.workload, c.seed, c.fp); got != c.want {
			t.Errorf("%s seed %d: got %q, want %q", c.workload, c.seed, got, c.want)
		}
	}
}
