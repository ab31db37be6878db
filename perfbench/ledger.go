package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"quicsand"
	"quicsand/internal/activescan"
	"quicsand/internal/detect"
	"quicsand/internal/dissect"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
)

// sampleEvery is the traced chain's sampling period: one packet in 64
// has every layer call timed, which keeps the clock reads to a few
// percent of the chain while leaving ~90k timed packets on the month.
const sampleEvery = 64

// repeats is how often the traced run re-plans for plan.ms and resumes
// the last checkpoint image for ckpt.resume_ms.
const repeats = 3

// ledger is a traced run's per-layer result.
type ledger struct {
	metrics  map[string]metric
	layers   []layerRow
	chain    *chain // last timed chain, for span export
	driver   *driverPass
	gateErrs []error
	records  uint64
	// residualPct is the signed chain residual behind
	// chain.unattributed_pct: negative when the spans over-attribute.
	residualPct float64
}

func (L *ledger) put(name string, v float64, unit string) { L.metrics[name] = metric{v, unit} }

func (L *ledger) fail(err error) {
	if err != nil {
		L.gateErrs = append(L.gateErrs, err)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerRow is one line of the chain's attribution table.
type layerRow struct {
	Layer      string  `json:"layer"`
	SelfNS     int64   `json:"self_ns"`
	Calls      uint64  `json:"calls"`
	TimedCalls uint64  `json:"timed_calls"`
	NSPerCall  float64 `json:"ns_per_call"`
}

// plan rebuilds the run's substrate through the public constructors
// quicsand's own prepare step uses: the simulated Internet, the
// active-scan census and the compiled scenario.
func plan(cfg quicsand.Config) (*ibr.Generator, error) {
	in := netmodel.BuildInternet()
	census := activescan.Build(in, netmodel.NewRNG(cfg.Seed).Fork("census"), activescan.Config{})
	return scenario.Compile(cfg.Scenario, ibr.Config{
		Seed: cfg.Seed, Scale: cfg.Scale, ResearchThin: cfg.ResearchThin,
		SkipResearch: cfg.SkipResearch, Internet: in, Census: census, Identity: cfg.Identity,
	})
}

// drain is an isolated pass over one layer: wall time and heap
// allocations per item.
type drain struct {
	items  uint64
	wall   time.Duration
	allocs uint64
}

func (d drain) nsPer() float64     { return float64(d.wall.Nanoseconds()) / float64(d.items) }
func (d drain) allocsPer() float64 { return float64(d.allocs) / float64(d.items) }

func measureDrain(fn func() (uint64, error)) (drain, error) {
	runtime.GC()
	p0 := readProbe()
	n, err := fn()
	p1 := readProbe()
	if err == nil && n == 0 {
		err = errors.New("drained no items")
	}
	return drain{items: n, wall: p1.wall.Sub(p0.wall), allocs: p1.allocs - p0.allocs}, err
}

// forEach reads the input once the way the workload opens it.
func forEach(w workload, path string, fn func(*telescope.Packet)) (uint64, error) {
	in, err := w.open(path)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	var n uint64
	for {
		p, err := in.src.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		fn(p)
	}
}

// traced runs the per-layer ledger for one workload: isolated drains
// for plan, generate, capture and dissect allocations; the engine's own
// accounting from an untimed Replay; timed-and-untimed chain pairs for
// the window; and a workers=2 streaming pass for Offer and checkpoint
// spans.
func traced(w workload, cfg quicsand.Config, su *setupResult, exp *expectations, window time.Duration) (*ledger, error) {
	L := &ledger{metrics: map[string]metric{}, records: su.fp.Packets}
	gen, err := L.plan(cfg)
	if err != nil {
		return nil, err
	}
	cd, err := L.drains(w, su, gen)
	if err != nil {
		return nil, err
	}
	a, err := L.engine(w, cfg, su, exp)
	if err != nil {
		return nil, err
	}
	if err := L.dissectAllocs(w, su, a, cd); err != nil {
		return nil, err
	}
	chainAllocs, err := L.chains(w, su, a, window)
	if err != nil {
		return nil, err
	}
	if err := L.streaming(w, cfg, su, exp, chainAllocs); err != nil {
		return nil, err
	}
	return L, nil
}

// plan times the substrate rebuild (median of a few).
func (L *ledger) plan(cfg quicsand.Config) (*ibr.Generator, error) {
	var planMS []float64
	var gen *ibr.Generator
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		g, err := plan(cfg)
		if err != nil {
			return nil, err
		}
		planMS = append(planMS, float64(time.Since(t0))/1e6)
		gen = g
	}
	L.put("plan.ms", median(planMS), "ms")
	L.put("plan.sources", float64(len(gen.Sources())), "count")
	return gen, nil
}

// drains times the generator and the capture source alone. The
// generate drain counts what lands in the telescope, proving the
// rebuilt plan is the input's plan. It returns the capture drain, which
// the dissect allocation count subtracts.
func (L *ledger) drains(w workload, su *setupResult, gen *ibr.Generator) (drain, error) {
	var inScope uint64
	gd, err := measureDrain(func() (uint64, error) {
		m := gen.Feeds(1, true)[0]
		m.Run(func(p *telescope.Packet) {
			if netmodel.InTelescope(p.Dst) {
				inScope++
			}
		})
		return m.Telemetry().Packets, nil
	})
	if err != nil {
		return drain{}, fmt.Errorf("generate drain: %w", err)
	}
	if inScope != su.fp.Packets {
		L.fail(fmt.Errorf("rebuilt plan generates %d telescope packets, input holds %d", inScope, su.fp.Packets))
	}
	L.put("generate.ns_per_pkt", gd.nsPer(), "ns")
	L.put("generate.allocs_per_pkt", gd.allocsPer(), "count")

	cd, err := measureDrain(func() (uint64, error) { return forEach(w, su.path, func(*telescope.Packet) {}) })
	if err != nil {
		return drain{}, fmt.Errorf("capture drain: %w", err)
	}
	L.put("capture.ns_per_pkt", cd.nsPer(), "ns")
	L.put("capture.allocs_per_pkt", cd.allocsPer(), "count")
	L.put("capture.mb_per_s", float64(su.fp.Bytes)/1e6/cd.wall.Seconds(), "MB/s")
	return cd, nil
}

// engine reads the program's own accounting of an untimed Replay,
// which is also the reconciliation reference the chain must match.
func (L *ledger) engine(w workload, cfg quicsand.Config, su *setupResult, exp *expectations) (*quicsand.Analysis, error) {
	batch := w
	batch.stream = false
	ref, err := runDriver(batch, cfg, su.path)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	a := ref.final
	L.fail(checkAnalysis(exp.analysis, a))
	L.fail(checkIngest(a))
	if n := lost(su.fp.Packets, a); n != 0 {
		L.fail(fmt.Errorf("reference replay lost %d of %d records", n, su.fp.Packets))
	}
	ing := a.Telemetry.Ingest
	L.put("engine.schedule_ms", float64(a.Pipeline.StageNamed("schedule").Wall)/1e6, "ms")
	L.put("engine.analyze_ms", float64(a.Pipeline.StageNamed("analyze").Wall)/1e6, "ms")
	L.put("engine.reduce_ms", float64(a.Pipeline.StageNamed("reduce").Wall)/1e6, "ms")
	L.put("engine.shard_skew", a.Telemetry.Skew(), "ratio")
	L.put("scatter.batch_fill_mean", ing.BatchFill.Mean(), "count")
	L.put("scatter.batch_reuse_ratio", ratio(ing.BatchReuses, ing.BatchReuses+ing.BatchAllocs), "ratio")
	return a, nil
}

// dissectAllocs drains the capture source plus the dissector over the
// datagrams the pipeline would dissect, minus the capture drain.
func (L *ledger) dissectAllocs(w workload, su *setupResult, a *quicsand.Analysis, cd drain) error {
	dis := dissect.NewDissector()
	var dgrams uint64
	dd, err := measureDrain(func() (uint64, error) {
		return forEach(w, su.path, func(p *telescope.Packet) {
			if netmodel.InTelescope(p.Dst) && !a.Internet.IsResearchSource(p.Src) &&
				p.Proto == telescope.ProtoUDP && p.IsQUICCandidate() && p.Payload != nil {
				dgrams++
				_, _ = dis.Dissect(p.Payload) // only the allocations matter here
			}
		})
	})
	if err != nil {
		return fmt.Errorf("dissect drain: %w", err)
	}
	allocs := 0.0
	if dgrams > 0 && dd.allocs > cd.allocs {
		allocs = float64(dd.allocs-cd.allocs) / float64(dgrams)
	}
	L.put("dissect.allocs_per_dgram", allocs, "count")
	return nil
}

// chains alternates untimed and timed chain passes for the window and
// reports medians. It returns the untimed chain's allocations, which
// the Offer allocation count subtracts.
func (L *ledger) chains(w workload, su *setupResult, a *quicsand.Analysis, window time.Duration) (uint64, error) {
	dcfg := w.detectConfig()
	var overhead, unattributed, residual []float64
	var self [numLayers][]float64
	var chainAllocs uint64
	start := time.Now()
	for pairs := 0; pairs == 0 || time.Since(start) < window; pairs++ {
		var pair [2]*chain
		for k, every := range []uint64{0, sampleEvery} {
			c := newChain(a, dcfg, every)
			in, err := w.open(su.path)
			if err != nil {
				return 0, err
			}
			runtime.GC()
			p0 := readProbe()
			err = c.run(in.src)
			p1 := readProbe()
			in.Close()
			if err != nil {
				return 0, err
			}
			if err := c.reconcile(a); err != nil {
				return 0, err
			}
			if every == 0 {
				chainAllocs = p1.allocs - p0.allocs
			}
			pair[k] = c
		}
		plain, timed := pair[0], pair[1]
		overhead = append(overhead, 100*(timed.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())
		var attributed int64
		for l := layer(0); l < numLayers; l++ {
			e := timed.estimate(l)
			attributed += e
			self[l] = append(self[l], float64(e))
		}
		// The residual's magnitude: sampled spans can over-attribute
		// (a negative residual) as well as miss work, and either way a
		// larger share means a less faithful split.
		wall := timed.wall.Nanoseconds()
		residual = append(residual, 100*float64(wall-attributed)/float64(wall))
		unattributed = append(unattributed, math.Abs(residual[len(residual)-1]))
		L.chain = timed
	}

	c := L.chain
	for l := layer(0); l < numLayers; l++ {
		ns := median(self[l])
		L.layers = append(L.layers, layerRow{
			Layer: l.String(), SelfNS: int64(ns), Calls: c.calls[l], TimedCalls: c.timedCalls[l],
			NSPerCall: ns / float64(max(c.calls[l], 1)),
		})
	}
	per := func(l layer) float64 { return median(self[l]) / float64(max(c.calls[l], 1)) }
	L.put("telescope.ns_per_pkt", per(lTelescope), "ns")
	L.put("classify.ns_per_pkt", per(lClassify), "ns")
	L.put("classify.research_share", ratio(c.research, c.tel.Total), "ratio")
	dm := c.dis.Metrics
	L.put("dissect.ns_per_dgram", per(lDissect), "ns")
	L.put("dissect.pkts_per_dgram", ratio(dm.Packets, dm.Datagrams), "ratio")
	L.put("dissect.decrypt_ratio", ratio(dm.Decrypted, dm.Packets), "ratio")
	L.put("dissect.opener_hit_ratio", ratio(dm.OpenerHits, dm.OpenerHits+dm.OpenerMisses), "ratio")
	sm := c.quicSz.Metrics
	sm.Merge(&c.commonSz.Metrics)
	L.put("sessions.ns_per_pkt", per(lSessions), "ns")
	L.put("sessions.emitted", float64(sm.Emitted), "count")
	L.put("sessions.spill_ratio", ratio(sm.SetSpills, sm.Emitted), "ratio")
	L.put("dosdetect.ns_per_session", per(lDosdetect), "ns")
	L.put("dosdetect.attacks", float64(len(c.quicDet.Attacks)+len(c.commonDet.Attacks)), "count")
	L.put("correlate.ms", median(self[lCorrelate])/1e6, "ms")
	L.put("detect.ns_per_pkt", per(lDetect), "ns")
	L.put("chain.unattributed_pct", median(unattributed), "%")
	L.residualPct = median(residual)
	L.put("trace.overhead_pct", median(overhead), "%")
	return chainAllocs, nil
}

// streaming takes the driver-level spans from the program's own
// workers=2 streamer and gates its results.
func (L *ledger) streaming(w workload, cfg quicsand.Config, su *setupResult, exp *expectations, chainAllocs uint64) error {
	d, err := runDriverPass(w, cfg, su.path)
	if err != nil {
		return err
	}
	L.driver = d
	L.fail(checkAnalysis(exp.analysis, d.final))
	L.fail(checkAlerts(exp.alerts, d.alerts))
	offerAllocs := 0.0
	if d.loopAllocs > chainAllocs {
		offerAllocs = float64(d.loopAllocs-chainAllocs) / float64(d.packets)
	}
	L.put("detect.sources_evicted", float64(d.final.Telemetry.Detect.SourcesEvicted), "count")
	L.put("detect.alerts", float64(len(d.alerts)), "count")
	L.put("stream.offer_ns_per_pkt", mean(d.offerNS), "ns")
	L.put("stream.offer_p99_us", quantile(d.offerNS, 0.99)/1e3, "us")
	L.put("stream.offer_allocs_per_pkt", offerAllocs, "count")
	L.put("ckpt.freeze_ms", median(d.freezeMS), "ms")
	L.put("ckpt.encode_ms", median(d.encodeMS), "ms")
	L.put("ckpt.reduce_ms", median(d.reduceMS), "ms")
	L.put("ckpt.image_mb", median(d.imageMB), "MB")
	L.put("ckpt.resume_ms", median(d.resumeMS), "ms")
	return nil
}

// driverPass is the workers=2 streaming pass: sampled Offer timings
// and every checkpoint's parts, timed separately.
type driverPass struct {
	packets    uint64
	loopAllocs uint64
	offerNS    []float64
	offerAt    []int64 // sample start, ns since the pass began
	freezeMS   []float64
	encodeMS   []float64
	reduceMS   []float64
	imageMB    []float64
	resumeMS   []float64
	ckptAt     []int64
	final      *quicsand.Analysis
	alerts     []detect.Alert
}

func runDriverPass(w workload, cfg quicsand.Config, path string) (*driverPass, error) {
	dcfg := w.detectConfig()
	scfg := quicsand.StreamConfig{Config: cfg, Detect: &dcfg}
	s, err := quicsand.NewStreamer(scfg)
	if err != nil {
		return nil, err
	}
	in, err := w.open(path)
	if err != nil {
		s.Close()
		return nil, err
	}
	defer in.Close()
	d := &driverPass{}
	var lists [][]detect.Alert
	var image []byte
	var emitAllocs uint64
	runtime.GC()
	epoch := time.Now()
	// Offer spans have the clock-read latency subtracted, as the
	// chain's spans do.
	bias := clockBias(epoch)
	p0 := readProbe()
	for {
		p, err := in.src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		if d.packets%sampleEvery == 0 {
			t0 := time.Since(epoch)
			s.Offer(p)
			d.offerNS = append(d.offerNS, float64(int64(time.Since(epoch)-t0)-bias))
			d.offerAt = append(d.offerAt, int64(t0))
		} else {
			s.Offer(p)
		}
		if d.packets++; d.packets%w.interval != 0 {
			continue
		}
		e0 := readProbe()
		t0 := time.Now()
		ck := s.Checkpoint()
		t1 := time.Now()
		if err := detect.WriteAlerts(io.Discard, ck.Alerts); err != nil {
			s.Close()
			return nil, err
		}
		image = ck.Encode()
		t2 := time.Now()
		ck.Analysis()
		t3 := time.Now()
		emitAllocs += readProbe().allocs - e0.allocs
		d.ckptAt = append(d.ckptAt, int64(t0.Sub(epoch)))
		d.freezeMS = append(d.freezeMS, float64(t1.Sub(t0))/1e6)
		d.encodeMS = append(d.encodeMS, float64(t2.Sub(t1))/1e6)
		d.reduceMS = append(d.reduceMS, float64(t3.Sub(t2))/1e6)
		d.imageMB = append(d.imageMB, float64(len(image))/1e6)
		lists = append(lists, ck.Alerts)
	}
	final := s.Close()
	p1 := readProbe()
	d.loopAllocs = p1.allocs - p0.allocs - emitAllocs
	d.final = final.Analysis()
	d.alerts = detect.MergeAlerts(append(lists, final.Alerts)...)
	if len(image) == 0 {
		return nil, fmt.Errorf("driver pass: no checkpoint in %d packets (interval %d)", d.packets, w.interval)
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		r, err := quicsand.ResumeStreamer(scfg, image)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		d.resumeMS = append(d.resumeMS, float64(time.Since(t0))/1e6)
		r.Close()
	}
	return d, nil
}
