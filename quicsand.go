// Package quicsand reproduces the measurement pipeline of "QUICsand:
// Quantifying QUIC Reconnaissance Scans and DoS Flooding Events"
// (Nawrocki et al., ACM IMC 2021).
//
// The package ties the substrates together into the paper's analysis:
//
//	simulated Internet (internal/netmodel)
//	    → background-radiation generators (internal/ibr)
//	    → /9 telescope capture (internal/telescope)
//	    → QUIC dissection (internal/dissect, RFC 9000/9001 via
//	      internal/wire, internal/quiccrypto, internal/tlsmini)
//	    → sessionization (internal/sessions)
//	    → DoS detection (internal/dosdetect)
//	    → multi-vector correlation (internal/correlate)
//	    → joins against PeeringDB/GreyNoise/active-scan substitutes
//
// Run executes the whole month and returns an Analysis whose Figure*
// and Headline methods regenerate every figure and table of the
// paper's evaluation (see EXPERIMENTS.md for the paper-vs-measured
// record). The workload is declarative: Config.Scenario selects a
// built-in or spec-loaded scenario (internal/scenario) in place of
// the paper's hard-coded month. The server-side DoS benchmark
// (Table 1) lives in internal/flood with real handshake machinery
// from internal/quicserver and internal/quicclient.
package quicsand

import (
	"fmt"
	"time"

	"quicsand/internal/activescan"
	"quicsand/internal/capture"
	"quicsand/internal/correlate"
	"quicsand/internal/detect"
	"quicsand/internal/dissect"
	"quicsand/internal/dosdetect"
	"quicsand/internal/engine"
	"quicsand/internal/greynoise"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/oracle"
	"quicsand/internal/scenario"
	"quicsand/internal/sessions"
	"quicsand/internal/stats"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// Config parameterizes a full pipeline run.
type Config struct {
	// Seed fixes all randomness; runs are bit-reproducible.
	Seed uint64
	// Scale multiplies event counts; 1.0 reproduces paper-scale
	// session and attack magnitudes (see DESIGN.md §5).
	Scale float64
	// ResearchThin is the research-scan thinning weight (default 64).
	ResearchThin uint32
	// SkipResearch omits research scanners (fast shape-only runs;
	// Figure 2 then lacks its dominant series).
	SkipResearch bool
	// Trace, when set, receives every captured packet (checkpointing)
	// in canonical global time order regardless of Workers.
	Trace telescope.Sink
	// Identity signs the generator's template handshakes; generated
	// fresh when nil. Supply one (with a seeded handshake) to make
	// template payload bytes — and thus traces — reproduce across
	// separate runs.
	Identity *tlsmini.Identity
	// Workers selects the pipeline shard count: 0 uses every CPU
	// (GOMAXPROCS), 1 is the classic single-threaded pass, N>1 fans
	// the month out over N analysis shards keyed by source address.
	// Analysis results are bit-identical for every value (DESIGN.md §8).
	Workers int
	// Scenario selects the workload: nil (or the paper-2021 built-in)
	// runs the paper's hard-coded month, anything else compiles the
	// declarative phases onto the same engine (internal/scenario,
	// DESIGN.md §11). Replay must pass the recorded run's scenario for
	// the ground-truth joins to line up, exactly like Seed and Scale.
	Scenario *scenario.Scenario
	// Salvage selects Replay's reaction to damaged or failing capture
	// input (DESIGN.md §14). The zero policy is fail-fast: the first
	// corrupt record or exhausted read aborts the replay, the historical
	// behavior. SkipCorrupt resyncs past damaged spans and accounts them
	// in Telemetry.Ingest; MaxRetries adds bounded exponential-backoff
	// retries for transient (Temporary()) source errors. Ignored by
	// live runs — generators do not fail.
	Salvage capture.SalvagePolicy
	// FlightRecorder, when non-nil, records the run's stage/shard
	// timeline (DESIGN.md §15): per-slice spans for every pipeline stage
	// plus queue-depth/rate samples, merged into Analysis.Flight after
	// the run. A recorder records exactly one run — build a fresh
	// telemetry.NewRecorder per Run/Replay call. nil (the default) keeps
	// every instrumented site a single nil check; analysis results are
	// identical either way.
	FlightRecorder *telemetry.Recorder
	// Live, when non-nil, receives per-shard atomic progress counters
	// while the pipeline runs, for concurrent heartbeat/endpoint
	// sampling (`quicsand replay -heartbeat`, mirroring telescoped).
	// Must be sized for the resolved worker count. nil — the default —
	// keeps the hot path free of atomics.
	Live *telemetry.Live
}

// Analysis is the result of one pipeline run: every figure's data,
// recomputed from the packet stream.
type Analysis struct {
	Config   Config
	Internet *netmodel.Internet
	Census   *activescan.Census
	Truth    *ibr.GroundTruth

	// Telescope overview (§5.1).
	Telescope *telescope.Telescope
	// HourlySource bins all QUIC packets by source family
	// ("TUM-Scans", "RWTH-Scans", "Other") — Figure 2.
	HourlySource *telescope.HourlyCounter
	// HourlyType bins sanitized QUIC packets ("Requests",
	// "Responses") — Figure 3.
	HourlyType *telescope.HourlyCounter

	// Sanitized QUIC sessions (requests and responses).
	QUICSessions     []*sessions.Session
	RequestSessions  []*sessions.Session
	ResponseSessions []*sessions.Session
	Sweep            *sessions.TimeoutSweep

	// Detection results.
	QUICDetector   *dosdetect.Detector
	CommonDetector *dosdetect.Detector
	Correlation    *correlate.Summary

	// Joins.
	GreyNoise   *greynoise.Store
	ScanSources *greynoise.SourceStats

	// NonQUIC counts UDP/443 packets rejected by deep dissection
	// (the false-positive filter ablation).
	NonQUIC uint64

	// Pipeline reports per-stage throughput (packets/s, stage
	// latency) for the run. Together with the runtime parts of
	// Telemetry it is all that varies between runs of the same seed.
	Pipeline *engine.Stats

	// Telemetry is the merged per-layer counter snapshot. Its Stream
	// projection is bit-identical across worker counts and live/replay;
	// the rest (cache, recycling, balance) describes this execution.
	Telemetry *telemetry.Snapshot

	// Flight is the merged flight-recorder timeline, set only when
	// Config.FlightRecorder was non-nil. Span structure (per-stage event
	// counts at a fixed worker count) is deterministic; timestamps and
	// durations describe this execution (DESIGN.md §15).
	Flight *telemetry.Timeline
}

// sourceClassifier builds the Figure 2 labeller ("TUM-Scans",
// "RWTH-Scans", "Other") over the research prefixes.
func sourceClassifier(tum, rwth netmodel.Prefix) func(p *telescope.Packet) string {
	return func(p *telescope.Packet) string {
		if !p.IsQUICCandidate() {
			return ""
		}
		switch {
		case tum.Contains(p.Src):
			return "TUM-Scans"
		case rwth.Contains(p.Src):
			return "RWTH-Scans"
		default:
			return "Other"
		}
	}
}

// typeClassifier labels sanitized QUIC packets for Figure 3.
func typeClassifier(p *telescope.Packet) string {
	if p.IsRequest() {
		return "Requests"
	}
	if p.IsResponse() {
		return "Responses"
	}
	return ""
}

// pipelineShard is one worker's private slice of the analysis state:
// telescope counters, hourly histograms, sessionizers, sweep and the
// common-vector detector. All packets of one source address land on
// one shard, so per-source session state never crosses goroutines and
// the hot path takes no locks. After the stream drains, shards reduce
// into the Analysis by commutative merges plus a canonical sort.
type pipelineShard struct {
	internet     *netmodel.Internet
	tel          *telescope.Telescope
	hourlySource *telescope.HourlyCounter
	hourlyType   *telescope.HourlyCounter
	sweep        *sessions.TimeoutSweep
	quicSz       *sessions.Sessionizer
	commonSz     *sessions.Sessionizer
	commonDet    *dosdetect.Detector
	dis          *dissect.Dissector
	sessions     []*sessions.Session
	nonQUIC      uint64

	// det is the shard's sliding-window detector bank (streaming
	// mode only; nil in batch runs keeps the hot path unchanged).
	det *detect.Shard

	// Flight-recorder state (DESIGN.md §15): the shard's ring plus the
	// open slice's dissect/sessions sub-stage accumulators. nil ring —
	// the default — reduces every instrumented site to one branch.
	ring *telemetry.Ring
	fl   shardFlight
	// live is the shard's atomic progress bank (Config.Live), nil when
	// no concurrent observer is attached.
	live *telemetry.LiveShard
}

// shardFlight accumulates one recorder slice's sub-stage shares: how
// much of the shard's analyze time the dissector and the sessionizers
// consumed, aggregated per slice (per-packet spans would overflow any
// ring on month-scale runs).
type shardFlight struct {
	slice  uint64
	start  int64
	items  uint64
	total  uint64 // cumulative packets, across slices
	disNS  int64
	disN   uint64
	sessNS int64
	sessN  uint64
}

// setRecorder attaches the shard's ring. Call before the run starts.
func (sh *pipelineShard) setRecorder(ring *telemetry.Ring, sliceItems int) {
	sh.ring = ring
	sh.fl.slice = uint64(sliceItems)
	sh.fl.start = ring.Now()
}

// flightSlice closes the open slice: one aggregated dissect span, one
// aggregated sessions span (anchored at the slice start), and one
// cumulative packet-count sample — the counter track whose slope is
// the shard's per-interval packet rate in Perfetto.
func (sh *pipelineShard) flightSlice(now int64) {
	f := &sh.fl
	sh.ring.Span(telemetry.StageDissect, f.start, f.disNS, f.disN)
	sh.ring.Span(telemetry.StageSessions, f.start, f.sessNS, f.sessN)
	f.total += f.items
	sh.ring.Sample(telemetry.CounterRecords, now, f.total)
	*f = shardFlight{slice: f.slice, start: now, total: f.total}
}

// flightClose flushes a partial final slice after the stream drains;
// runs on the reducing goroutine, after the worker join ordered the
// ring writes.
func (sh *pipelineShard) flightClose() {
	if sh.ring != nil && sh.fl.items > 0 {
		sh.flightSlice(sh.ring.Now())
	}
}

// dissectPkt meters one dissection when the recorder is on.
func (sh *pipelineShard) dissectPkt(payload []byte) (*dissect.Result, error) {
	if sh.ring == nil {
		return sh.dis.Dissect(payload)
	}
	t0 := sh.ring.Now()
	r, err := sh.dis.Dissect(payload)
	sh.fl.disNS += sh.ring.Now() - t0
	sh.fl.disN++
	return r, err
}

// observe meters one sessionizer offer when the recorder is on.
func (sh *pipelineShard) observe(sz *sessions.Sessionizer, p *telescope.Packet, res *dissect.Result) {
	if sh.ring == nil {
		sz.Observe(p, res)
		return
	}
	t0 := sh.ring.Now()
	sz.Observe(p, res)
	sh.fl.sessNS += sh.ring.Now() - t0
	sh.fl.sessN++
}

func newPipelineShard(in *netmodel.Internet, tum, rwth netmodel.Prefix) *pipelineShard {
	sh := &pipelineShard{
		internet:     in,
		tel:          telescope.New(),
		hourlySource: telescope.NewHourlyCounter(sourceClassifier(tum, rwth)),
		hourlyType:   telescope.NewHourlyCounter(typeClassifier),
		sweep:        sessions.NewTimeoutSweep(),
		commonDet:    dosdetect.NewDetector(dosdetect.VectorCommon),
		dis:          dissect.NewDissector(),
	}
	sh.commonDet.DropExcluded = true
	sh.quicSz = sessions.NewSessionizer(func(s *sessions.Session) {
		sh.sessions = append(sh.sessions, s)
	})
	sh.quicSz.GapRecorder = sh.sweep.RecordGap
	sh.commonSz = sessions.NewSessionizer(sh.commonDet.Offer)
	return sh
}

// process runs one packet through the shard's analysis chain and
// reports whether the telescope captured it (the trace-tap predicate).
func (sh *pipelineShard) process(p *telescope.Packet) bool {
	if sh.ring != nil {
		// Slice boundaries derive from the shard's packet count, so the
		// per-stage span structure is deterministic (DESIGN.md §15).
		if sh.fl.items++; sh.fl.items >= sh.fl.slice {
			sh.flightSlice(sh.ring.Now())
		}
	}
	if sh.live != nil {
		sh.live.Packets.Add(1)
		sh.live.Bytes.Add(uint64(p.Size))
	}
	if !sh.tel.Offer(p) {
		return false
	}
	sh.hourlySource.Capture(p)

	// §5.1 sanitization: drop research scanners before analysis.
	if sh.internet.IsResearchSource(p.Src) {
		return true
	}
	switch p.Proto {
	case telescope.ProtoTCP, telescope.ProtoICMP:
		sh.observe(sh.commonSz, p, nil)
	case telescope.ProtoUDP:
		if !p.IsQUICCandidate() {
			return true
		}
		// An empty payload is no payload, as a recorded capture
		// decodes it, whichever driver or container delivered it.
		var res *dissect.Result
		if len(p.Payload) > 0 {
			r, err := sh.dissectPkt(p.Payload)
			if err != nil {
				sh.nonQUIC++
				if sh.live != nil {
					sh.live.NonQUIC.Add(1)
				}
				return true
			}
			res = r
		}
		sh.hourlyType.Capture(p)
		sh.sweep.RecordSource(p.Src)
		sh.observe(sh.quicSz, p, res)
		if sh.det != nil {
			sh.det.Observe(p, res)
			if sh.live != nil {
				sh.live.Alerts.Store(sh.det.Metrics.AlertsOpened)
			}
		}
	}
	return true
}

// clone snapshots the shard's analysis state without disturbing it:
// counter structures clone deeply, emitted sessions (immutable after
// emission) are shared behind a copied slice header, and the
// sessionizer clones re-wire their emit hooks onto the copy. The
// detector bank is intentionally not cloned — alerts are a drained
// stream, not reduced state. The clone is what Checkpoint reduces
// while ingest continues on the original.
func (sh *pipelineShard) clone() *pipelineShard {
	c := &pipelineShard{
		internet:     sh.internet,
		tel:          sh.tel.Clone(),
		hourlySource: sh.hourlySource.Clone(),
		hourlyType:   sh.hourlyType.Clone(),
		sweep:        sh.sweep.Clone(),
		commonDet:    sh.commonDet.Clone(),
		nonQUIC:      sh.nonQUIC,
	}
	if len(sh.sessions) > 0 {
		c.sessions = append(make([]*sessions.Session, 0, len(sh.sessions)), sh.sessions...)
	}
	c.quicSz = sh.quicSz.Clone(func(s *sessions.Session) {
		c.sessions = append(c.sessions, s)
	}, c.sweep.RecordGap)
	c.commonSz = sh.commonSz.Clone(c.commonDet.Offer, nil)
	c.dis = dissect.NewDissector()
	c.dis.Metrics = sh.dis.Metrics
	return c
}

func (sh *pipelineShard) flush() {
	sh.quicSz.Flush()
	sh.commonSz.Flush()
}

// prepare builds the seed-determined substrate Run and Replay share:
// the simulated Internet, the active-scan census, and the scheduled
// generator. Scheduling alone fixes the ground truth (victim → org,
// bot tags) — packets need not be generated for it, which is what
// lets Replay rebuild the joins for a stored month.
func prepare(cfg Config, a *Analysis) (gen *ibr.Generator, tum, rwth netmodel.Prefix, err error) {
	a.Internet = netmodel.BuildInternet()
	// Census shared with the generator (same seed path).
	a.Census = activescan.Build(a.Internet, netmodel.NewRNG(cfg.Seed).Fork("census"), activescan.Config{})
	icfg := ibr.Config{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ResearchThin: cfg.ResearchThin,
		SkipResearch: cfg.SkipResearch,
		Internet:     a.Internet,
		Census:       a.Census,
		Identity:     cfg.Identity,
	}
	if cfg.Scenario != nil {
		gen, err = scenario.Compile(cfg.Scenario, icfg)
	} else {
		gen, err = ibr.New(icfg)
	}
	if err != nil {
		return nil, tum, rwth, fmt.Errorf("quicsand: generator: %w", err)
	}
	tum = a.Internet.Registry.ByASN(netmodel.ASNTUM).Prefixes[0]
	rwth = a.Internet.Registry.ByASN(netmodel.ASNRWTH).Prefixes[0]
	return gen, tum, rwth, nil
}

// newShards builds one pipelineShard per worker.
func newShards(a *Analysis, tum, rwth netmodel.Prefix, workers int) []*pipelineShard {
	shards := make([]*pipelineShard, workers)
	for i := range shards {
		shards[i] = newPipelineShard(a.Internet, tum, rwth)
	}
	return shards
}

// traceTap builds the checkpoint tap when a trace sink is configured.
func traceTap(cfg Config) *engine.Tap[*telescope.Packet] {
	if cfg.Trace == nil {
		return nil
	}
	return &engine.Tap[*telescope.Packet]{
		// (timestamp, source address) totally orders captured
		// packets across shards: one address never spans shards,
		// and equal-key packets within a shard keep stream order —
		// reproducing the sequential merger's canonical sequence.
		Less: func(x, y *telescope.Packet) bool {
			if x.TS != y.TS {
				return x.TS < y.TS
			}
			return x.Src < y.Src
		},
		Sink: cfg.Trace.Capture,
	}
}

// reduce folds the drained shards into the Analysis: commutative
// counter merges plus one canonical sort make the result independent
// of shard count and interleaving — and of whether the packets came
// from the generator or a stored trace.
func (a *Analysis) reduce(shards []*pipelineShard, tum, rwth netmodel.Prefix) {
	a.Telescope = telescope.New()
	a.HourlySource = telescope.NewHourlyCounter(sourceClassifier(tum, rwth))
	a.HourlyType = telescope.NewHourlyCounter(typeClassifier)
	a.Sweep = sessions.NewTimeoutSweep()
	a.QUICDetector = dosdetect.NewDetector(dosdetect.VectorQUIC)
	a.CommonDetector = dosdetect.NewDetector(dosdetect.VectorCommon)
	a.CommonDetector.DropExcluded = true
	for _, sh := range shards {
		sh.flush()
		sh.flightClose()
		a.Telescope.Merge(sh.tel)
		a.HourlySource.Merge(sh.hourlySource)
		a.HourlyType.Merge(sh.hourlyType)
		a.Sweep.Merge(sh.sweep)
		a.CommonDetector.Merge(sh.commonDet)
		a.QUICSessions = append(a.QUICSessions, sh.sessions...)
		a.NonQUIC += sh.nonQUIC
	}
	sessions.SortCanonical(a.QUICSessions)

	for _, s := range a.QUICSessions {
		switch s.Kind() {
		case sessions.KindRequestOnly:
			a.RequestSessions = append(a.RequestSessions, s)
		case sessions.KindResponseOnly:
			a.ResponseSessions = append(a.ResponseSessions, s)
			a.QUICDetector.Offer(s)
		default:
			// Mixed sessions would contradict the paper's disjointness
			// observation; surface them loudly in results.
			a.RequestSessions = append(a.RequestSessions, s)
		}
	}

	a.Correlation = correlate.Correlate(a.QUICDetector.Sorted(), a.CommonDetector.Sorted())

	// GreyNoise join over request-session sources.
	a.GreyNoise = greynoise.NewStore(a.Internet.Registry)
	for addr, tags := range a.Truth.TaggedBots {
		a.GreyNoise.Tag(addr, tags...)
	}
	var srcs []netmodel.Addr
	seen := map[netmodel.Addr]bool{}
	for _, s := range a.RequestSessions {
		if !seen[s.Src] {
			seen[s.Src] = true
			srcs = append(srcs, s.Src)
		}
	}
	a.ScanSources = a.GreyNoise.Summarize(srcs)
}

// collectTelemetry folds the shards' per-layer counters plus the
// engine's own bank into one Snapshot. Counter merges commute, so the
// result is independent of shard order.
func collectTelemetry(cfg Config, shards []*pipelineShard, pstats *engine.Stats) *telemetry.Snapshot {
	snap := &telemetry.Snapshot{Workers: pstats.Workers}
	for _, sh := range shards {
		snap.Dissect.Merge(&sh.dis.Metrics)
		snap.Sessions.Merge(&sh.quicSz.Metrics)
		snap.Sessions.Merge(&sh.commonSz.Metrics)
		if sh.det != nil {
			snap.Detect.Merge(&sh.det.Metrics)
		}
	}
	snap.ShardPackets = append([]uint64(nil), pstats.ShardItems...)
	snap.Engine = pstats.Engine
	if c, ok := cfg.Trace.(interface {
		Count() uint64
		Dropped() uint64
	}); ok {
		snap.Trace.Written = c.Count()
		snap.Trace.Dropped = c.Dropped()
	}
	return snap
}

// Run generates the month and performs every analysis stage in one
// sharded streaming pass (see Config.Workers).
func Run(cfg Config) (*Analysis, error) {
	schedStart := time.Now()
	workers := engine.Config{Workers: cfg.Workers}.ResolveWorkers()
	rec := cfg.FlightRecorder
	rec.Prepare(workers)
	drv := rec.DriverRing()

	a := &Analysis{Config: cfg}
	plan0 := drv.Now()
	gen, tum, rwth, err := prepare(cfg, a)
	if err != nil {
		return nil, err
	}
	drv.Span(telemetry.StagePlan, plan0, drv.Now()-plan0, uint64(len(gen.Sources())))
	schedWall := time.Since(schedStart)

	shards := newShards(a, tum, rwth, workers)
	for i, sh := range shards {
		sh.setRecorder(rec.ShardRing(i), rec.SliceItems())
		if cfg.Live != nil {
			sh.live = cfg.Live.Shard(i)
		}
	}
	feeds := make([]engine.Feed[*telescope.Packet], workers)
	// Packet-slab recycling is legal only when nothing retains packet
	// pointers past the sink call; the trace tap buffers packets across
	// goroutines, so checkpointing runs pay the allocations instead.
	mergers := gen.Feeds(workers, cfg.Trace == nil)
	for i, m := range mergers {
		feeds[i] = m.Run
	}

	pstats := engine.Run(
		engine.Config{Workers: cfg.Workers, Recorder: rec, FeedStage: telemetry.StageGenerate},
		feeds,
		func(i int, p *telescope.Packet) bool { return shards[i].process(p) }, traceTap(cfg))
	a.Truth = gen.Truth

	reduceStart := time.Now()
	red0 := drv.Now()
	a.reduce(shards, tum, rwth)
	a.Telemetry = collectTelemetry(cfg, shards, pstats)
	for _, m := range mergers {
		g := m.Telemetry()
		a.Telemetry.Generate.Merge(&g)
	}
	drv.Span(telemetry.StageReduce, red0, drv.Now()-red0, uint64(len(a.QUICSessions)))

	pstats.AddStage("reduce", uint64(len(a.QUICSessions)), time.Since(reduceStart))
	pstats.Stages = append(
		[]engine.Stage{{Name: "schedule", Items: uint64(len(gen.Sources())), Wall: schedWall}},
		pstats.Stages...)
	pstats.Wall = time.Since(schedStart)
	a.Pipeline = pstats
	a.Flight = rec.Timeline(pstats.Wall)
	return a, nil
}

// Replay performs the full analysis over a stored packet stream — a
// QSND checkpoint or a pcap — instead of generating one (see
// internal/capture). Packets scatter to the sharded engine by source
// address through per-shard slabs, so `Run → trace to disk → Replay`
// produces an Analysis bit-identical to the direct run for any worker
// count, on either side (DESIGN.md §10).
//
// cfg must carry the recorded run's seed/scale/thinning parameters:
// the schedule-derived ground truth (victim organizations, bot tags
// for the GreyNoise join) is rebuilt by re-scheduling, never stored in
// the trace. Workers and Trace are free — replaying with a trace sink
// re-checkpoints the stream (the convert path with analysis). For
// foreign captures the ground truth is simply empty simulation state;
// every packet-derived figure still computes.
func Replay(cfg Config, src capture.Source) (*Analysis, error) {
	schedStart := time.Now()
	workers := engine.Config{Workers: cfg.Workers}.ResolveWorkers()
	rec := cfg.FlightRecorder
	rec.Prepare(workers)
	drv := rec.DriverRing()

	a := &Analysis{Config: cfg}
	plan0 := drv.Now()
	gen, tum, rwth, err := prepare(cfg, a)
	if err != nil {
		return nil, err
	}
	drv.Span(telemetry.StagePlan, plan0, drv.Now()-plan0, uint64(len(gen.Sources())))
	a.Truth = gen.Truth // scheduling alone fixes the ground truth
	schedWall := time.Since(schedStart)

	shards := newShards(a, tum, rwth, workers)
	for i, sh := range shards {
		sh.setRecorder(rec.ShardRing(i), rec.SliceItems())
		if cfg.Live != nil {
			sh.live = cfg.Live.Shard(i)
		}
	}
	// Replayed packets live in scatter-owned slabs under the same §9
	// ownership contract as generator slabs: recycling is legal exactly
	// when no trace tap buffers packet pointers past the sink call.
	sc := capture.NewScatter(src, workers, cfg.Trace == nil)
	sc.SetRecorder(rec)
	if cfg.Salvage.Enabled() {
		// Byte-level salvage (resync, short-read retry) lives in the
		// source; the scatter adds record-level transient retry on top.
		capture.SetSalvage(src, cfg.Salvage)
		sc.SetSalvage(cfg.Salvage)
	}

	pstats := engine.Run(
		engine.Config{Workers: cfg.Workers, Recorder: rec, FeedStage: telemetry.StageScatter},
		sc.Feeds(),
		func(i int, p *telescope.Packet) bool { return shards[i].process(p) }, traceTap(cfg))
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("quicsand: replay: %w", err)
	}

	reduceStart := time.Now()
	red0 := drv.Now()
	a.reduce(shards, tum, rwth)
	a.Telemetry = collectTelemetry(cfg, shards, pstats)
	a.Telemetry.Ingest = sc.Telemetry()
	a.Telemetry.Ingest.Format = capture.SourceFormat(src).String()
	// Reader-side skips add to whatever the decode side counted: on the
	// sequential path the shards drop nothing and this is the whole
	// number; on the span path it completes the shard drops to the same
	// worker-invariant total.
	a.Telemetry.Ingest.DecodeDrops += capture.SourceSkipped(src)
	if sv := capture.SourceSalvage(src); sv != (capture.SalvageStats{}) {
		a.Telemetry.Ingest.CorruptRecords = sv.CorruptRecords
		a.Telemetry.Ingest.ResyncScans = sv.ResyncScans
		a.Telemetry.Ingest.SalvagedBytes = sv.SalvagedBytes
		a.Telemetry.Ingest.SalvageMaxLost = sv.MaxLostRecords
		a.Telemetry.Ingest.TransientRetries += sv.TransientRetries
	}
	drv.Span(telemetry.StageReduce, red0, drv.Now()-red0, uint64(len(a.QUICSessions)))

	pstats.AddStage("reduce", uint64(len(a.QUICSessions)), time.Since(reduceStart))
	pstats.Stages = append(
		[]engine.Stage{{Name: "schedule", Items: uint64(len(gen.Sources())), Wall: schedWall}},
		pstats.Stages...)
	pstats.Wall = time.Since(schedStart)
	a.Pipeline = pstats
	a.Flight = rec.Timeline(pstats.Wall)
	return a, nil
}

// Expect computes the analytic oracle's prediction for cfg without
// generating a single packet: the scenario compiles onto a
// ledger-recording generator (scheduling only, the same cheap pass
// Replay uses to rebuild ground truth) and internal/oracle derives the
// exact-or-bounded expected analysis outputs. The result is
// independent of cfg.Workers and of live-vs-replay execution, so one
// Expectation validates every run of the (seed, scale, scenario)
// triple (DESIGN.md §12).
func Expect(cfg Config) (*oracle.Expectation, error) {
	return oracle.Expect(cfg.Scenario, ibr.Config{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ResearchThin: cfg.ResearchThin,
		SkipResearch: cfg.SkipResearch,
		Identity:     cfg.Identity,
	})
}

// OracleObserved projects the Analysis onto the oracle's observation
// schema — the measured side of oracle.Evaluate.
func (a *Analysis) OracleObserved() *oracle.Observed {
	obs := &oracle.Observed{
		TelescopeTotal:      a.Telescope.Total,
		UDP443:              a.Telescope.UDP443,
		TCPICMP:             a.Telescope.TCPICMP,
		ResearchPackets:     a.HourlySource.TotalOf("TUM-Scans") + a.HourlySource.TotalOf("RWTH-Scans"),
		NonQUIC:             a.NonQUIC,
		DistinctQUICSources: int(a.Sweep.LowerBound()),
		RequestSessions:     len(a.RequestSessions),
		ResponseSessions:    len(a.ResponseSessions),
		RequestSources:      make(map[netmodel.Addr]uint64),
		Responders:          make(map[netmodel.Addr]*oracle.ResponderObs),
		CommonAttacks:       len(a.CommonDetector.Attacks),
		CommonInspected:     a.CommonDetector.Inspected,
		// LostRecords is the salvage ledger's worst-case loss: the
		// degraded-run error budget oracle.Evaluate relaxes exact
		// counters by. Zero on clean runs — exact validation applies.
		LostRecords: a.Telemetry.Ingest.SalvageMaxLost,
	}
	for _, s := range a.RequestSessions {
		if s.Kind() == sessions.KindMixed {
			obs.MixedSessions++
		}
		obs.RequestPackets += uint64(s.Packets)
		obs.RequestSources[s.Src] += uint64(s.Packets)
	}
	for _, s := range a.ResponseSessions {
		obs.ResponsePackets += uint64(s.Packets)
		r := obs.Responders[s.Src]
		if r == nil {
			r = &oracle.ResponderObs{
				Start: s.Start, End: s.End,
				Versions: make(map[wire.Version]bool),
			}
			obs.Responders[s.Src] = r
		}
		r.Sessions++
		r.Packets += uint64(s.Packets)
		r.RetryPackets += uint64(s.TypeCounts[wire.PacketTypeRetry])
		if s.Start < r.Start {
			r.Start = s.Start
		}
		if s.End > r.End {
			r.End = s.End
		}
		for _, v := range s.Versions() {
			r.Versions[v] = true
		}
	}
	for _, atk := range a.QUICDetector.Attacks {
		obs.QUICAttacks = append(obs.QUICAttacks, oracle.AttackObs{
			Victim:         atk.Victim,
			Packets:        atk.Packets,
			DurationSec:    atk.Duration(),
			MaxPPS:         atk.MaxPPS,
			SpoofedClients: atk.SpoofedClients,
			ClientPorts:    atk.ClientPorts,
			UniqueSCIDs:    atk.UniqueSCIDs,
			Version:        atk.Version,
		})
	}
	return obs
}

// Victims returns the unique QUIC flood victims.
func (a *Analysis) Victims() []netmodel.Addr {
	counts := dosdetect.VictimCounts(a.QUICDetector.Attacks)
	out := make([]netmodel.Addr, 0, len(counts))
	for v := range counts {
		out = append(out, v)
	}
	return out
}

// OrgShare returns the percentage of QUIC attacks whose victim belongs
// to the named census operator.
func (a *Analysis) OrgShare(org string) float64 {
	if len(a.QUICDetector.Attacks) == 0 {
		return 0
	}
	n := 0
	for _, atk := range a.QUICDetector.Attacks {
		if a.Census.OrgOf(atk.Victim) == org {
			n++
		}
	}
	return float64(n) / float64(len(a.QUICDetector.Attacks)) * 100
}

// AttackDurations returns the duration samples for the given vector.
func (a *Analysis) AttackDurations(vec dosdetect.Vector) []float64 {
	det := a.QUICDetector
	if vec == dosdetect.VectorCommon {
		det = a.CommonDetector
	}
	out := make([]float64, 0, len(det.Attacks))
	for _, atk := range det.Attacks {
		out = append(out, atk.Duration())
	}
	return out
}

// AttackIntensities returns max-pps samples for the given vector.
func (a *Analysis) AttackIntensities(vec dosdetect.Vector) []float64 {
	det := a.QUICDetector
	if vec == dosdetect.VectorCommon {
		det = a.CommonDetector
	}
	out := make([]float64, 0, len(det.Attacks))
	for _, atk := range det.Attacks {
		out = append(out, atk.MaxPPS)
	}
	return out
}

// MessageMix aggregates the §6 packet-type mix over attack
// backscatter: Initial share, Handshake share, other.
func (a *Analysis) MessageMix() (initial, handshake, other float64) {
	n := 0
	for _, atk := range a.QUICDetector.Attacks {
		initial += atk.InitialShare
		handshake += atk.HandshakeShare
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	initial /= float64(n)
	handshake /= float64(n)
	return initial * 100, handshake * 100, 100 - (initial+handshake)*100
}

// TypeMatrix computes Figure 5: session counts per (network type,
// session kind).
func (a *Analysis) TypeMatrix() map[netmodel.NetworkType][2]int {
	m := make(map[netmodel.NetworkType][2]int)
	for _, s := range a.RequestSessions {
		t := a.Internet.Registry.TypeOf(s.Src)
		e := m[t]
		e[0]++
		m[t] = e
	}
	for _, s := range a.ResponseSessions {
		t := a.Internet.Registry.TypeOf(s.Src)
		e := m[t]
		e[1]++
		m[t] = e
	}
	return m
}

// ExcludedProfile summarizes the Appendix B non-attack backscatter
// sessions (median packets, duration, max pps).
func (a *Analysis) ExcludedProfile() (pkts, durSec, maxPPS float64) {
	var ps, ds, rs []float64
	for _, s := range a.QUICDetector.Excluded {
		ps = append(ps, float64(s.Packets))
		ds = append(ds, s.Duration())
		rs = append(rs, s.MaxPPS())
	}
	return stats.Median(ps), stats.Median(ds), stats.Median(rs)
}
