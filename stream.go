package quicsand

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/engine"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/oracle"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// StreamConfig parameterizes a Streamer: the batch Config plus the
// streaming-only knobs.
type StreamConfig struct {
	Config

	// Detect, when non-nil, attaches one sliding-window detector bank
	// per shard; alerts drain through Checkpoint/Close.
	Detect *detect.Config

	// MaxActiveSessions, when positive, is the per-sessionizer hard
	// memory budget: each shard's QUIC and common sessionizers evict
	// their coldest session past this many active sources
	// (telemetry.Sessions.BudgetEvicted). Bounded memory trades away
	// worker-count invariance of exactly which sessions split — the
	// differential suite runs unbudgeted.
	MaxActiveSessions int
}

// Streamer is the pipeline's incremental form: the same sharded
// analysis state batch Run builds, fed one packet at a time through
// Offer, checkpointable at any moment without stopping ingest.
//
// A mid-stream Checkpoint at captured-packet N yields an Analysis
// bit-identical to a batch run over the first N packets of the same
// stream (the differential stream≡batch suite enforces this for every
// golden built-in): shard states clone under a short barrier, and the
// clone reduces with the same commutative merges and canonical sorts
// the batch reduction uses.
//
// Offer and Checkpoint are safe to call from different goroutines
// (the daemon's checkpoint ticker); each is serialized by one mutex.
// StreamLive and StreamReplay own their Streamer privately and drive
// the unlocked offer/checkpointLocked pair instead.
type Streamer struct {
	cfg     StreamConfig
	workers int

	proto *Analysis // substrate holder: Internet/Census/Truth/Config
	gen   *ibr.Generator
	tum   netmodel.Prefix
	rwth  netmodel.Prefix

	shards []*pipelineShard

	mu       sync.Mutex
	closed   bool
	position uint64   // captured packets offered so far
	counts   []uint64 // captured packets per shard

	// workers>1 plumbing: per-shard op channels, the slab each shard is
	// filling, and the slabs its worker has handed back.
	chans    []chan shardOp
	building []*streamSlab
	free     []chan *streamSlab
	wg       sync.WaitGroup
}

type shardOp struct {
	slab *streamSlab
	bar  *streamBarrier
}

// streamSlab is one shard's dispatch unit at workers>1: packet values
// copied out of the driver's borrowed packets, and the arena their
// payload bytes were copied into. Slabs cycle between Offer, which
// fills one per shard, and the shard worker, which processes it and
// hands it back, so the steady state allocates nothing (DESIGN.md §9).
type streamSlab struct {
	pkts  []telescope.Packet
	arena []byte
}

// add copies p, and any payload it carries, into the slab. An empty
// payload is stored as nil, the form a recorded capture decodes to.
func (b *streamSlab) add(p *telescope.Packet) {
	b.pkts = append(b.pkts, *p)
	q := &b.pkts[len(b.pkts)-1]
	q.Payload = nil
	n := len(p.Payload)
	if n == 0 {
		return
	}
	if len(b.arena)+n > cap(b.arena) {
		// Never regrow in place: earlier packets alias the old arena,
		// which stays alive under them until they are overwritten. The
		// doubled arena is what the slab keeps, so arenas settle at the
		// stream's real payload mix per slab.
		b.arena = make([]byte, 0, max(2*cap(b.arena), n, 1<<10))
	}
	off := len(b.arena)
	b.arena = append(b.arena, p.Payload...)
	q.Payload = b.arena[off:len(b.arena):len(b.arena)]
}

type streamBarrier struct {
	arrived sync.WaitGroup
	release chan struct{}
}

// streamBatch is the dispatch granularity for workers>1: packets per
// slab.
const streamBatch = 256

// streamPool is the number of slabs per shard. Offer blocks once all
// of a shard's slabs are in flight, so a slow shard holds the driver
// back instead of growing the heap. A deeper pool buys no throughput
// but holds more packets in memory and lengthens the drain every
// checkpoint barrier waits for.
const streamPool = 4

// NewStreamer builds the incremental pipeline. The substrate
// (Internet, census, scheduled ground truth) is prepared exactly as
// Run/Replay do, so checkpoints carry the same joins.
func NewStreamer(cfg StreamConfig) (*Streamer, error) {
	if cfg.Detect != nil {
		if err := cfg.Detect.Validate(); err != nil {
			return nil, err
		}
	}
	workers := engine.Config{Workers: cfg.Workers}.ResolveWorkers()
	proto := &Analysis{Config: cfg.Config}
	gen, tum, rwth, err := prepare(cfg.Config, proto)
	if err != nil {
		return nil, err
	}
	proto.Truth = gen.Truth // scheduling alone fixes the ground truth
	s := &Streamer{
		cfg:     cfg,
		workers: workers,
		proto:   proto,
		gen:     gen,
		tum:     tum,
		rwth:    rwth,
		shards:  newShards(proto, tum, rwth, workers),
		counts:  make([]uint64, workers),
	}
	s.configureShards()
	s.startWorkers()
	return s, nil
}

// configureShards attaches streaming-only state to each shard.
func (s *Streamer) configureShards() {
	for i, sh := range s.shards {
		if s.cfg.Detect != nil {
			sh.det = detect.NewShard(*s.cfg.Detect)
		}
		if s.cfg.MaxActiveSessions > 0 {
			sh.quicSz.MaxActive = s.cfg.MaxActiveSessions
			sh.commonSz.MaxActive = s.cfg.MaxActiveSessions
		}
		if s.cfg.Live != nil {
			sh.live = s.cfg.Live.Shard(i)
		}
	}
}

// startWorkers launches the shard goroutines (workers>1 only;
// workers==1 processes inline in Offer, the classic sequential pass).
func (s *Streamer) startWorkers() {
	if s.workers == 1 {
		return
	}
	s.chans = make([]chan shardOp, s.workers)
	s.building = make([]*streamSlab, s.workers)
	s.free = make([]chan *streamSlab, s.workers)
	for i := range s.chans {
		// Both channels hold every slab of the shard, so neither the
		// dispatch nor the worker's hand-back waits on buffer space.
		ch := make(chan shardOp, streamPool)
		free := make(chan *streamSlab, streamPool)
		for range streamPool {
			free <- &streamSlab{pkts: make([]telescope.Packet, 0, streamBatch)}
		}
		s.chans[i], s.free[i] = ch, free
		sh := s.shards[i]
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for op := range ch {
				if op.bar != nil {
					op.bar.arrived.Done()
					<-op.bar.release
					continue
				}
				for j := range op.slab.pkts {
					sh.process(&op.slab.pkts[j])
				}
				free <- op.slab
			}
		}()
	}
}

// flush dispatches shard k's partly filled slab, if any.
func (s *Streamer) flush(k int) {
	if b := s.building[k]; b != nil {
		s.chans[k] <- shardOp{slab: b}
		s.building[k] = nil
	}
}

// Generator exposes the scheduled generator (ledger, sources, feeds)
// so drivers can pull a live stream from the same substrate.
func (s *Streamer) Generator() *ibr.Generator { return s.gen }

// Workers returns the resolved shard count.
func (s *Streamer) Workers() int { return s.workers }

// Position returns the number of captured packets offered so far.
func (s *Streamer) Position() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.position
}

// Offer ingests one packet and reports whether the telescope captured
// it. Packets must arrive in non-decreasing time order (the capture
// and generator sources both guarantee this). The packet is only
// borrowed: with workers>1 it is copied into a shard slab before
// dispatch, so callers may recycle the struct and its payload bytes as
// soon as Offer returns. An empty payload counts as no payload at
// every worker count. Captured packets are also written to cfg.Trace
// (in offer order — the canonical stream order) before dispatch, so a
// recording daemon's trace replays to the same state.
func (s *Streamer) Offer(p *telescope.Packet) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offer(p)
}

// offer is Offer without the lock: the caller holds s.mu or owns the
// Streamer outright.
func (s *Streamer) offer(p *telescope.Packet) bool {
	if s.closed {
		return false
	}
	// The capture predicate, hoisted out of Telescope.Offer: packets
	// outside the /9 contribute nothing to any analysis state (Replay
	// over a trace of captured packets reproduces Run exactly), so the
	// driver drops them without touching a shard.
	if !netmodel.InTelescope(p.Dst) {
		return false
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Capture(p)
	}
	s.position++
	k := ibr.ShardOf(p.Src, s.workers)
	s.counts[k]++
	if s.workers == 1 {
		s.shards[0].process(p)
		return true
	}
	b := s.building[k]
	if b == nil {
		// Blocks while every slab of shard k is in flight.
		b = <-s.free[k]
		b.pkts, b.arena = b.pkts[:0], b.arena[:0]
		s.building[k] = b
	}
	b.add(p)
	if len(b.pkts) == streamBatch {
		s.flush(k)
	}
	return true
}

// barrier parks every shard worker (having first flushed the slabs
// being filled), runs fn over the quiescent shards, then releases
// them. Caller holds s.mu or owns the Streamer outright.
func (s *Streamer) barrier(fn func()) {
	if s.workers == 1 || s.closed {
		fn()
		return
	}
	bar := &streamBarrier{release: make(chan struct{})}
	bar.arrived.Add(s.workers)
	for k, ch := range s.chans {
		s.flush(k)
		ch <- shardOp{bar: bar}
	}
	bar.arrived.Wait()
	fn()
	close(bar.release)
}

// StreamCheckpoint is one frozen view of the pipeline at a captured
// packet position: cloned shard states plus the alerts that closed
// since the previous drain. Analysis() and Encode() are both
// repeatable — each works on fresh copies of the frozen state.
type StreamCheckpoint struct {
	cfg      StreamConfig
	workers  int
	position uint64
	counts   []uint64
	tum      netmodel.Prefix
	rwth     netmodel.Prefix
	proto    *Analysis
	shards   []*pipelineShard
	detMet   []telemetry.Detect

	// Alerts are the detector episodes closed since the previous
	// checkpoint (canonically ordered, merged across shards).
	Alerts []detect.Alert
}

// Position returns the captured-packet count the checkpoint froze at.
func (c *StreamCheckpoint) Position() uint64 { return c.position }

// Checkpoint freezes the current state without stopping ingest: shard
// workers park at a barrier just long enough to clone their state and
// drain closed alerts, then resume. The returned checkpoint is
// self-contained — later traffic never shows in it.
func (s *Streamer) Checkpoint() *StreamCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked(false)
}

// checkpointLocked is Checkpoint without the lock: the caller holds
// s.mu or owns the Streamer outright.
func (s *Streamer) checkpointLocked(final bool) *StreamCheckpoint {
	c := &StreamCheckpoint{
		cfg:      s.cfg,
		workers:  s.workers,
		position: s.position,
		counts:   append([]uint64(nil), s.counts...),
		tum:      s.tum,
		rwth:     s.rwth,
		proto:    s.proto,
	}
	var lists [][]detect.Alert
	s.barrier(func() {
		c.shards = make([]*pipelineShard, len(s.shards))
		for i, sh := range s.shards {
			if final && sh.det != nil {
				sh.det.Flush()
			}
			c.shards[i] = sh.clone()
			if sh.det != nil {
				c.detMet = append(c.detMet, sh.det.Metrics)
				if l := sh.det.Drain(); len(l) > 0 {
					lists = append(lists, l)
				}
			}
		}
	})
	c.Alerts = detect.MergeAlerts(lists...)
	return c
}

// Close drains the shard workers and returns the final checkpoint,
// with every open detector episode flushed into its alert stream.
// Offer returns false after Close; Close is idempotent.
func (s *Streamer) Close() *StreamCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.workers > 1 {
		for k, ch := range s.chans {
			s.flush(k)
			close(ch)
		}
		s.wg.Wait()
	}
	s.closed = true
	return s.checkpointLocked(true)
}

// Analysis reduces the checkpoint into a full Analysis — the same
// reduction batch Run performs, over re-cloned shard state so the
// checkpoint itself stays frozen and Analysis can be called again.
func (c *StreamCheckpoint) Analysis() *Analysis {
	a := &Analysis{
		Config:   c.cfg.Config,
		Internet: c.proto.Internet,
		Census:   c.proto.Census,
		Truth:    c.proto.Truth,
	}
	clones := make([]*pipelineShard, len(c.shards))
	for i, sh := range c.shards {
		clones[i] = sh.clone()
	}
	a.reduce(clones, c.tum, c.rwth)
	pstats := &engine.Stats{Workers: c.workers, ShardItems: append([]uint64(nil), c.counts...)}
	a.Telemetry = collectTelemetry(c.cfg.Config, clones, pstats)
	for i := range c.detMet {
		a.Telemetry.Detect.Merge(&c.detMet[i])
	}
	a.Pipeline = pstats
	return a
}

// StreamLive runs the streamer over its own scheduled generator — the
// full scenario month as one time-ordered stream — checkpointing every
// `interval` captured packets when onCheckpoint is non-nil. It is the
// streaming twin of Run.
func StreamLive(cfg StreamConfig, interval uint64, onCheckpoint func(*StreamCheckpoint)) (*StreamCheckpoint, error) {
	s, err := NewStreamer(cfg)
	if err != nil {
		return nil, err
	}
	// One sequential merger yields the canonical time-ordered stream
	// whatever the analysis worker count; slab recycling is legal
	// because offer consumes (or copies) the packet before returning.
	// The streamer is private to this call, so it runs unlocked.
	mergers := s.Generator().Feeds(1, true)
	var captured, next uint64
	next = interval
	mergers[0].Run(func(p *telescope.Packet) {
		if s.offer(p) {
			captured++
			if interval > 0 && onCheckpoint != nil && captured >= next {
				onCheckpoint(s.checkpointLocked(false))
				next += interval
			}
		}
	})
	return s.Close(), nil
}

// StreamReplay drives a stored capture through the streamer — the
// streaming twin of Replay, used by `quicsand replay -alerts`.
// interval and onCheckpoint as in StreamLive; like StreamLive, it owns
// its streamer and runs unlocked.
func StreamReplay(cfg StreamConfig, src capture.Source, interval uint64, onCheckpoint func(*StreamCheckpoint)) (*StreamCheckpoint, error) {
	s, err := NewStreamer(cfg)
	if err != nil {
		return nil, err
	}
	var captured, next uint64
	next = interval
	for {
		p, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			s.Close()
			return nil, fmt.Errorf("quicsand: stream replay: %w", err)
		}
		if s.offer(p) {
			captured++
			if interval > 0 && onCheckpoint != nil && captured >= next {
				onCheckpoint(s.checkpointLocked(false))
				next += interval
			}
		}
	}
	return s.Close(), nil
}

// ExpectAlerts derives the analytic alert-stream prediction for cfg
// and a detector configuration without generating a packet — the
// streaming twin of Expect (internal/oracle, DESIGN.md §17).
func ExpectAlerts(cfg Config, dcfg detect.Config) (*oracle.AlertExpectation, error) {
	return oracle.ExpectAlerts(cfg.Scenario, ibr.Config{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ResearchThin: cfg.ResearchThin,
		SkipResearch: cfg.SkipResearch,
		Identity:     cfg.Identity,
	}, dcfg)
}

// sessionizerBudgetProbe reports the shards' current active-session
// counts (QUIC then common, per shard) — the lifecycle tests assert
// the memory budget holds while streaming.
func (s *Streamer) sessionizerBudgetProbe() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	s.barrier(func() {
		for _, sh := range s.shards {
			out = append(out, sh.quicSz.ActiveSessions(), sh.commonSz.ActiveSessions())
		}
	})
	return out
}
