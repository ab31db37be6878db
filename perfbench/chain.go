package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/correlate"
	"quicsand/internal/detect"
	"quicsand/internal/dissect"
	"quicsand/internal/dosdetect"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
)

// layer names one module the traced chain times.
type layer int

const (
	lCapture layer = iota
	lTelescope
	lClassify
	lDissect
	lSessions
	lDosdetect
	lDetect
	lCorrelate
	numLayers
)

var layerNames = [numLayers]string{
	"capture", "telescope", "classify", "dissect", "sessions", "dosdetect", "detect", "correlate",
}

func (l layer) String() string { return layerNames[l] }

// sliceItems is the span-export aggregation period in packets, the
// flight recorder's default slice.
const sliceItems = 1 << 16

// mark is the chain's cumulative per-layer work at a slice boundary;
// consecutive marks bound one aggregated span per layer.
type mark struct {
	atNS  int64
	ns    [numLayers]int64
	items [numLayers]uint64
}

// chain drives a workload's input through the public layer calls on
// one goroutine, in the order quicsand's pipeline shard makes them,
// with the detect bank of the streaming shards at the end. With every
// > 0 it times each call on one packet in every `every`; all calls
// still run for every packet. Calls that run once per session or once
// per run (dosdetect, flush, reduce, correlate) are timed every time.
type chain struct {
	internet     *netmodel.Internet
	tel          *telescope.Telescope
	hourlySource *telescope.HourlyCounter
	hourlyType   *telescope.HourlyCounter
	sweep        *sessions.TimeoutSweep
	quicSz       *sessions.Sessionizer
	commonSz     *sessions.Sessionizer
	commonDet    *dosdetect.Detector
	quicDet      *dosdetect.Detector
	dis          *dissect.Dissector
	det          *detect.Shard
	quicSessions []*sessions.Session
	nonQUIC      uint64
	research     uint64
	correlation  *correlate.Summary

	every uint64
	epoch time.Time
	// bias is what an empty timed span reads: the latency of one clock
	// read, which every timed span includes once and has subtracted.
	bias int64
	// sampled holds the self time of the sampled per-packet calls,
	// full the self time of calls timed unconditionally.
	sampled    [numLayers]int64
	full       [numLayers]int64
	calls      [numLayers]uint64
	timedCalls [numLayers]uint64
	// child accumulates dosdetect time inside the open sessions span,
	// so the sessionizer's self time excludes its emit hook's work.
	inSpan bool
	child  int64
	marks  []mark
	wall   time.Duration
}

func newChain(a *quicsand.Analysis, dcfg detect.Config, every uint64) *chain {
	reg := a.Internet.Registry
	tum := reg.ByASN(netmodel.ASNTUM).Prefixes[0]
	rwth := reg.ByASN(netmodel.ASNRWTH).Prefixes[0]
	c := &chain{
		internet: a.Internet,
		tel:      telescope.New(),
		// The classifiers mirror quicsand's Figure 2 and Figure 3
		// labellers; the reconciliation against Replay catches drift.
		hourlySource: telescope.NewHourlyCounter(func(p *telescope.Packet) string {
			switch {
			case !p.IsQUICCandidate():
				return ""
			case tum.Contains(p.Src):
				return "TUM-Scans"
			case rwth.Contains(p.Src):
				return "RWTH-Scans"
			default:
				return "Other"
			}
		}),
		hourlyType: telescope.NewHourlyCounter(func(p *telescope.Packet) string {
			switch {
			case p.IsRequest():
				return "Requests"
			case p.IsResponse():
				return "Responses"
			}
			return ""
		}),
		sweep:     sessions.NewTimeoutSweep(),
		commonDet: dosdetect.NewDetector(dosdetect.VectorCommon),
		quicDet:   dosdetect.NewDetector(dosdetect.VectorQUIC),
		dis:       dissect.NewDissector(),
		det:       detect.NewShard(dcfg),
		every:     every,
		epoch:     time.Now(),
	}
	c.commonDet.DropExcluded = true
	c.quicSz = sessions.NewSessionizer(func(s *sessions.Session) {
		c.quicSessions = append(c.quicSessions, s)
	})
	c.quicSz.GapRecorder = c.sweep.RecordGap
	c.commonSz = sessions.NewSessionizer(c.offerCommon)
	return c
}

func (c *chain) now() int64 { return int64(time.Since(c.epoch)) }

// stop closes a sampled call of layer l opened at t0.
func (c *chain) stop(l layer, t0 int64) {
	c.sampled[l] += c.now() - t0 - c.bias
	c.timedCalls[l]++
}

// calibrate measures the clock-read latency timed spans subtract.
func (c *chain) calibrate() { c.bias = clockBias(c.epoch) }

// clockBias is what an empty span reads when both ends are
// time.Since(epoch): the latency of one clock read, which every timed
// span includes once.
func clockBias(epoch time.Time) int64 {
	const n = 1 << 14
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Since(epoch)
		sum += time.Since(epoch) - t0
	}
	return int64(sum / n)
}

// whole runs fn as an unconditionally timed span of layer l; dosdetect
// work inside it is the child span subtracted from l's self time.
func (c *chain) whole(l layer, fn func()) {
	if c.every == 0 {
		fn()
		return
	}
	c.inSpan, c.child = true, 0
	t0 := c.now()
	fn()
	c.full[l] += c.now() - t0 - c.bias - c.child
	c.inSpan = false
}

// offerCommon is the common sessionizer's emit hook: the dosdetect
// child span.
func (c *chain) offerCommon(s *sessions.Session) {
	c.calls[lDosdetect]++
	if c.every == 0 {
		c.commonDet.Offer(s)
		return
	}
	t0 := c.now()
	c.commonDet.Offer(s)
	d := c.now() - t0 - c.bias
	c.full[lDosdetect] += d
	if c.inSpan {
		c.child += d
	}
}

// observe offers one packet to a sessionizer; sampled spans subtract
// the dosdetect child time their emits spent.
func (c *chain) observe(sz *sessions.Sessionizer, p *telescope.Packet, res *dissect.Result, timed bool) {
	c.calls[lSessions]++
	if !timed {
		if sz == c.quicSz {
			c.sweep.RecordSource(p.Src)
		}
		sz.Observe(p, res)
		return
	}
	c.inSpan, c.child = true, 0
	t0 := c.now()
	if sz == c.quicSz {
		c.sweep.RecordSource(p.Src)
	}
	sz.Observe(p, res)
	c.sampled[lSessions] += c.now() - t0 - c.bias - c.child
	c.timedCalls[lSessions]++
	c.inSpan = false
}

// process mirrors the pipeline shard's per-packet chain.
func (c *chain) process(p *telescope.Packet, timed bool) {
	var t0 int64
	if timed {
		t0 = c.now()
	}
	c.calls[lTelescope]++
	ok := c.tel.Offer(p)
	if ok {
		c.hourlySource.Capture(p)
	}
	if timed {
		c.stop(lTelescope, t0)
	}
	if !ok {
		return
	}

	if timed {
		t0 = c.now()
	}
	c.calls[lClassify]++
	research := c.internet.IsResearchSource(p.Src)
	if timed {
		c.stop(lClassify, t0)
	}
	if research {
		c.research++
		return
	}
	switch p.Proto {
	case telescope.ProtoTCP, telescope.ProtoICMP:
		c.observe(c.commonSz, p, nil, timed)
	case telescope.ProtoUDP:
		if !p.IsQUICCandidate() {
			return
		}
		var res *dissect.Result
		if p.Payload != nil {
			if timed {
				t0 = c.now()
			}
			c.calls[lDissect]++
			r, err := c.dis.Dissect(p.Payload)
			if timed {
				c.stop(lDissect, t0)
			}
			if err != nil {
				c.nonQUIC++
				return
			}
			res = r
		}
		if timed {
			t0 = c.now()
		}
		c.hourlyType.Capture(p)
		if timed {
			c.sampled[lTelescope] += c.now() - t0 - c.bias
		}
		c.observe(c.quicSz, p, res, timed)

		if timed {
			t0 = c.now()
		}
		c.calls[lDetect]++
		c.det.Observe(p, res)
		if timed {
			c.stop(lDetect, t0)
		}
	}
}

// mark records the cumulative per-layer work so far.
func (c *chain) mark() {
	m := mark{atNS: c.now()}
	for l := range m.ns {
		m.ns[l] = c.estimate(layer(l))
		m.items[l] = c.calls[l]
	}
	c.marks = append(c.marks, m)
}

// run drains src through the chain and reduces like the batch
// pipeline: flush, canonical sort, QUIC attack detection, correlation.
func (c *chain) run(src capture.Source) error {
	if c.every != 0 {
		c.calibrate()
	}
	c.epoch = time.Now()
	start := c.epoch
	for i := uint64(0); ; i++ {
		timed := c.every != 0 && i%c.every == 0
		var t0 int64
		if timed {
			t0 = c.now()
		}
		p, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("chain: read: %w", err)
		}
		c.calls[lCapture]++
		if timed {
			c.stop(lCapture, t0)
		}
		c.process(p, timed)
		if c.every != 0 && (i+1)%sliceItems == 0 {
			c.mark()
		}
	}

	c.whole(lSessions, func() {
		c.quicSz.Flush()
		c.commonSz.Flush()
		sessions.SortCanonical(c.quicSessions)
	})
	c.whole(lDosdetect, func() {
		for _, s := range c.quicSessions {
			if s.Kind() == sessions.KindResponseOnly {
				c.calls[lDosdetect]++
				c.quicDet.Offer(s)
			}
		}
	})
	c.whole(lCorrelate, func() {
		c.calls[lCorrelate]++
		c.correlation = correlate.Correlate(c.quicDet.Sorted(), c.commonDet.Sorted())
	})
	if c.every != 0 {
		c.mark()
	}
	c.wall = time.Since(start)
	return nil
}

// estimate is layer l's total self time: sampled calls scaled to all
// calls, plus the unconditionally timed work.
func (c *chain) estimate(l layer) int64 {
	est := c.full[l]
	if c.timedCalls[l] > 0 {
		est += int64(float64(c.sampled[l]) * float64(c.calls[l]) / float64(c.timedCalls[l]))
	}
	return est
}

// reconcile requires the chain's counts to equal the program's own
// analysis of the same input: a mismatch means the benchmark composes
// the layers differently from the pipeline, and its timings would
// describe some other program.
func (c *chain) reconcile(a *quicsand.Analysis) error {
	type pair struct {
		name       string
		chain, ref uint64
	}
	tel := a.Telemetry
	checks := []pair{
		{"telescope.total", c.tel.Total, a.Telescope.Total},
		{"telescope.udp443", c.tel.UDP443, a.Telescope.UDP443},
		{"telescope.tcpicmp", c.tel.TCPICMP, a.Telescope.TCPICMP},
		{"research_packets", c.hourlySource.TotalOf("TUM-Scans") + c.hourlySource.TotalOf("RWTH-Scans"),
			a.HourlySource.TotalOf("TUM-Scans") + a.HourlySource.TotalOf("RWTH-Scans")},
		{"non_quic", c.nonQUIC, a.NonQUIC},
		{"dissect.datagrams", c.dis.Metrics.Datagrams, tel.Dissect.Datagrams},
		{"dissect.packets", c.dis.Metrics.Packets, tel.Dissect.Packets},
		{"dissect.decrypted", c.dis.Metrics.Decrypted, tel.Dissect.Decrypted},
		{"sessions.emitted", c.quicSz.Metrics.Emitted + c.commonSz.Metrics.Emitted, tel.Sessions.Emitted},
		{"sessions.quic", uint64(len(c.quicSessions)), uint64(len(a.QUICSessions))},
		{"attacks.quic", uint64(len(c.quicDet.Attacks)), uint64(len(a.QUICDetector.Attacks))},
		{"attacks.common", uint64(len(c.commonDet.Attacks)), uint64(len(a.CommonDetector.Attacks))},
		{"correlate.concurrent", uint64(c.correlation.Concurrent), uint64(a.Correlation.Concurrent)},
		{"correlate.sequential", uint64(c.correlation.Sequential), uint64(a.Correlation.Sequential)},
		{"correlate.quic_only", uint64(c.correlation.QUICOnly), uint64(a.Correlation.QUICOnly)},
	}
	for _, k := range checks {
		if k.chain != k.ref {
			return fmt.Errorf("traced chain disagrees with Replay on %s: chain %d, Replay %d", k.name, k.chain, k.ref)
		}
	}
	return nil
}
