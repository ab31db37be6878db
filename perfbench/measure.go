package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/telescope"
)

// probe is a reading of the process counters a timed window spans.
type probe struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
}

var allocsSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func readProbe() probe {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(allocsSample)
	return probe{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: allocsSample[0].Value.Uint64(),
	}
}

// heapSampler records the highest /gc/heap/live:bytes seen while it
// runs. The value changes only at the end of a GC cycle, so a few
// milliseconds between reads miss no peak worth reporting.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.read()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	h.read()
	return h.peak
}

// emitClock wraps a stream workload's source to start the checkpoint
// clock: StreamReplay freezes a checkpoint right after offering every
// interval-th captured packet, and every input record is captured, so
// the emit starts when the source hands out that record.
type emitClock struct {
	capture.Source
	every, n uint64
	armed    time.Time
}

func (c *emitClock) Next() (*telescope.Packet, error) {
	p, err := c.Source.Next()
	if err == nil {
		if c.n++; c.n%c.every == 0 {
			c.armed = time.Now()
		}
	}
	return p, err
}

// batchEmits is how often a batch rep renders its result: enough that
// a run's pooled samples put ten or more beyond ckpt_p90_ms.
const batchEmits = 15

// renderEmits times the batch job's result emit, outside the driver
// call: regenerating every figure and table of the paper from the final
// Analysis, which is what the batch CLI prints. The batch driver has no
// checkpoints, so this is its ckpt_* sample.
func renderEmits(a *quicsand.Analysis) []float64 {
	// Start every rep's emits at the same point of the GC cycle, so the
	// collections they trigger land on the same samples each time.
	runtime.GC()
	out := make([]float64, 0, batchEmits)
	for i := 0; i < batchEmits; i++ {
		t0 := time.Now()
		_ = a.RenderAll()
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out
}

// rep is one timed driver call plus what the gate needs from it.
type rep struct {
	packets  uint64
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	heapPeak uint64
	emitMS   []float64
	final    *quicsand.Analysis
	alerts   []detect.Alert
}

// runDriver makes one timed call of the workload's driver over a fresh
// open of the input. Only the call itself is inside the window.
func runDriver(w workload, cfg quicsand.Config, path string) (*rep, error) {
	in, err := w.open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	runtime.GC() // every rep starts from the same collected heap

	r := &rep{}
	var final *quicsand.StreamCheckpoint
	var lists [][]detect.Alert
	var emitErr error
	h := startHeapSampler()
	p0 := readProbe()
	if !w.stream {
		r.final, err = quicsand.Replay(cfg, in.src)
	} else {
		dcfg := w.detectConfig()
		clk := &emitClock{Source: in.src, every: w.interval}
		final, err = quicsand.StreamReplay(quicsand.StreamConfig{Config: cfg, Detect: &dcfg}, clk, w.interval,
			func(ck *quicsand.StreamCheckpoint) {
				// What telescoped does on each tick: drain alerts, encode
				// the image, reduce the analysis.
				if werr := detect.WriteAlerts(io.Discard, ck.Alerts); werr != nil && emitErr == nil {
					emitErr = werr
				}
				img := ck.Encode()
				a := ck.Analysis()
				r.emitMS = append(r.emitMS, float64(time.Since(clk.armed))/1e6)
				if (ck.Position() != clk.n || len(img) == 0 || a.Telescope.Total != ck.Position()) && emitErr == nil {
					emitErr = fmt.Errorf("checkpoint at %d (source at %d): %d-byte image, %d packets analysed",
						ck.Position(), clk.n, len(img), a.Telescope.Total)
				}
				lists = append(lists, ck.Alerts)
			})
	}
	p1 := readProbe()
	r.heapPeak = h.Stop()
	if err != nil {
		return nil, err
	}
	if emitErr != nil {
		return nil, emitErr
	}
	if w.stream {
		r.final = final.Analysis()
		r.alerts = detect.MergeAlerts(append(lists, final.Alerts)...)
		r.packets = final.Position()
	} else {
		r.packets = r.final.Telescope.Total
		r.emitMS = renderEmits(r.final)
	}
	r.wall = p1.wall.Sub(p0.wall)
	r.cpu = p1.cpu - p0.cpu
	r.allocs = p1.allocs - p0.allocs
	return r, nil
}

// measurement is the aggregate of a run's timed reps.
type measurement struct {
	reps     int
	records  uint64 // input records offered, over all reps
	lost     uint64
	pktsPerS []float64
	cpuNS    []float64
	allocs   []float64
	heapMB   []float64
	emitMS   []float64
	alerts   int
	failures []error
}

// measure repeats the driver until the window has run for at least
// `window` (and at least once), gating every rep's output.
func measure(w workload, cfg quicsand.Config, in *setupResult, exp *expectations, ref *batchReference, window time.Duration) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	for m.reps == 0 || time.Since(start) < window {
		r, err := runDriver(w, cfg, in.path)
		if err != nil {
			return nil, err
		}
		m.reps++
		pk := float64(r.packets)
		m.pktsPerS = append(m.pktsPerS, pk/r.wall.Seconds())
		m.cpuNS = append(m.cpuNS, float64(r.cpu.Nanoseconds())/pk)
		m.allocs = append(m.allocs, float64(r.allocs)/pk)
		m.heapMB = append(m.heapMB, float64(r.heapPeak)/1e6)
		m.emitMS = append(m.emitMS, r.emitMS...)

		m.records += in.fp.Packets
		m.lost += lost(in.fp.Packets, r.final)
		fail := func(err error) {
			if err != nil {
				m.failures = append(m.failures, fmt.Errorf("rep %d: %w", m.reps, err))
			}
		}
		fail(checkAnalysis(exp.analysis, r.final))
		if w.stream {
			m.alerts = len(r.alerts)
			fail(checkAlerts(exp.alerts, r.alerts))
		} else {
			fail(checkIngest(r.final))
		}
		if ref != nil {
			fail(ref.check(r.final))
		}
	}
	if len(m.emitMS) == 0 {
		return nil, fmt.Errorf("no checkpoint emits: the input holds %d records, the interval is %d", in.fp.Packets, w.interval)
	}
	return m, nil
}

func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile is the linear-interpolation quantile (q in [0,1]) of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
