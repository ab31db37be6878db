// Command telescoped is a live miniature telescope: it binds a UDP
// socket and classifies every arriving datagram with the full QUIC
// dissector, printing one line per packet — the same pipeline the
// simulation feeds, attached to a real socket.
//
// Datagrams are fanned out over the sharded pipeline engine by remote
// address (-workers, 0 = all CPUs), so each source's packets are
// dissected in order by a per-shard dissector while the socket reader
// never blocks on crypto.
//
// Observability: -metrics ADDR serves Prometheus text exposition on
// /metrics (live per-shard counters plus heartbeat gauges, and the
// final merged snapshot once shutdown begins) together with the
// standard net/http/pprof handlers; -heartbeat controls the structured
// progress log (packets/s, shard skew, heap); -trace-out FILE arms the
// flight recorder (DESIGN.md §15) and writes the stage/shard timeline
// as Perfetto-loadable Chrome trace JSON at shutdown (referenced from
// the manifest); -manifest FILE writes a
// machine-readable run record at shutdown; -record FILE checkpoints
// every received datagram to a QSND or pcap capture that `quicsand
// replay` can re-analyze. SIGINT/SIGTERM stop the capture gracefully:
// the pipeline drains, the record sink is flushed with its written and
// dropped counts logged (and folded into the manifest), the final
// telemetry snapshot is flushed, and the process exits cleanly.
//
// Daemon mode (-window DUR) swaps the per-packet log for the full
// streaming analysis pipeline (DESIGN.md §17): every datagram is mapped
// into the telescope address model and fed to the incremental analyzer
// with one sliding-window detector bank per shard. -alerts FILE|-
// appends closed detector episodes as JSON lines, -checkpoint FILE
// atomically rewrites the serialized pipeline state every
// -checkpoint-every (resumable with matching -seed/-scale),
// -mem-budget bounds per-shard session state by evicting the coldest
// source, and -detect-config loads detector thresholds from JSON. Each
// checkpoint also appends an analysis snapshot to the -manifest record.
// Shutdown drains the stream and emits the final checkpoint.
//
// Point any QUIC client at it (or run cmd/quicsand's generated trace
// through it) to watch the classification logic work on live traffic.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"quicsand/internal/capture"
	"quicsand/internal/dissect"
	"quicsand/internal/engine"
	"quicsand/internal/netmodel"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8443", "UDP address to observe")
	workers := flag.Int("workers", 0, "dissection shards; 0 = all CPUs")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics and /debug/pprof on this address")
	heartbeat := flag.Duration("heartbeat", 10*time.Second, "progress-log interval (0 disables)")
	manifest := flag.String("manifest", "", "write a machine-readable run manifest at shutdown")
	record := flag.String("record", "", "record received datagrams to this capture file (.pcap/.cap = libpcap, else QSND)")
	traceOut := flag.String("trace-out", "", "write the run's flight-recorder timeline as Chrome trace-event JSON at shutdown")
	window := flag.Duration("window", 0, "daemon mode: run the full analysis pipeline with sliding-window detectors of this width (0 = classic per-packet log)")
	ckptEvery := flag.Duration("checkpoint-every", time.Minute, "daemon checkpoint interval (0 = final drain only)")
	memBudget := flag.Int("mem-budget", 0, "daemon per-sessionizer active-session budget, coldest evicted past it (0 = unbounded)")
	alerts := flag.String("alerts", "", "daemon: append detector alerts as JSON lines to FILE, or - for stdout")
	checkpoint := flag.String("checkpoint", "", "daemon: atomically (re)write the latest checkpoint image to FILE")
	detectConfig := flag.String("detect-config", "", "daemon: detector-threshold JSON (default thresholds when empty)")
	seed := flag.Uint64("seed", 2021, "daemon: simulation-substrate seed stamped into checkpoints")
	scale := flag.Float64("scale", 0.001, "daemon: simulation-substrate scale stamped into checkpoints")
	flag.Parse()

	opts := serveOpts{
		workers:      *workers,
		metrics:      *metrics,
		heartbeat:    *heartbeat,
		manifest:     *manifest,
		record:       *record,
		traceOut:     *traceOut,
		window:       *window,
		ckptEvery:    *ckptEvery,
		memBudget:    *memBudget,
		alerts:       *alerts,
		checkpoint:   *checkpoint,
		detectConfig: *detectConfig,
		seed:         *seed,
		scale:        *scale,
	}
	if err := run(*listen, opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "telescoped:", err)
		os.Exit(1)
	}
}

// run binds the socket, installs graceful SIGINT/SIGTERM shutdown, and
// serves until the socket closes. The signal goroutine is reaped before
// run returns (no leak), so tests can call it repeatedly.
func run(listen string, opts serveOpts, out, diag io.Writer) error {
	if opts.window <= 0 {
		if err := opts.validateClassic(); err != nil {
			return err
		}
	}
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		return err
	}
	defer pc.Close()
	fmt.Fprintf(diag, "telescoped: observing %s (SIGINT/SIGTERM to stop)\n", pc.LocalAddr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case sig := <-stop:
			fmt.Fprintf(diag, "telescoped: %v: draining pipeline, flushing final snapshot\n", sig)
			pc.Close()
		case <-done:
		}
	}()

	if opts.window > 0 {
		err = serveDaemon(opts, pc, out, diag)
	} else {
		err = serve(opts, pc, out, diag)
	}
	signal.Stop(stop)
	close(done)
	wg.Wait()
	return err
}

// serveOpts parameterizes one serve run.
type serveOpts struct {
	workers   int
	metrics   string // Prometheus+pprof listen address; "" disables
	heartbeat time.Duration
	manifest  string // run-manifest path; "" disables
	record    string // capture-file path; "" disables
	traceOut  string // flight-recorder trace path; "" disables

	// Daemon mode (-window > 0): the streaming analysis pipeline
	// replaces the per-packet classification log.
	window       time.Duration
	ckptEvery    time.Duration // periodic checkpoints; 0 = final only
	memBudget    int           // sessionizer MaxActive; 0 = unbounded
	alerts       string        // alert JSON-lines path; "-" = out
	checkpoint   string        // checkpoint-image path; "" disables
	detectConfig string        // detector-threshold JSON path
	seed         uint64        // substrate parameters stamped into
	scale        float64       // checkpoints (resume must match them)
}

// validateClassic rejects daemon-only flags when -window is off, so a
// typo'd invocation fails loudly instead of silently logging packets.
func (o serveOpts) validateClassic() error {
	switch {
	case o.alerts != "":
		return fmt.Errorf("-alerts requires -window")
	case o.checkpoint != "":
		return fmt.Errorf("-checkpoint requires -window")
	case o.detectConfig != "":
		return fmt.Errorf("-detect-config requires -window")
	case o.memBudget != 0:
		return fmt.Errorf("-mem-budget requires -window")
	}
	return nil
}

// datagram is one received UDP payload with its remote address.
type datagram struct {
	addr string
	data []byte
}

// serve drains pc through the sharded engine until the socket closes,
// then flushes the final telemetry snapshot: the stage table and
// counter block onto out, the merged snapshot onto the /metrics
// endpoint, and the optional manifest to disk. Each shard owns one
// dissector and one live counter bank; lines are serialized onto out
// with a mutex (completion order — a live view, not a canonical
// trace).
func serve(opts serveOpts, pc net.PacketConn, out, diag io.Writer) error {
	n := engine.Config{Workers: opts.workers}.ResolveWorkers()
	live := telemetry.NewLive(n)
	var flight *telemetry.Recorder
	if opts.traceOut != "" {
		flight = telemetry.NewRecorder(telemetry.RecorderConfig{})
	}

	var srv *telemetry.Server
	if opts.metrics != "" {
		s, err := telemetry.NewServer(opts.metrics, live)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer s.Close()
		srv = s
		fmt.Fprintf(diag, "telescoped: metrics on http://%s/metrics (pprof on /debug/pprof)\n", s.Addr())
	}
	var hb *telemetry.Heartbeat
	if opts.heartbeat > 0 {
		hb = telemetry.StartHeartbeat(live, srv, opts.heartbeat, func(format string, args ...any) {
			fmt.Fprintf(diag, "telescoped: "+format+"\n", args...)
		})
		defer hb.Stop()
	}

	// Optional capture: the socket reader goroutine feeds the sink
	// before dispatch, so the recording preserves arrival order and
	// needs no locking. Capture is fire-and-forget — write failures
	// (full disk) are sticky in the sink and surface as the drained
	// Dropped() count at shutdown, never by stalling the read loop.
	var rec capture.Sink
	var recFile *os.File
	var recSkipped uint64
	if opts.record != "" {
		f, err := os.Create(opts.record)
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		recFile = f
		rec = capture.NewSink(f, capture.FormatForPath(opts.record))
	}
	dstAddr, dstPort := localIPv4(pc.LocalAddr())

	chans := make([]chan datagram, n)
	for i := range chans {
		chans[i] = make(chan datagram, 64)
	}

	// Socket reader: hash the remote address onto a shard so one
	// source's datagrams stay ordered on one dissector. Inline FNV-1a
	// keeps the read loop free of per-packet hasher allocations.
	go func() {
		buf := make([]byte, 65535)
		var p telescope.Packet
		for {
			sz, addr, err := pc.ReadFrom(buf)
			if err != nil {
				for _, ch := range chans {
					close(ch)
				}
				return
			}
			d := datagram{addr: addr.String(), data: append([]byte(nil), buf[:sz]...)}
			if rec != nil {
				if ua, ok := addr.(*net.UDPAddr); ok && fillPacket(&p, ua.AddrPort(), dstAddr, dstPort, d.data) {
					rec.Capture(&p)
				} else {
					recSkipped++
				}
			}
			h := uint32(2166136261)
			for i := 0; i < len(d.addr); i++ {
				h = (h ^ uint32(d.addr[i])) * 16777619
			}
			chans[h%uint32(n)] <- d
		}
	}()

	feeds := make([]engine.Feed[datagram], n)
	for i := range feeds {
		ch := chans[i]
		feeds[i] = func(emit func(datagram)) {
			for d := range ch {
				emit(d)
			}
		}
	}

	dissectors := make([]*dissect.Dissector, n)
	for i := range dissectors {
		dissectors[i] = dissect.NewDissector()
	}
	var mu sync.Mutex
	st := engine.Run(engine.Config{
		Workers: opts.workers,
		// Feed-side worker time is waiting on the socket fan-out.
		Recorder: flight, FeedStage: telemetry.StageIngest,
	}, feeds, func(shard int, d datagram) bool {
		bank := live.Shard(shard)
		bank.Packets.Add(1)
		bank.Bytes.Add(uint64(len(d.data)))
		text, quic := describe(dissectors[shard], d)
		if !quic {
			bank.NonQUIC.Add(1)
		}
		mu.Lock()
		fmt.Fprint(out, text)
		mu.Unlock()
		return false
	}, nil)

	// Progress ends when the pipeline drains; stopping the heartbeat
	// here (Stop waits for its goroutine) leaves the shutdown writes
	// below as the only diag writer.
	if hb != nil {
		hb.Stop()
	}

	// Final snapshot: merge the per-shard dissector banks, publish to
	// the endpoint (scrapable until the process exits), and flush the
	// human-readable form.
	snap := &telemetry.Snapshot{Workers: n}
	for _, d := range dissectors {
		snap.Dissect.Merge(&d.Metrics)
	}
	snap.ShardPackets = live.ShardCounts()
	snap.Engine = st.Engine
	if rec != nil {
		// Drain the capture: flush, close, and fold the sink's ledger
		// into the snapshot so -manifest and /metrics expose how much
		// of the observed traffic the file actually holds.
		if err := rec.Flush(); err != nil {
			fmt.Fprintf(diag, "telescoped: record %s: %v\n", opts.record, err)
		}
		if err := recFile.Close(); err != nil {
			return fmt.Errorf("record %s: %w", opts.record, err)
		}
		snap.Trace.Written = rec.Count()
		snap.Trace.Dropped = rec.Dropped() + recSkipped
		fmt.Fprintf(diag, "telescoped: record drained: %d records written to %s, %d dropped\n",
			rec.Count(), opts.record, snap.Trace.Dropped)
	}
	if srv != nil {
		srv.SetFinal(snap)
	}
	fmt.Fprint(out, st)
	fmt.Fprint(out, snap.Text())

	if flight != nil {
		tl := flight.Timeline(st.Wall)
		f, err := os.Create(opts.traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := tl.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("trace-out %s: %w", opts.traceOut, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace-out %s: %w", opts.traceOut, err)
		}
		fmt.Fprint(out, tl.StageTable(10))
		fmt.Fprintf(diag, "telescoped: trace written to %s (%d spans)\n", opts.traceOut, tl.SpanCount())
	}

	if opts.manifest != "" {
		m := &telemetry.Manifest{
			Command: "telescoped",
			Config: map[string]any{
				"listen":  pc.LocalAddr().String(),
				"workers": n,
				"record":  opts.record,
			},
			Workers:       st.Workers,
			WallNS:        st.Wall.Nanoseconds(),
			PacketsPerSec: st.Throughput(),
			ShardPackets:  snap.ShardPackets,
			ShardSkew:     snap.Skew(),
			TraceFile:     opts.traceOut,
			Telemetry:     snap,
		}
		for _, s := range st.Stages {
			m.Stages = append(m.Stages, telemetry.StageTiming{
				Name: s.Name, Items: s.Items, WallNS: s.Wall.Nanoseconds(),
			})
		}
		if err := m.WriteFile(opts.manifest); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		fmt.Fprintf(diag, "telescoped: manifest written to %s\n", opts.manifest)
	}
	return nil
}

// localIPv4 resolves the bound socket address into the telescope
// packet model's destination fields (zero when not IPv4).
func localIPv4(a net.Addr) (netmodel.Addr, uint16) {
	ua, ok := a.(*net.UDPAddr)
	if !ok {
		return 0, 0
	}
	ip4 := ua.IP.To4()
	if ip4 == nil {
		return 0, uint16(ua.Port)
	}
	return netmodel.Addr(uint32(ip4[0])<<24 | uint32(ip4[1])<<16 | uint32(ip4[2])<<8 | uint32(ip4[3])),
		uint16(ua.Port)
}

// fillPacket shapes one received datagram into the telescope store's
// packet model, in place; p.Payload aliases data. Non-IPv4 remotes
// have no representation in the 32-bit address space and report false
// (counted as record drops).
func fillPacket(p *telescope.Packet, remote netip.AddrPort, dst netmodel.Addr, dstPort uint16, data []byte) bool {
	ip := remote.Addr().Unmap()
	if !ip.Is4() {
		return false
	}
	ip4 := ip.As4()
	*p = telescope.Packet{
		TS:      telescope.TS(time.Now()),
		Src:     netmodel.Addr(binary.BigEndian.Uint32(ip4[:])),
		Dst:     dst,
		SrcPort: remote.Port(),
		DstPort: dstPort,
		Proto:   telescope.ProtoUDP,
		Size:    uint16(len(data)),
		Payload: data,
	}
	return true
}

// describe classifies one datagram into printable lines; quic reports
// whether deep validation accepted it.
func describe(d *dissect.Dissector, dg datagram) (text string, quic bool) {
	r, err := d.Dissect(dg.data)
	if err != nil {
		return fmt.Sprintf("%-21s %5dB  not QUIC\n", dg.addr, len(dg.data)), false
	}
	var b strings.Builder
	for _, pi := range r.Packets {
		fmt.Fprintf(&b, "%-21s %5dB  %-18s", dg.addr, len(dg.data), pi.Type)
		if pi.Type != wire.PacketTypeOneRTT {
			fmt.Fprintf(&b, " %-14s scid=%s dcid=%s", pi.Version, pi.SCID, pi.DCID)
		}
		if pi.HasClientHello {
			fmt.Fprintf(&b, " ClientHello sni=%q", pi.SNI)
		} else if pi.Type == wire.PacketTypeInitial && !pi.Decrypted {
			b.WriteString(" (undecryptable: backscatter-shaped)")
		}
		b.WriteByte('\n')
	}
	return b.String(), true
}
