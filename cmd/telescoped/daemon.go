package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/engine"
	"quicsand/internal/netmodel"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// serveDaemon is the -window serve loop: the socket reader maps every
// datagram into the telescope packet model and offers it to the
// incremental pipeline; a ticker freezes checkpoints without stopping
// ingest, draining alerts and (re)writing the checkpoint image; socket
// close drains the stream and emits the final checkpoint.
//
// The received destination is rewritten to the telescope prefix base
// on UDP/443 before Offer — the daemon observes one socket, which
// stands in for the whole /9 — and the -record sink captures the
// MAPPED packet (via the streamer's trace hook, in offer order), so a
// recorded capture replays to bit-identical daemon state.
func serveDaemon(opts serveOpts, pc net.PacketConn, out, diag io.Writer) error {
	if opts.traceOut != "" {
		return fmt.Errorf("-trace-out is not supported with -window (the streaming pipeline has no stage timeline)")
	}
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		return fmt.Errorf("daemon mode needs a UDP socket, got %T", pc)
	}
	dcfg := detect.Default()
	if opts.detectConfig != "" {
		c, err := detect.LoadConfigFile(opts.detectConfig)
		if err != nil {
			return err
		}
		dcfg = c
	}
	dcfg.Window = opts.window
	if err := dcfg.Validate(); err != nil {
		return err
	}

	n := engine.Config{Workers: opts.workers}.ResolveWorkers()
	live := telemetry.NewLive(n)
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

	var alertW io.Writer
	var alertFile *os.File
	switch opts.alerts {
	case "":
	case "-":
		alertW = out
	default:
		f, err := os.Create(opts.alerts)
		if err != nil {
			return fmt.Errorf("alerts: %w", err)
		}
		alertFile = f
		alertW = f
	}

	var rec capture.Sink
	var recFile *os.File
	if opts.record != "" {
		f, err := os.Create(opts.record)
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		recFile = f
		rec = capture.NewSink(f, capture.FormatForPath(opts.record))
	}

	cfg := quicsand.StreamConfig{
		Config: quicsand.Config{
			Seed:    opts.seed,
			Scale:   opts.scale,
			Workers: opts.workers,
			Live:    live,
		},
		Detect:            &dcfg,
		MaxActiveSessions: opts.memBudget,
	}
	if rec != nil {
		cfg.Trace = rec
	}
	s, err := quicsand.NewStreamer(cfg)
	if err != nil {
		if recFile != nil {
			recFile.Close()
		}
		if alertFile != nil {
			alertFile.Close()
		}
		return err
	}
	fmt.Fprintf(diag, "telescoped: daemon mode: window=%s workers=%d checkpoint-every=%s\n",
		opts.window, n, opts.ckptEvery)

	st := &daemonState{opts: opts, alertW: alertW, start: time.Now()}

	// Checkpoint ticker. It is joined before the final drain below, so
	// st is only ever touched by one goroutine at a time.
	stopTick := make(chan struct{})
	var twg sync.WaitGroup
	if opts.ckptEvery > 0 {
		tick := time.NewTicker(opts.ckptEvery)
		twg.Add(1)
		go func() {
			defer twg.Done()
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					st.emit(s.Checkpoint(), diag)
				case <-stopTick:
					return
				}
			}
		}()
	}

	// Read loop on this goroutine: map each datagram onto the telescope
	// model in one reused packet and offer it. Offer only borrows the
	// packet (the trace sink serializes it during the call, shard
	// dispatch copies it into a slab), so the loop neither copies the
	// datagram nor allocates per read.
	buf := make([]byte, 65535)
	var p telescope.Packet
	var skipped uint64
	for {
		sz, addr, err := uc.ReadFromUDPAddrPort(buf)
		if err != nil {
			break // socket closed: the signal handler's graceful drain
		}
		if !fillPacket(&p, addr, netmodel.TelescopePrefix.Base, 443, buf[:sz]) {
			skipped++ // non-IPv4 remote: unrepresentable in the model
			continue
		}
		s.Offer(&p)
	}
	close(stopTick)
	twg.Wait()
	if hb != nil {
		hb.Stop()
	}

	final := s.Close()
	st.emit(final, diag)
	a := final.Analysis()

	snap := a.Telemetry
	snap.ShardPackets = live.ShardCounts()
	if rec != nil {
		if err := rec.Flush(); err != nil {
			fmt.Fprintf(diag, "telescoped: record %s: %v\n", opts.record, err)
		}
		if err := recFile.Close(); err != nil {
			return fmt.Errorf("record %s: %w", opts.record, err)
		}
		snap.Trace.Written = rec.Count()
		snap.Trace.Dropped = rec.Dropped() + skipped
		fmt.Fprintf(diag, "telescoped: record drained: %d records written to %s, %d dropped\n",
			rec.Count(), opts.record, snap.Trace.Dropped)
	}
	if alertFile != nil {
		if err := alertFile.Close(); err != nil {
			return fmt.Errorf("alerts %s: %w", opts.alerts, err)
		}
	}
	if srv != nil {
		srv.SetFinal(snap)
	}
	wall := time.Since(st.start)
	fmt.Fprintf(out, "telescoped: daemon drained: %d captured packets, %d alerts, %d checkpoints\n",
		final.Position(), st.alertsTotal, len(st.snapshots))
	fmt.Fprint(out, snap.Text())

	if opts.manifest != "" {
		m := &telemetry.Manifest{
			Command: "telescoped",
			Config: map[string]any{
				"listen":           pc.LocalAddr().String(),
				"workers":          n,
				"record":           opts.record,
				"window":           opts.window.String(),
				"checkpoint_every": opts.ckptEvery.String(),
				"checkpoint":       opts.checkpoint,
				"alerts":           opts.alerts,
				"mem_budget":       opts.memBudget,
				"seed":             opts.seed,
				"scale":            opts.scale,
			},
			Workers:       n,
			WallNS:        wall.Nanoseconds(),
			PacketsPerSec: float64(final.Position()) / wall.Seconds(),
			ShardPackets:  snap.ShardPackets,
			ShardSkew:     snap.Skew(),
			Telemetry:     snap,
			Snapshots:     st.snapshots,
		}
		if err := m.WriteFile(opts.manifest); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		fmt.Fprintf(diag, "telescoped: manifest written to %s\n", opts.manifest)
	}
	return nil
}

// daemonState accumulates per-checkpoint artifacts: the alert stream,
// the rewritten checkpoint image, and the manifest snapshot list. It is
// only touched by the ticker goroutine, then (after the join) by the
// final drain.
type daemonState struct {
	opts        serveOpts
	alertW      io.Writer
	start       time.Time
	alertsTotal int
	snapshots   []telemetry.StreamSnapshot
}

// emit publishes one frozen checkpoint: alerts appended as JSON lines,
// the serialized image atomically swapped into place, and a snapshot
// row recorded for the manifest. Artifact write failures are logged and
// the daemon keeps serving — losing a checkpoint must not stop capture.
func (d *daemonState) emit(ck *quicsand.StreamCheckpoint, diag io.Writer) {
	if d.alertW != nil && len(ck.Alerts) > 0 {
		if err := detect.WriteAlerts(d.alertW, ck.Alerts); err != nil {
			fmt.Fprintf(diag, "telescoped: alerts: %v\n", err)
		}
	}
	d.alertsTotal += len(ck.Alerts)
	if d.opts.checkpoint != "" {
		if err := writeFileAtomic(d.opts.checkpoint, ck.Encode()); err != nil {
			fmt.Fprintf(diag, "telescoped: checkpoint %s: %v\n", d.opts.checkpoint, err)
		}
	}
	a := ck.Analysis()
	d.snapshots = append(d.snapshots, telemetry.StreamSnapshot{
		ElapsedNS:      time.Since(d.start).Nanoseconds(),
		Position:       ck.Position(),
		Alerts:         len(ck.Alerts),
		AlertsTotal:    d.alertsTotal,
		QUICSessions:   len(a.QUICSessions),
		TelescopeTotal: a.Telescope.Total,
		Checkpoint:     d.opts.checkpoint,
	})
}

// writeFileAtomic writes data next to path and renames it into place,
// so a crashed daemon never leaves a torn checkpoint image behind.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
