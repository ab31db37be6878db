package quicsand

import (
	"fmt"
	"reflect"
	"testing"

	"quicsand/internal/detect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// offerTestConfig is a small substrate for the Offer-contract tests:
// the packets are synthetic, so only the streamer plumbing matters.
func offerTestConfig(workers int) StreamConfig {
	return StreamConfig{Config: Config{Seed: 5, Scale: 0.0005, ResearchThin: 1 << 14, Workers: workers}}
}

// TestStreamOfferEmptyPayload pins that a zero-length, non-nil payload
// means "no payload" at every worker count — the form a recorded
// capture decodes it to, and what the daemon's read loop passes for an
// empty datagram — so the packets form a QUIC session rather than
// reaching dissect as NonQUIC.
func TestStreamOfferEmptyPayload(t *testing.T) {
	run := func(workers int, payload []byte) *Analysis {
		t.Helper()
		s, err := NewStreamer(offerTestConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			p := &telescope.Packet{
				TS: telescope.Timestamp(1000 * i), Src: netmodel.Addr(0x0a020001),
				Dst: netmodel.TelescopePrefix.Base, SrcPort: 443, DstPort: 50000,
				Proto: telescope.ProtoUDP, Size: 8, Payload: payload,
			}
			if !s.Offer(p) {
				t.Fatal("telescope packet not captured")
			}
		}
		return s.Close().Analysis()
	}
	want := run(1, nil)
	if want.NonQUIC != 0 || len(want.QUICSessions) == 0 {
		t.Fatalf("payload-less packets: NonQUIC=%d, %d QUIC sessions; want 0 and some",
			want.NonQUIC, len(want.QUICSessions))
	}
	for _, workers := range []int{1, 2} {
		expectSameAnalysis(t, fmt.Sprintf("workers=%d", workers), want, run(workers, []byte{}))
	}
}

// TestStreamOfferSteadyStateAllocs gates the copy-once Offer: at
// workers=2, once every shard's slab pool is warm, offering packets
// (payload bytes included) allocates nothing per packet. The packets
// are UDP off port 443, so the shards do only allocation-free counter
// work and the measurement sees the dispatch path alone.
func TestStreamOfferSteadyStateAllocs(t *testing.T) {
	s, err := NewStreamer(offerTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 700)
	p := &telescope.Packet{
		TS: 1000, Dst: netmodel.TelescopePrefix.Base, SrcPort: 40000, DstPort: 53,
		Proto: telescope.ProtoUDP, Size: uint16(len(payload)), Payload: payload,
	}
	i := 0
	offer := func(n int) {
		for range n {
			p.Src = netmodel.Addr(0x0a030000 + i%64)
			if !s.Offer(p) {
				t.Fatal("telescope packet not captured")
			}
			i++
		}
	}
	const perRun = 4 * streamBatch
	offer(4 * streamPool * perRun) // warm the pools and arenas
	avg := testing.AllocsPerRun(50, func() { offer(perRun) })
	if per := avg / perRun; per > 0.01 {
		t.Fatalf("steady-state Offer allocates %.4f times per packet, want ≤ 0.01", per)
	}
	if s.Position() != uint64(i) {
		t.Fatalf("position %d after %d offers", s.Position(), i)
	}
}

// TestStreamOfferBorrowContract proves Offer only borrows its packet:
// a driver that scribbles over the packet struct and its payload bytes
// right after every Offer must see the same mid-stream and final
// checkpoints (analysis and alert stream) as an undisturbed run, at
// every worker count.
func TestStreamOfferBorrowContract(t *testing.T) {
	base := streamGoldenConfigs(t, 1)[1].cfg // handshake flood: payload on every packet
	dcfg := detect.Default()
	base.Detect = &dcfg
	const midAt = 1000

	type result struct {
		mid, final *Analysis
		alerts     []detect.Alert
	}
	run := func(workers int, scribble bool) result {
		t.Helper()
		cfg := base
		cfg.Workers = workers
		s, err := NewStreamer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var r result
		var lists [][]detect.Alert
		var scratch telescope.Packet
		buf := make([]byte, 0, 2048)
		var captured uint64
		s.Generator().Feeds(1, true)[0].Run(func(p *telescope.Packet) {
			q := p
			if scribble {
				scratch = *p
				if p.Payload != nil {
					buf = append(buf[:0], p.Payload...)
					scratch.Payload = buf
				}
				q = &scratch
			}
			ok := s.Offer(q)
			if scribble {
				all := buf[:cap(buf)]
				for j := range all {
					all[j] = 0xa5
				}
				scratch = telescope.Packet{TS: ^telescope.Timestamp(0), Src: ^p.Src, Dst: p.Dst,
					SrcPort: 1, DstPort: 443, Proto: telescope.ProtoTCP, Payload: buf}
			}
			if ok {
				if captured++; captured == midAt {
					ck := s.Checkpoint()
					r.mid = ck.Analysis()
					lists = append(lists, ck.Alerts)
				}
			}
		})
		final := s.Close()
		if r.mid == nil {
			t.Fatalf("stream shorter than %d captured packets (%d)", midAt, captured)
		}
		r.final = final.Analysis()
		r.alerts = detect.MergeAlerts(append(lists, final.Alerts)...)
		return r
	}
	for _, workers := range []int{1, 2, 8} {
		want, got := run(workers, false), run(workers, true)
		label := fmt.Sprintf("workers=%d", workers)
		expectSameAnalysis(t, label+"/mid", want.mid, got.mid)
		expectSameAnalysis(t, label+"/final", want.final, got.final)
		if len(want.alerts) == 0 {
			t.Errorf("%s: undisturbed run raised no alerts; the detector saw nothing to compare", label)
		}
		if !reflect.DeepEqual(want.alerts, got.alerts) {
			t.Errorf("%s: alert stream diverged: %d vs %d alerts", label, len(want.alerts), len(got.alerts))
		}
	}
}
