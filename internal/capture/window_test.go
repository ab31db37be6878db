package capture

// Tests of the byte window both streamed readers frame on: a read that
// fails part-way through a record must heal on retry at every layer,
// and the window's refill and growth paths must be invisible in what
// the readers produce.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"quicsand/internal/faultinject"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// udpPackets builds n distinct UDP records with size-byte payloads.
func udpPackets(n, size int) []*telescope.Packet {
	pkts := make([]*telescope.Packet, n)
	for i := range pkts {
		payload := bytes.Repeat([]byte{byte(i)}, size)
		pkts[i] = &telescope.Packet{
			TS:  telescope.Timestamp(1700000000000 + int64(i)*1000),
			Src: netmodel.Addr(0x0a000000 + i), Dst: 0x2c000001,
			SrcPort: uint16(3000 + i), DstPort: 443,
			Proto: telescope.ProtoUDP, Size: uint16(size), Payload: payload,
		}
	}
	return pkts
}

// collectScatter runs every feed to completion and returns copies of
// the emitted packets in capture (timestamp) order.
func collectScatter(sc *Scatter) []*telescope.Packet {
	var mu sync.Mutex
	var out []*telescope.Packet
	var wg sync.WaitGroup
	for _, f := range sc.Feeds() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(func(p *telescope.Packet) {
				q := *p
				q.Payload = append([]byte(nil), p.Payload...)
				mu.Lock()
				out = append(out, &q)
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// TestTransientMidRecordHeals injects a transient failure on the read
// that crosses byte 65536 — the second window fill, which lands inside
// a record in both formats — four times: once more than the reader's
// own retry budget, so the error escapes to the scatter, whose
// record-level retry must resume the half-buffered record exactly.
// Every cell recovers all packets with no error and no corruption
// booked, on the sequential path (workers=1) and the span path alike.
func TestTransientMidRecordHeals(t *testing.T) {
	pkts := udpPackets(200, 700)
	nop := func(time.Duration) {}
	for _, format := range []Format{FormatQSND, FormatPcap} {
		data, err := encodeCapture(pkts, format)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			for pname, pol := range map[string]SalvagePolicy{
				"fail-fast": {MaxRetries: 3, Sleep: nop},
				"salvage":   {SkipCorrupt: true, MaxRetries: 3, Sleep: nop},
			} {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", format, workers, pname), func(t *testing.T) {
					r := faultinject.NewReader(bytes.NewReader(data), faultinject.Fault{
						Kind: faultinject.Transient, Offset: 65536, Count: 4,
					})
					src, err := NewSource(r)
					if err != nil {
						t.Fatal(err)
					}
					SetSalvage(src, pol)
					sc := NewScatter(src, workers, true)
					sc.SetSalvage(pol)
					got := collectScatter(sc)
					if err := sc.Err(); err != nil {
						t.Fatalf("scatter err = %v after %d packets", err, len(got))
					}
					expectSamePackets(t, "healed", pkts, got)
					sv := SourceSalvage(src)
					if sv.CorruptRecords != 0 || sv.ResyncScans != 0 || sv.SalvagedBytes != 0 || sv.MaxLostRecords != 0 {
						t.Errorf("a transient read booked corruption: %+v", sv)
					}
					if n := sv.TransientRetries + sc.Telemetry().TransientRetries; n != 4 {
						t.Errorf("retries = %d (reader %d), want all 4 failures retried", n, sv.TransientRetries)
					}
				})
			}
		}
	}
}

// readOutcome is everything a drained source reports.
type readOutcome struct {
	pkts   []*telescope.Packet
	err    error
	ledger SalvageStats
}

func readSource(t *testing.T, src Source, err error, pol SalvagePolicy) readOutcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	SetSalvage(src, pol)
	var o readOutcome
	for {
		p, err := src.Next()
		if err != nil {
			o.err, o.ledger = err, SourceSalvage(src)
			return o
		}
		q := *p
		q.Payload = append([]byte(nil), p.Payload...)
		if len(p.Payload) == 0 {
			q.Payload = nil
		}
		o.pkts = append(o.pkts, &q)
	}
}

func expectSameOutcome(t *testing.T, label string, want, got readOutcome) {
	t.Helper()
	expectSamePackets(t, label, want.pkts, got.pkts)
	if errors.Is(want.err, io.EOF) != errors.Is(got.err, io.EOF) || want.err.Error() != got.err.Error() {
		t.Errorf("%s: terminal error %q, want %q", label, got.err, want.err)
	}
	if want.ledger != got.ledger {
		t.Errorf("%s: ledger %+v, want %+v", label, got.ledger, want.ledger)
	}
}

// TestWindowShortReadsMatchFullReads reads every stream one byte per
// Read, so the window refills at every byte of every record, including
// a record larger than the 64 KiB refill chunk that forces the window
// to grow: a QSND record with a 65,535-byte payload and the largest
// UDP datagram a pcap frame carries. Packets, terminal error and
// salvage ledger must equal the same bytes read in full chunks — and,
// for QSND, the in-memory reader — on clean and damaged captures.
func TestWindowShortReadsMatchFullReads(t *testing.T) {
	for format, big := range map[Format]int{FormatQSND: 0xffff, FormatPcap: 0xffff - 28} {
		pkts := udpPackets(24, 300)
		huge := udpPackets(1, big)[0]
		huge.TS = pkts[10].TS + 1
		pkts = append(pkts[:11], append([]*telescope.Packet{huge}, pkts[11:]...)...)
		data, err := encodeCapture(pkts, format)
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string][]byte{
			"clean":     data,
			"torn-tail": data[:len(data)-5],
			"garbage": faultinject.Apply(data, faultinject.Fault{
				Kind: faultinject.Garbage, Offset: uint64(len(data) / 3), Len: 37, Seed: 7,
			}),
		}
		for name, bad := range cases {
			for pname, pol := range map[string]SalvagePolicy{"fail-fast": {}, "salvage": {SkipCorrupt: true}} {
				t.Run(fmt.Sprintf("%s/%s/%s", format, name, pname), func(t *testing.T) {
					src, err := NewSource(bytes.NewReader(bad))
					want := readSource(t, src, err, pol)
					if name == "clean" && (len(want.pkts) != len(pkts) || !errors.Is(want.err, io.EOF)) {
						t.Fatalf("clean capture read %d of %d packets, err %v", len(want.pkts), len(pkts), want.err)
					}
					src, err = NewSource(faultinject.NewReader(bytes.NewReader(bad), faultinject.Fault{
						Kind: faultinject.ShortRead, Offset: 0, Len: len(bad),
					}))
					expectSameOutcome(t, "one byte per read", want, readSource(t, src, err, pol))
					if format == FormatQSND {
						src, err = NewQSNDBuffer(bad)
						expectSameOutcome(t, "in memory", want, readSource(t, src, err, pol))
					}
				})
			}
		}
	}
}
