package telescope

// Differential tests for the two windows one Reader frames on: a
// fixed window over the whole store (the mmap ingest path) must
// reproduce the streamed window exactly — same packets, same terminal
// error text, same salvage ledger — on clean and damaged stores alike.

import (
	"errors"
	"io"
	"testing"

	"quicsand/internal/faultinject"
	"quicsand/internal/salvage"
)

// bufferReader frames data in place, as capture.OpenFile does.
func bufferReader(data []byte) *Reader {
	return NewWindowReader(salvage.NewFixedWindow(data))
}

// drainBufferSalvage mirrors drainSalvage over a fixed window.
func drainBufferSalvage(data []byte, pol salvage.Policy) ([]*Packet, error, salvage.Stats) {
	b := bufferReader(data)
	b.SetSalvage(pol)
	var out []*Packet
	for {
		var p Packet
		if err := b.ReadInto(&p); err != nil {
			return out, err, b.Salvage()
		}
		q := p
		q.Payload = append([]byte(nil), p.Payload...)
		if len(p.Payload) == 0 {
			q.Payload = nil
		}
		out = append(out, &q)
	}
}

// TestBufferMatchesReader runs both windows over the same stores —
// clean, and damaged in every way the fault injector knows — under
// fail-fast and salvage policies, and demands identical packets,
// identical terminal error text, and an identical salvage ledger.
func TestBufferMatchesReader(t *testing.T) {
	data, _, offs := salvageTrace(t, 20)
	k := 11
	cases := map[string][]byte{
		"clean": data,
		"mid-record-flip": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: offs[k] + 20, XorMask: 0xFF,
		}),
		"garbage-splice": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.Garbage, Offset: offs[9], Len: 37, Seed: 7,
		}),
		"torn-tail":        data[:offs[len(offs)-1]+13],
		"torn-file-header": data[:5],
		"magic-flip": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: 1, XorMask: 0x40,
		}),
		"version-flip": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: 4, XorMask: 0x40,
		}),
	}
	policies := map[string]salvage.Policy{
		"fail-fast": {},
		"salvage":   {SkipCorrupt: true},
	}
	for name, bad := range cases {
		for pname, pol := range policies {
			t.Run(name+"/"+pname, func(t *testing.T) {
				rp, rerr, rsv := drainSalvage(bad, pol)
				bp, berr, bsv := drainBufferSalvage(bad, pol)

				if len(rp) != len(bp) {
					t.Fatalf("reader decoded %d records, buffer %d", len(rp), len(bp))
				}
				for i := range rp {
					if !samePacket(rp[i], bp[i]) {
						t.Errorf("record %d differs:\n reader %+v\n buffer %+v", i, rp[i], bp[i])
					}
				}
				if errors.Is(rerr, io.EOF) != errors.Is(berr, io.EOF) {
					t.Fatalf("terminal errors disagree: reader %v, buffer %v", rerr, berr)
				}
				if !errors.Is(rerr, io.EOF) && rerr.Error() != berr.Error() {
					t.Errorf("error text differs:\n reader %q\n buffer %q", rerr, berr)
				}
				if rsv != bsv {
					t.Errorf("salvage ledgers differ:\n reader %+v\n buffer %+v", rsv, bsv)
				}
			})
		}
	}
}

// TestBufferSpanFraming pins the zero-copy contract: on a fixed window
// TakeSpan returns a subslice of the input covering exactly the framed
// record, and DecodeRecord over that span reproduces ReadInto.
func TestBufferSpanFraming(t *testing.T) {
	data, pkts, offs := salvageTrace(t, 10)
	b := bufferReader(data)
	if !b.SpanStable() {
		t.Fatal("a fixed window's spans must be stable")
	}
	for i := range pkts {
		spanLen, src, err := b.FrameNext()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		span := b.TakeSpan(nil)
		if len(span) != spanLen {
			t.Fatalf("record %d: span %d bytes, framed %d", i, len(span), spanLen)
		}
		if &span[0] != &data[offs[i]] {
			t.Fatalf("record %d: span does not alias the store", i)
		}
		var p Packet
		DecodeRecord(span, &p)
		if p.Src != src {
			t.Errorf("record %d: framed src %v, decoded %v", i, src, p.Src)
		}
		if !samePacket(&p, pkts[i]) {
			t.Errorf("record %d differs:\n%+v\n%+v", i, &p, pkts[i])
		}
	}
	if _, _, err := b.FrameNext(); !errors.Is(err, io.EOF) {
		t.Fatalf("tail err = %v, want io.EOF", err)
	}
}
