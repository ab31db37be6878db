package salvage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
	"time"
)

// fakeRec builds a toy record format for Window tests: an 8-byte
// header (u32 magic 0xFEEDFACE | u32 bodyLen) followed by the body.
const fakeMagic = 0xFEEDFACE

func fakeRec(body []byte) []byte {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], fakeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(body)))
	return append(hdr, body...)
}

func fakeBoundary() Boundary {
	return Boundary{
		HdrLen: 8,
		Plausible: func(hdr []byte) (int, bool) {
			if binary.LittleEndian.Uint32(hdr[0:4]) != fakeMagic {
				return 0, false
			}
			n := binary.LittleEndian.Uint32(hdr[4:8])
			if n > 1<<16 {
				return 0, false
			}
			return 8 + int(n), true
		},
	}
}

// transientErr implements Temporary for retry tests.
type transientErr struct{}

func (transientErr) Error() string   { return "transient: resource temporarily unavailable" }
func (transientErr) Temporary() bool { return true }

// flakyReader fails with a transient error the first `fail` calls,
// then serves from the wrapped reader.
type flakyReader struct {
	r    io.Reader
	fail int
}

func (f *flakyReader) Read(b []byte) (int, error) {
	if f.fail > 0 {
		f.fail--
		return 0, transientErr{}
	}
	return f.r.Read(b)
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(transientErr{}) {
		t.Fatal("transientErr not recognized")
	}
	if IsTransient(errors.New("x")) {
		t.Fatal("plain error recognized as transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil recognized as transient")
	}
	wrapped := errors.Join(errors.New("outer"), transientErr{})
	if !IsTransient(wrapped) {
		t.Fatal("wrapped transient not recognized")
	}
}

func TestReadFullRetriesTransient(t *testing.T) {
	var slept []time.Duration
	w := NewWindow(&flakyReader{r: bytes.NewReader([]byte("abcdef")), fail: 3})
	w.Pol = Policy{
		MaxRetries: 5,
		Backoff:    time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	buf, err := w.Peek(6)
	if err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if string(buf) != "abcdef" {
		t.Fatalf("got %q", buf)
	}
	if w.Stats.TransientRetries != 3 {
		t.Fatalf("TransientRetries = %d, want 3", w.Stats.TransientRetries)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, want %v", i, slept[i], want[i])
		}
	}
	w.Advance(len(buf))
	if w.Offset() != 6 {
		t.Fatalf("offset = %d, want 6", w.Offset())
	}
}

func TestReadFullExhaustsRetries(t *testing.T) {
	w := NewWindow(&flakyReader{r: bytes.NewReader(nil), fail: 100})
	w.Pol = Policy{MaxRetries: 2, Sleep: func(time.Duration) {}}
	_, err := w.Peek(4)
	if !IsTransient(err) {
		t.Fatalf("want the transient error surfaced after retries, got %v", err)
	}
	if w.Stats.TransientRetries != 2 {
		t.Fatalf("TransientRetries = %d, want 2", w.Stats.TransientRetries)
	}
}

func TestReadFullNoRetryByDefault(t *testing.T) {
	w := NewWindow(&flakyReader{r: bytes.NewReader([]byte("ab")), fail: 1})
	_, err := w.Peek(2)
	if !IsTransient(err) {
		t.Fatalf("zero policy must fail fast on transient errors, got %v", err)
	}
}

// TestReadFullEOFContract pins Peek's io.ReadFull-style contract on
// both kinds of window: io.EOF only when nothing is left,
// io.ErrUnexpectedEOF (with the bytes that did arrive) after a partial
// fill — and in both cases the cursor stays put.
func TestReadFullEOFContract(t *testing.T) {
	for name, mk := range map[string]func([]byte) *Window{
		"stream": func(b []byte) *Window { return NewWindow(bytes.NewReader(b)) },
		"fixed":  NewFixedWindow,
	} {
		if _, err := mk(nil).Peek(1); err != io.EOF {
			t.Fatalf("%s: empty stream: got %v, want io.EOF", name, err)
		}
		w := mk([]byte("ab"))
		got, err := w.Peek(4)
		if err != io.ErrUnexpectedEOF || string(got) != "ab" {
			t.Fatalf("%s: partial fill: got %q, %v; want \"ab\", io.ErrUnexpectedEOF", name, got, err)
		}
		if w.Offset() != 0 {
			t.Fatalf("%s: offset = %d after a short Peek, want 0", name, w.Offset())
		}
	}
}

// stutterReader fails with a transient error before serving each of
// the given chunk sizes, then serves the rest of data.
type stutterReader struct {
	data   []byte
	chunks []int
	failed bool
}

func (s *stutterReader) Read(b []byte) (int, error) {
	if !s.failed && len(s.chunks) > 0 {
		s.failed = true
		return 0, transientErr{}
	}
	s.failed = false
	n := len(s.data)
	if len(s.chunks) > 0 {
		n, s.chunks = s.chunks[0], s.chunks[1:]
	}
	n = copy(b, s.data[:min(n, len(s.data))])
	s.data = s.data[n:]
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// TestPeekFailureKeepsCursor pins the guarantee callers retry on: a
// read that fails part-way through a Peek consumes nothing, and the
// retried Peek returns the same bytes from the same offset.
func TestPeekFailureKeepsCursor(t *testing.T) {
	w := NewWindow(&stutterReader{data: []byte("0123456789"), chunks: []int{3, 4}})
	var got []byte
	fails := 0
	for {
		b, err := w.Peek(8)
		if err == nil {
			got = b
			break
		}
		if !IsTransient(err) {
			t.Fatalf("Peek: %v", err)
		}
		if w.Offset() != 0 {
			t.Fatalf("failed Peek moved the cursor to %d", w.Offset())
		}
		fails++
	}
	if string(got) != "01234567" || fails != 2 {
		t.Fatalf("got %q after %d failures, want \"01234567\" after 2", got, fails)
	}
}

// errCorrupt marks a fake record that fails to frame.
var errCorrupt = errors.New("corrupt fake record")

// frameFake frames one fake record at the cursor the way the real
// readers do: the whole record must be in the window before it frames,
// and a torn header or body is corruption.
func frameFake(w *Window, b Boundary) ([]byte, error) {
	hdr, err := w.Peek(b.HdrLen)
	if err == io.ErrUnexpectedEOF {
		return nil, errCorrupt
	}
	if err != nil {
		return nil, err
	}
	n, ok := b.Plausible(hdr)
	if !ok {
		return nil, errCorrupt
	}
	rec, err := w.Peek(n)
	if err == io.ErrUnexpectedEOF {
		return nil, errCorrupt
	}
	return rec, err
}

// readRecords drains the window through the fake format, resyncing on
// corruption per the window's policy.
func readRecords(t *testing.T, w *Window, b Boundary) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		rec, err := frameFake(w, b)
		if err == nil {
			out = append(out, append([]byte(nil), rec[b.HdrLen:]...))
			w.Advance(len(rec))
			continue
		}
		if err = w.Recover(err, errCorrupt, b); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
}

func TestResyncSkipsGarbageSplice(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-longer")}
	var clean bytes.Buffer
	for _, r := range recs {
		clean.Write(fakeRec(r))
	}
	// Splice 37 bytes of garbage between record 0 and 1.
	garbage := bytes.Repeat([]byte{0xAA, 0x55, 0x00}, 13)[:37]
	r0 := len(fakeRec(recs[0]))
	damaged := append(append(append([]byte(nil), clean.Bytes()[:r0]...), garbage...), clean.Bytes()[r0:]...)

	w := NewWindow(bytes.NewReader(damaged))
	w.Pol = Policy{SkipCorrupt: true}
	got := readRecords(t, w, fakeBoundary())
	if len(got) != 3 {
		t.Fatalf("salvaged %d records, want 3", len(got))
	}
	for i, r := range recs {
		if !bytes.Equal(got[i], r) {
			t.Fatalf("record %d = %q, want %q", i, got[i], r)
		}
	}
	st := w.Stats
	if st.CorruptRecords != 1 || st.ResyncScans != 1 {
		t.Fatalf("counters = %+v, want 1 corrupt / 1 resync", st)
	}
	if st.SalvagedBytes != uint64(len(garbage)) {
		t.Fatalf("SalvagedBytes = %d, want %d", st.SalvagedBytes, len(garbage))
	}
	wantLost := uint64(len(garbage))/8 + 1
	if st.MaxLostRecords != wantLost {
		t.Fatalf("MaxLostRecords = %d, want %d", st.MaxLostRecords, wantLost)
	}
	if w.Offset() != uint64(len(damaged)) {
		t.Fatalf("final offset = %d, want %d", w.Offset(), len(damaged))
	}
}

func TestResyncTornTail(t *testing.T) {
	full := append(fakeRec([]byte("one")), fakeRec([]byte("two"))...)
	// Tear mid-way through record two's body.
	torn := full[:len(full)-2]
	w := NewWindow(bytes.NewReader(torn))
	w.Pol = Policy{SkipCorrupt: true}
	got := readRecords(t, w, fakeBoundary())
	if len(got) != 1 || string(got[0]) != "one" {
		t.Fatalf("salvaged %v, want [one]", got)
	}
	if w.Stats.CorruptRecords != 1 || w.Stats.MaxLostRecords == 0 {
		t.Fatalf("counters = %+v", w.Stats)
	}
	if w.Offset() != uint64(len(torn)) {
		t.Fatalf("offset = %d, want %d (end of stream)", w.Offset(), len(torn))
	}
}

func TestResyncLongSpanSlidesWindow(t *testing.T) {
	// A damaged span several windows long must still converge, account
	// every skipped byte exactly once, and keep the streamed window
	// bounded by the sliding scan rather than the span's length.
	span := bytes.Repeat([]byte{0x13, 0x37}, (3*chunk)/2) // 3 windows of junk
	data := append(append(fakeRec([]byte("pre")), span...), fakeRec([]byte("post"))...)
	w := NewWindow(bytes.NewReader(data))
	w.Pol = Policy{SkipCorrupt: true}
	got := readRecords(t, w, fakeBoundary())
	if len(got) != 2 || string(got[0]) != "pre" || string(got[1]) != "post" {
		t.Fatalf("salvaged %d records: %q", len(got), got)
	}
	if w.Stats.SalvagedBytes != uint64(len(span)) {
		t.Fatalf("SalvagedBytes = %d, want %d", w.Stats.SalvagedBytes, len(span))
	}
	if w.Offset() != uint64(len(data)) {
		t.Fatalf("offset = %d, want %d", w.Offset(), len(data))
	}
	if cap(w.buf) > 2*chunk {
		t.Fatalf("window grew to %d bytes over a %d-byte span", cap(w.buf), len(span))
	}
}

func TestResyncRejectsFalseBoundary(t *testing.T) {
	// Garbage containing a plausible header whose framed record is NOT
	// followed by another plausible header must not be accepted as a
	// boundary: double confirmation skips it.
	fake := make([]byte, 8)
	binary.LittleEndian.PutUint32(fake[0:4], fakeMagic)
	binary.LittleEndian.PutUint32(fake[4:8], 5) // claims 5-byte body
	junk := append(append(bytes.Repeat([]byte{0xEE}, 11), fake...), bytes.Repeat([]byte{0xEE}, 9)...)
	data := append(append(fakeRec([]byte("first")), junk...), fakeRec([]byte("second"))...)
	w := NewWindow(bytes.NewReader(data))
	w.Pol = Policy{SkipCorrupt: true}
	got := readRecords(t, w, fakeBoundary())
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("salvaged %q, want [first second]", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{CorruptRecords: 1, ResyncScans: 2, SalvagedBytes: 3, TransientRetries: 4, MaxLostRecords: 5}
	b := Stats{CorruptRecords: 10, ResyncScans: 20, SalvagedBytes: 30, TransientRetries: 40, MaxLostRecords: 50}
	a.Add(b)
	want := Stats{CorruptRecords: 11, ResyncScans: 22, SalvagedBytes: 33, TransientRetries: 44, MaxLostRecords: 55}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestPolicyEnabled(t *testing.T) {
	if (Policy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if !(Policy{SkipCorrupt: true}).Enabled() || !(Policy{MaxRetries: 1}).Enabled() {
		t.Fatal("non-zero policies must be enabled")
	}
}

// TestResyncBufferMatchesScanner is the differential between the two
// kinds of window: for every damage shape, a fixed window over the
// whole input must recover the same records and account the same
// ledger as a streamed window — read in full chunks or one byte per
// Read, which exercises every refill and growth path.
func TestResyncBufferMatchesScanner(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-longer"), []byte("delta4")}
	var clean bytes.Buffer
	for _, r := range recs {
		clean.Write(fakeRec(r))
	}
	r0 := len(fakeRec(recs[0]))
	garbage := bytes.Repeat([]byte{0xAA, 0x55, 0x00}, 13)[:37]
	spliced := append(append(append([]byte(nil), clean.Bytes()[:r0]...), garbage...), clean.Bytes()[r0:]...)

	flipped := append([]byte(nil), clean.Bytes()...)
	flipped[r0+1] ^= 0xFF // break record 1's magic

	fake := make([]byte, 8)
	binary.LittleEndian.PutUint32(fake[0:4], fakeMagic)
	binary.LittleEndian.PutUint32(fake[4:8], 5)
	junk := append(append(bytes.Repeat([]byte{0xEE}, 11), fake...), bytes.Repeat([]byte{0xEE}, 9)...)
	falseBoundary := append(append(fakeRec([]byte("first")), junk...), fakeRec([]byte("second"))...)

	longSpan := bytes.Repeat([]byte{0x13, 0x37}, (3*chunk)/2)

	cases := map[string][]byte{
		"clean":          clean.Bytes(),
		"garbage-splice": spliced,
		"magic-flip":     flipped,
		"torn-header":    clean.Bytes()[:clean.Len()-len(fakeRec(recs[3]))+3],
		"torn-body":      clean.Bytes()[:clean.Len()-2],
		"false-boundary": falseBoundary,
		"long-span":      append(append(fakeRec([]byte("pre")), longSpan...), fakeRec([]byte("post"))...),
		"garbage-tail":   append(append([]byte(nil), clean.Bytes()...), bytes.Repeat([]byte{0xEE}, 23)...),
	}
	streams := map[string]func([]byte) io.Reader{
		"stream":   func(b []byte) io.Reader { return bytes.NewReader(b) },
		"one-byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			fixed := NewFixedWindow(data)
			fixed.Pol = Policy{SkipCorrupt: true}
			want := readRecords(t, fixed, fakeBoundary())
			for sname, mk := range streams {
				w := NewWindow(mk(data))
				w.Pol = Policy{SkipCorrupt: true}
				got := readRecords(t, w, fakeBoundary())
				if len(want) != len(got) {
					t.Fatalf("%s: fixed window recovered %d records, streamed %d", sname, len(want), len(got))
				}
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Errorf("%s: record %d: fixed %q, streamed %q", sname, i, want[i], got[i])
					}
				}
				if w.Stats != fixed.Stats {
					t.Errorf("%s: ledgers differ:\n fixed    %+v\n streamed %+v", sname, fixed.Stats, w.Stats)
				}
				if w.Offset() != fixed.Offset() {
					t.Errorf("%s: final offsets differ: fixed %d, streamed %d", sname, fixed.Offset(), w.Offset())
				}
			}
		})
	}
}
