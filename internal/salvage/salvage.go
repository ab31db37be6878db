// Package salvage is the degraded-ingest substrate: the policy,
// accounting, and the byte window every capture reader frames records
// over (telescope.Reader, capture.PcapReader), which lets them survive
// damaged inputs — torn tails from crashed recorders, bit-flips from
// disk, short reads and transient EAGAIN-class errors from network
// filesystems — instead of aborting on the first bad byte.
//
// The package deliberately knows nothing about record formats: readers
// frame records on a Window and hand it a format-specific Boundary
// probe when a record fails to parse. The Window then scans forward
// for the next position where a plausible record starts and is
// confirmed by a plausible successor (or a clean end of stream), counts
// the skipped span, and resumes framing there. Every skipped byte and
// record flows into Stats, which the telemetry layer exposes and the
// oracle consumes as the degraded-run error budget (DESIGN.md §14).
package salvage

import (
	"errors"
	"io"
	"time"
)

// Policy selects how a reader reacts to damaged or failing input. The
// zero value is fail-fast: the first corruption or exhausted read is a
// terminal error, exactly the historical behavior.
type Policy struct {
	// SkipCorrupt enables resync: corrupt records are skipped and
	// counted instead of killing the stream. File-header corruption
	// (wrong magic, unsupported version) stays terminal — a damaged
	// preamble means the whole file is suspect, not a span of it.
	SkipCorrupt bool
	// MaxRetries bounds re-reads after a transient (Temporary())
	// error; 0 disables retrying.
	MaxRetries int
	// Backoff is the first retry's delay, doubled per attempt.
	// 0 means 1ms.
	Backoff time.Duration
	// Sleep replaces time.Sleep between retries (test hook).
	Sleep func(time.Duration)
}

// Enabled reports whether the policy departs from fail-fast at all.
func (p Policy) Enabled() bool { return p.SkipCorrupt || p.MaxRetries > 0 }

// Wait sleeps the exponential backoff for the given 1-based attempt.
func (p Policy) Wait(attempt int) {
	d := p.Backoff
	if d <= 0 {
		d = time.Millisecond
	}
	if attempt > 20 {
		attempt = 20 // clamp the shift, not the wait
	}
	d <<= uint(attempt - 1)
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Stats is the skipped-record ledger of one salvaged stream. All
// fields are zero on an undamaged input, so enabling salvage on clean
// files changes nothing observable.
type Stats struct {
	// CorruptRecords counts records that failed to decode and were
	// skipped (one per resync, including torn tails).
	CorruptRecords uint64 `json:"corrupt_records"`
	// ResyncScans counts forward scans for a plausible record boundary.
	ResyncScans uint64 `json:"resync_scans"`
	// SalvagedBytes counts the bytes of damaged span skipped over.
	SalvagedBytes uint64 `json:"salvaged_bytes"`
	// TransientRetries counts reads retried after a Temporary() error.
	TransientRetries uint64 `json:"transient_retries"`
	// MaxLostRecords is the provable ceiling on records destroyed
	// inside the skipped spans (span/minRecordSize+1, summed) — the
	// oracle's degraded-run error budget.
	MaxLostRecords uint64 `json:"max_lost_records"`
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.CorruptRecords += o.CorruptRecords
	s.ResyncScans += o.ResyncScans
	s.SalvagedBytes += o.SalvagedBytes
	s.TransientRetries += o.TransientRetries
	s.MaxLostRecords += o.MaxLostRecords
}

// Transient marks an error as retryable, in the net.Error tradition:
// EAGAIN-class failures from network filesystems and the fault
// injector implement it. Readers never import the fault layer — the
// interface is the entire contract.
type Transient interface{ Temporary() bool }

// IsTransient reports whether err (or anything it wraps) declares
// itself temporary.
func IsTransient(err error) bool {
	var t Transient
	return errors.As(err, &t) && t.Temporary()
}

// Boundary is a format's record-framing probe for resync scans.
type Boundary struct {
	// HdrLen is the fixed record-header size — also the minimum
	// record size, which bounds how many records a skipped span can
	// have destroyed.
	HdrLen int
	// Plausible inspects HdrLen candidate bytes and, if they could
	// start a record, returns the full record length (header + body).
	Plausible func(hdr []byte) (recLen int, ok bool)
}

// chunk is the streamed window's refill size and the resync scan's
// sliding bound: a scan discards scanned prefix every chunk bytes, so
// an arbitrarily long damaged span costs bounded memory.
const chunk = 64 << 10

// Window is the byte window every capture reader frames records over,
// with offset accounting, transient retry and the one resync scan. A
// fixed window is the whole input (an mmap or an in-memory store) and
// never refills; a streamed window refills from an io.Reader in
// chunk-sized reads, growing only for a record larger than a chunk.
//
// Readers Peek at the bytes a record needs and Advance past it only
// once the whole record is in the window, so the cursor never moves on
// an error: a failed call leaves the stream where it was, and a retry
// frames the same record again from its first byte.
type Window struct {
	// Pol is the active salvage policy.
	Pol Policy
	// Stats is the skipped-record ledger.
	Stats Stats

	r    io.Reader // nil for a fixed window
	buf  []byte    // buf[pos:] is unconsumed
	pos  int
	base uint64 // stream offset of buf[0]
	eof  bool   // no byte beyond buf will arrive
}

// NewWindow returns a streamed window over r.
func NewWindow(r io.Reader) *Window {
	return &Window{r: r, buf: make([]byte, 0, chunk)}
}

// NewFixedWindow returns a window over the complete input data.
func NewFixedWindow(data []byte) *Window {
	return &Window{buf: data, eof: true}
}

// Fixed reports whether the window is the whole input. Its slices then
// stay valid for the data's lifetime; a streamed window's slices are
// valid only until the next Peek, which may refill over them.
func (w *Window) Fixed() bool { return w.r == nil }

// Offset returns the stream position of the cursor: the next byte to
// be consumed, and after a failed frame the start of the record that
// failed.
func (w *Window) Offset() uint64 { return w.base + uint64(w.pos) }

// Peek returns the n bytes at the cursor without consuming them. The
// error contract mirrors io.ReadFull: nil only when all n bytes are
// there; io.EOF when the stream ended before any, io.ErrUnexpectedEOF
// when it ended part-way (the returned slice then holds the bytes
// that did arrive); any other read error — a transient one that
// outlived the policy's retries — passes through unchanged.
func (w *Window) Peek(n int) ([]byte, error) {
	if rest := w.buf[w.pos:]; n <= len(rest) {
		return rest[:n], nil
	}
	return w.fill(n)
}

// fill is Peek's refill path: it slides the unconsumed bytes to the
// front of the window (growing it for an oversize record) and reads
// until n bytes are buffered or the stream ends.
func (w *Window) fill(n int) ([]byte, error) {
	var err error
	if !w.eof {
		rest := len(w.buf) - w.pos
		buf := w.buf
		if n > cap(buf) {
			buf = make([]byte, 0, max(n, 2*cap(buf)))
		}
		w.buf = buf[:copy(buf[:rest], w.buf[w.pos:])]
		w.base += uint64(w.pos)
		w.pos = 0
		retries, empty := 0, 0
		for len(w.buf) < n && err == nil {
			var m int
			m, err = w.r.Read(w.buf[len(w.buf):cap(w.buf)])
			w.buf = w.buf[:len(w.buf)+m]
			switch {
			case err == io.EOF:
				w.eof = true
			case err != nil && retries < w.Pol.MaxRetries && IsTransient(err):
				retries++
				w.Stats.TransientRetries++
				w.Pol.Wait(retries)
				err = nil
			case err == nil && m == 0:
				if empty++; empty == 100 {
					err = io.ErrNoProgress
				}
			}
		}
	}
	got := w.buf[w.pos:]
	switch {
	case len(got) >= n:
		return got[:n], nil
	case err != nil && err != io.EOF:
		return got, err
	case len(got) == 0:
		return got, io.EOF
	}
	return got, io.ErrUnexpectedEOF
}

// Advance consumes n bytes, which a Peek must have returned.
func (w *Window) Advance(n int) { w.pos += n }

// Take consumes the n bytes at the cursor, which a Peek must have
// returned, and hands them out: the window's own bytes when it is
// fixed (dst is ignored then), else a copy in dst — the next refill
// may overwrite the window.
func (w *Window) Take(n int, dst []byte) []byte {
	span := w.buf[w.pos : w.pos+n : w.pos+n]
	w.pos += n
	if w.Fixed() {
		return span
	}
	return dst[:copy(dst, span)]
}

// Recover applies the policy to a framing error at the cursor. Under
// SkipCorrupt a corruption error (one wrapping corrupt) resyncs past
// the damaged record: nil means frame again at the new cursor, io.EOF
// that the stream ended inside the damage (a torn tail — everything
// salvageable was framed). Any other error comes back unchanged:
// fail-fast, a clean io.EOF, or a read error, which is not corruption
// to skip over.
func (w *Window) Recover(err, corrupt error, b Boundary) error {
	if err == io.EOF || !w.Pol.SkipCorrupt || !errors.Is(err, corrupt) {
		return err
	}
	return w.resync(b)
}

// resync recovers from a corrupt record starting at the cursor. The
// scan looks for the next offset where b.Plausible accepts a header
// AND the record it frames is followed by another plausible header or
// the end of the stream — double confirmation keeps random garbage
// from masquerading as a boundary. On success the cursor moves to the
// accepted boundary, the skipped span is accounted in Stats, and nil
// is returned; io.EOF means the stream ended without another boundary
// (torn tail — the span to the end is accounted the same way). A read
// error that outlives the retries ends the scan like the end of the
// stream: the span is already being skipped, and whatever was readable
// is all there is to salvage.
func (w *Window) resync(b Boundary) error {
	w.Stats.CorruptRecords++
	w.Stats.ResyncScans++
	start := w.Offset()
	accept := func() {
		skipped := w.Offset() - start
		w.Stats.SalvagedBytes += skipped
		w.Stats.MaxLostRecords += skipped/uint64(b.HdrLen) + 1
	}
	// The corrupt record's own start is never a candidate: skipping at
	// least one byte guarantees progress.
	for i := 1; ; i++ {
		hdr, err := w.Peek(i + b.HdrLen)
		if err != nil {
			w.pos += len(hdr)
			accept()
			return io.EOF
		}
		if n, ok := b.Plausible(hdr[i:]); ok {
			end := i + n
			next, err := w.Peek(end + b.HdrLen)
			confirmed := false
			if err == nil {
				_, confirmed = b.Plausible(next[end:])
			} else {
				// The record fits and the stream ends at (or shortly
				// after) it; trailing junk shorter than a header will
				// surface as its own torn-tail span.
				confirmed = len(next) >= end
			}
			if confirmed {
				w.pos += i
				accept()
				return nil
			}
		}
		if i >= chunk {
			w.pos += i
			i = 0
		}
	}
}
