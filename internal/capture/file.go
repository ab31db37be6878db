package capture

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"quicsand/internal/netmodel"
	"quicsand/internal/salvage"
	"quicsand/internal/telescope"
)

// qsndSource adapts telescope.Reader to Source and SpanSource. Next
// recycles one Packet, honoring the Source validity contract. Spans
// are stable zero-copy subslices when the reader frames a fixed window
// (an in-memory or mapped store) and arena copies when it streams;
// close unmaps when the window is a memory mapping.
type qsndSource struct {
	r     *telescope.Reader
	p     telescope.Packet
	close func() error
}

func (s *qsndSource) Next() (*telescope.Packet, error) {
	if err := s.r.ReadInto(&s.p); err != nil {
		return nil, err
	}
	return &s.p, nil
}

func (s *qsndSource) FrameNext() (int, netmodel.Addr, error) { return s.r.FrameNext() }
func (s *qsndSource) TakeSpan(dst []byte) []byte             { return s.r.TakeSpan(dst) }
func (s *qsndSource) SpanStable() bool                       { return s.r.SpanStable() }
func (s *qsndSource) SpanDecoder() SpanDecoder               { return qsndDecoder{} }

// Close releases the mapping (if any). Spans and payloads handed out
// earlier alias the mapped pages — the caller must be done with the
// analysis before closing.
func (s *qsndSource) Close() error {
	if s.close != nil {
		c := s.close
		s.close = nil
		return c()
	}
	return nil
}

// NewQSNDBuffer opens an in-memory QSND stream as a Source. The
// returned source frames in place and hands out stable zero-copy
// spans; data must stay alive and unmodified for the source's
// lifetime.
func NewQSNDBuffer(data []byte) (Source, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("capture: empty stream: %w", ErrUnknownFormat)
	}
	if len(data) < 4 || !isQSNDMagic(data) {
		return nil, ErrUnknownFormat
	}
	return &qsndSource{r: telescope.NewWindowReader(salvage.NewFixedWindow(data))}, nil
}

// isQSNDMagic reports whether b starts with the QSND store magic.
func isQSNDMagic(b []byte) bool {
	return b[0] == 0x44 && b[1] == 0x4e && b[2] == 0x53 && b[3] == 0x51
}

// OpenFile opens a capture file as a Source, picking the fastest path
// the container allows: QSND checkpoints are memory-mapped (framing
// becomes offset arithmetic, spans and payloads alias the page cache,
// nothing is copied on ingest), everything else — pcap, platforms
// without mmap, special files — streams through NewSource against the
// file. When the returned Source is an io.Closer the caller owns
// closing it after the analysis is done; closing f itself remains the
// caller's job either way and is safe immediately after a successful
// mmap open.
func OpenFile(f *os.File) (Source, error) {
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("capture: empty stream: %w", ErrUnknownFormat)
		}
		return nil, err
	}
	if isQSNDMagic(magic[:]) {
		if st, err := f.Stat(); err == nil && st.Size() > 0 && st.Size() <= math.MaxInt {
			if data, unmap, err := mapFile(f, int(st.Size())); err == nil {
				src, err := NewQSNDBuffer(data)
				if err != nil {
					_ = unmap()
					return nil, err
				}
				src.(*qsndSource).close = unmap
				return src, nil
			}
		}
		// Mapping unavailable (platform, filesystem, size): stream.
	}
	return NewSource(f)
}
