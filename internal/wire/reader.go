package wire

import (
	"bufio"
	"fmt"
	"io"
)

// FrameReader reads frames from a stream into a single reusable buffer.
// The payload returned by Next is valid only until the following call —
// exactly what a pipelined connection loop wants: decode, act, repeat,
// zero allocations once the buffer has grown to the working set.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
	len [lenPrefix]byte
	max int
}

// NewFrameReader wraps r. maxFrame bounds a single frame; 0 means
// defaultMaxFrame.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = defaultMaxFrame
	}
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10), max: maxFrame}
}

// buffered reports whether a complete frame is already in memory, so that
// the following Next returns it without reading the stream.
func (fr *FrameReader) buffered() bool {
	n := fr.br.Buffered() - lenPrefix
	if n < 0 {
		return false
	}
	p, _ := fr.br.Peek(lenPrefix)
	return n >= int(getU32(p))
}

// Next reads one frame and returns its header and payload. The payload
// aliases the reader's internal buffer. io.EOF is returned verbatim on a
// clean close between frames.
func (fr *FrameReader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(fr.br, fr.len[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return Header{}, nil, err
	}
	n := int(getU32(fr.len[:]))
	if n < restLen {
		return Header{}, nil, fmt.Errorf("wire: frame length %d below header size", n)
	}
	if n+lenPrefix > fr.max {
		return Header{}, nil, errFrameTooLarge
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Header{}, nil, err
	}
	h := parseRest(body)
	if h.version != version {
		return Header{}, nil, fmt.Errorf("%w: %d", errVersion, h.version)
	}
	if h.flags != 0 {
		return Header{}, nil, fmt.Errorf("wire: reserved flags %#x set", h.flags)
	}
	return h, body[restLen:], nil
}
