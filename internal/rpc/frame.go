package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layer: every message travels inside a length-prefixed,
// CRC32C-checksummed frame:
//
//	[4-byte little-endian payload length][4-byte CRC32C][payload]
//
// One frame carries exactly one Request or Response in the fixed layout
// of codec.go. A decoder alone cannot tell a flipped bit from a valid
// message — in the best case it errors, in the worst it decodes a
// plausible wrong value. With the CRC underneath, corruption on the wire
// (the faults.Corrupt injector, a bad NIC, a misbehaving middlebox) is
// *detected* deterministically, attributed (ErrCorruptFrame, distinct
// from connection loss), and recovered typed: the server answers
// CodeCorrupt, the client retries breaker-neutrally on a fresh
// connection. Castagnoli matches the shard-level checksums (the
// integrity plane's) and is hardware-accelerated on amd64/arm64.

// frameTable is the CRC32C polynomial table shared by both directions.
var frameTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderLen is the length + CRC prefix of every frame.
const frameHeaderLen = 8

// maxFramePayload bounds a response frame. Responses are small except
// shard transfers (KindFetchShard), which can reach tens of MB — the cap
// rejects absurd lengths from corrupted headers before any allocation
// happens.
const maxFramePayload = 256 << 20

// maxRequestPayload bounds a request frame: the largest request
// ValidateRequest could still admit (MaxTerms terms of MaxTermLen
// bytes). A server reads nothing bigger, so a lying 8-byte header
// cannot make it allocate more than this per connection.
const maxRequestPayload = requestFixedLen + MaxTerms*(4+MaxTermLen)

// frameReadBuf sizes the buffered reader under a connection's frames.
// Every request and every response short of a deep top-K or a shard
// transfer fits, so header and payload arrive in one read.
const frameReadBuf = 4096

// ErrCorruptFrame marks a frame whose payload failed its CRC: the bytes
// arrived, framed and sized correctly, but were mangled in transit.
// Transient and breaker-neutral — the peer is alive and framing is
// intact; a retry on a fresh connection is expected to succeed.
var ErrCorruptFrame = errors.New("rpc: corrupt frame payload")

// ErrBadFrame marks a structurally invalid frame (impossible length) or
// a payload that passed its CRC yet failed to decode — the stream is
// garbage or desynced, not merely bit-flipped, and the connection
// cannot be trusted further.
var ErrBadFrame = errors.New("rpc: bad frame")

// IsCorruptFrame reports whether err stems from a payload CRC mismatch.
func IsCorruptFrame(err error) bool { return errors.Is(err, ErrCorruptFrame) }

// IsBadFrame reports whether err stems from structurally invalid
// framing or an undecodable (but checksum-clean) payload.
func IsBadFrame(err error) bool { return errors.Is(err, ErrBadFrame) }

// beginFrame appends a header placeholder to dst; the message is
// appended straight behind it and sealFrame fills the header in.
func beginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// sealFrame back-fills the header of the frame that starts at
// frame[start] and runs to the end of the slice, refusing a payload
// above limit. The sealed bytes go out in a single Write.
func sealFrame(frame []byte, start, limit int) error {
	payload := frame[start+frameHeaderLen:]
	if len(payload) > limit {
		return fmt.Errorf("%w: payload %d exceeds cap %d", ErrBadFrame, len(payload), limit)
	}
	le.PutUint32(frame[start:], uint32(len(payload)))
	le.PutUint32(frame[start+4:], crc32.Checksum(payload, frameTable))
	return nil
}

// frameHeader splits a frame header into payload length and CRC,
// rejecting a length above limit.
func frameHeader(head []byte, limit int) (length int, crc uint32, err error) {
	n := le.Uint32(head[0:4])
	if uint64(n) > uint64(limit) {
		return 0, 0, fmt.Errorf("%w: impossible payload length %d (cap %d)", ErrBadFrame, n, limit)
	}
	return int(n), le.Uint32(head[4:8]), nil
}

// checkPayload verifies a frame's payload against its header CRC.
func checkPayload(payload []byte, want uint32) error {
	if got := crc32.Checksum(payload, frameTable); got != want {
		return fmt.Errorf("%w: crc %08x, want %08x over %d bytes", ErrCorruptFrame, got, want, len(payload))
	}
	return nil
}

// splitFrame verifies the frame at the front of data and returns its
// payload (aliasing data) and whatever follows it.
func splitFrame(data []byte, limit int) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, io.EOF
	}
	if len(data) < frameHeaderLen {
		return nil, nil, io.ErrUnexpectedEOF
	}
	length, crc, err := frameHeader(data, limit)
	if err != nil {
		return nil, nil, err
	}
	if len(data)-frameHeaderLen < length {
		return nil, nil, io.ErrUnexpectedEOF // header promised a payload
	}
	payload = data[frameHeaderLen : frameHeaderLen+length]
	if err := checkPayload(payload, crc); err != nil {
		return nil, nil, err
	}
	return payload, data[frameHeaderLen+length:], nil
}

// frameReader yields one verified payload per frame off a connection. A
// CRC mismatch surfaces as ErrCorruptFrame, an impossible length as
// ErrBadFrame; both are sticky — once the stream has lied there is no
// resynchronizing it, the connection must be dropped.
type frameReader struct {
	br    *bufio.Reader
	limit int    // largest payload this side accepts
	held  int    // bytes of the previous frame still to discard from br
	big   []byte // payload of a frame too large for br's buffer
	err   error  // sticky error
}

func newFrameReader(r io.Reader, limit int) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, frameReadBuf), limit: limit}
}

// reset points the reader at a new connection, keeping its buffers.
func (fr *frameReader) reset(r io.Reader) {
	fr.br.Reset(r)
	fr.held, fr.err = 0, nil
}

// next returns the next frame's verified payload. The bytes are valid
// only until the following call: a frame that fits the read buffer is
// handed out in place, so the common message costs one read and no copy.
func (fr *frameReader) next() ([]byte, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	payload, err := fr.read()
	if err != nil {
		fr.err = err
	}
	return payload, err
}

func (fr *frameReader) read() ([]byte, error) {
	if fr.held > 0 {
		fr.br.Discard(fr.held) // cannot fail: these bytes were already peeked
		fr.held = 0
	}
	head, err := fr.br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err // clean EOF between frames is a normal close
	}
	length, crc, err := frameHeader(head, fr.limit)
	if err != nil {
		return nil, err
	}
	var payload []byte
	if total := frameHeaderLen + length; total <= fr.br.Size() {
		frame, err := fr.br.Peek(total)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // header promised a payload
			}
			return nil, err
		}
		fr.held = total
		payload = frame[frameHeaderLen:]
	} else {
		fr.br.Discard(frameHeaderLen)
		if cap(fr.big) < length {
			fr.big = make([]byte, length)
		}
		payload = fr.big[:length]
		if _, err := io.ReadFull(fr.br, payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if err := checkPayload(payload, crc); err != nil {
		return nil, err
	}
	return payload, nil
}
