package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
)

// Compatibility shim for the frozen benchmark, and the only file in this
// package that imports encoding/gob. The ISN wire no longer speaks gob
// (codec.go is the one codec); DecodeRequest and DecodeResponse are kept
// verbatim solely because bench/loadgen's rpc.codec_* / rpc.wire_*
// probes call them and a PR that changes the wire may not edit the
// benchmark. Nothing in internal/, cmd/, tools/ or examples/ may call
// them. A later benchmark PR re-points those probes at AppendRequest /
// ParseRequest / AppendResponse / ParseResponse and deletes this file.

// wrapDecodeErr types a decode failure so callers can classify without
// string matching: transport conditions (closed/timed-out connections,
// clean or truncated EOFs) pass through untouched, frame-layer errors
// keep their ErrCorruptFrame/ErrBadFrame identity, and everything else
// — gob garbage that framed and checksummed cleanly, so it was *sent*
// malformed rather than mangled in transit — becomes ErrBadFrame.
// Retry/breaker logic can then stop treating a garbled payload as node
// death: the peer is reachable, its bytes are not trustworthy.
func wrapDecodeErr(what string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return err
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return err
	}
	if IsCorruptFrame(err) || IsBadFrame(err) {
		return err
	}
	return fmt.Errorf("%w: %s: %v", ErrBadFrame, what, err)
}

// DecodeRequest reads one Request from a gob stream. A corrupted or
// truncated frame yields an error, never a panic: gob's decoder can
// panic on adversarial type descriptors, and a server must not be
// killable by one bad frame, so the recover here is a load-bearing part
// of the wire contract (fuzzed in fuzz_test.go). Non-transport failures
// come back typed (ErrCorruptFrame for checksum mismatches under the
// frame layer, ErrBadFrame for undecodable payloads).
func DecodeRequest(dec *gob.Decoder) (req Request, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = wrapDecodeErr("decode request", fmt.Errorf("%v", r))
		}
	}()
	err = wrapDecodeErr("decode request", dec.Decode(&req))
	return req, err
}

// DecodeResponse reads one Response from a gob stream with the same
// panic-to-error and typed-error guarantees as DecodeRequest (the
// client side of the contract: a corrupting ISN must not take the
// aggregator down).
func DecodeResponse(dec *gob.Decoder) (resp Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = wrapDecodeErr("decode response", fmt.Errorf("%v", r))
		}
	}()
	err = wrapDecodeErr("decode response", dec.Decode(&resp))
	return resp, err
}
