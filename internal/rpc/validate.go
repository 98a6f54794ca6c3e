package rpc

import (
	"errors"
	"fmt"
)

// Validation bounds for decodable-but-absurd requests. A request can
// pass the wire decoder and still be garbage — a fuzzer-mangled K of two
// billion, a thousand terms, a megabyte "term" — and each of those
// would trigger allocation-heavy index work before failing naturally.
// ValidateRequest rejects them up front, before admission control and
// before any evaluation.
const (
	// MaxK bounds results-per-query; no shard here has 10k docs worth
	// of meaningful top-K.
	MaxK = 10_000
	// MaxTerms bounds query length.
	MaxTerms = 64
	// MaxTermLen bounds a single term's bytes.
	MaxTermLen = 1024
)

// ErrBadRequest is the typed cause wrapped by every validation failure,
// so callers can errors.Is against it without string matching.
var ErrBadRequest = errors.New("rpc: bad request")

// ValidateRequest checks a decoded Request against the sanity bounds.
// K bounds apply only to the kind that returns results (search):
// KindPredict and KindPing legitimately carry K == 0.
func ValidateRequest(req *Request) error {
	switch req.Kind {
	case KindSearch:
		if req.K <= 0 {
			return fmt.Errorf("%w: K=%d, must be positive", ErrBadRequest, req.K)
		}
		if req.K > MaxK {
			return fmt.Errorf("%w: K=%d exceeds limit %d", ErrBadRequest, req.K, MaxK)
		}
	case KindPredict, KindPing, KindFetchShard:
	default:
		return fmt.Errorf("%w: unknown request kind %d", ErrBadRequest, req.Kind)
	}
	if len(req.Terms) > MaxTerms {
		return fmt.Errorf("%w: %d terms exceeds limit %d", ErrBadRequest, len(req.Terms), MaxTerms)
	}
	for i, t := range req.Terms {
		if len(t) > MaxTermLen {
			return fmt.Errorf("%w: term %d is %d bytes, limit %d", ErrBadRequest, i, len(t), MaxTermLen)
		}
	}
	if req.DeadlineUS < 0 {
		return fmt.Errorf("%w: negative deadline %d", ErrBadRequest, req.DeadlineUS)
	}
	return nil
}
