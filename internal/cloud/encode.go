package cloud

import (
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
)

// cacheEntry is one response-cache slot: the computed response plus the
// memoized JSON of its hit form (the same response with Cached set), so a
// cache hit is written as a byte copy instead of a fresh marshal. The memo
// is produced lazily on the first hit, not at store time: most keys of a
// fleet stream never repeat, and encoding every store would pay a marshal
// and keep ~16 KB of bytes resident per entry for nothing.
type cacheEntry struct {
	resp *Response
	hit  atomic.Pointer[[]byte]
}

// hitJSON returns the json.Marshal of the entry's hit form, encoding it on
// first use. Racing first hits each marshal the same immutable response
// to the same bytes; the first to publish wins and every caller returns
// the published slice, so the memo is written once.
func (e *cacheEntry) hitJSON() ([]byte, error) {
	if b := e.hit.Load(); b != nil {
		return *b, nil
	}
	hit := *e.resp
	hit.Cached = true
	b, err := json.Marshal(&hit)
	if err != nil {
		return nil, err
	}
	if !e.hit.CompareAndSwap(nil, &b) {
		return *e.hit.Load(), nil
	}
	return b, nil
}

// bodyPool recycles response-body buffers: a 32-item batch body is about
// half a megabyte, and without reuse every hot batch would be fresh
// garbage of that size.
var bodyPool = sync.Pool{New: func() any { return new(body) }}

// body is a pooled response buffer that json.Encoder writes into.
type body struct{ b []byte }

func (bd *body) Write(p []byte) (int, error) {
	bd.b = append(bd.b, p...)
	return len(p), nil
}

func getBody() *body {
	bd := bodyPool.Get().(*body)
	bd.b = bd.b[:0]
	return bd
}

// writeBody sends a complete JSON body in one write.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Write errors past the header cannot be reported to the client.
	_, _ = w.Write(b)
}

// writeJSON encodes v before committing a status, so a value that cannot
// be encoded (a NaN in a plan, say) is answered with a 500 and a JSON
// error instead of a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	bd := getBody()
	defer bodyPool.Put(bd)
	if err := json.NewEncoder(bd).Encode(v); err != nil {
		s.fail(w, http.StatusInternalServerError, encodeError(err))
		return
	}
	writeBody(w, code, bd.b)
}

// writeHit sends a cache hit's memoized encoding: the bytes writeJSON
// would produce for the hit, without marshalling the plan again.
func (s *Server) writeHit(w http.ResponseWriter, e *cacheEntry) {
	b, err := e.hitJSON()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, encodeError(err))
		return
	}
	bd := getBody()
	defer bodyPool.Put(bd)
	bd.b = append(append(bd.b, b...), '\n')
	writeBody(w, http.StatusOK, bd.b)
}

// writeBatch sends a BatchResponse byte-identical to writeJSON's encoding
// of it. A hit item (hits[i] non-nil) is spliced from its entry's memoized
// hit encoding; every other item is encoded as it stands, and one that
// cannot be encoded becomes that item's error, so one bad plan does not
// void the fleet's other answers.
func (s *Server) writeBatch(w http.ResponseWriter, items []BatchItem, hits [][]byte) {
	const open, itemOpen, closing = `{"results":[`, `{"response":`, "]}\n"
	size := len(open) + len(closing)
	for _, h := range hits {
		size += len(itemOpen) + len(h) + len("},")
	}
	bd := getBody()
	defer bodyPool.Put(bd)
	bd.b = append(slices.Grow(bd.b, size), open...)
	enc := json.NewEncoder(bd)
	for i := range items {
		if i > 0 {
			bd.b = append(bd.b, ',')
		}
		if hits[i] != nil {
			bd.b = append(append(append(bd.b, itemOpen...), hits[i]...), '}')
			continue
		}
		if err := enc.Encode(&items[i]); err != nil {
			// A failed Encode writes nothing; an error item always encodes.
			items[i] = BatchItem{Error: encodeError(err)}
			_ = enc.Encode(&items[i])
		}
		bd.b = bd.b[:len(bd.b)-1] // Encode's trailing newline
	}
	bd.b = append(bd.b, closing...)
	writeBody(w, http.StatusOK, bd.b)
}

func encodeError(err error) string {
	return "encoding response: " + err.Error()
}
