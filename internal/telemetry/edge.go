package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// MaxBodyBytes bounds every body either daemon buffers, a request body or
// a peer's answer: 25 times the largest shipped inline machine
// (hp-blade32, 41 KB). A longer request body is answered 413 before any
// work is done for it; a longer peer answer is an error of that hop.
const MaxBodyBytes = 1 << 20

// ErrBodyTooLarge reports a body longer than MaxBodyBytes.
var ErrBodyTooLarge = fmt.Errorf("body exceeds %d bytes", MaxBodyBytes)

// Body is one body read whole by ReadBody, in a pooled buffer. Release it
// once done with its bytes.
type Body struct {
	buf bytes.Buffer
	lim io.LimitedReader
}

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// ReadBody reads r whole, at most MaxBodyBytes, into a pooled buffer, so
// reading a body allocates nothing once the pool is warm. A longer body is
// ErrBodyTooLarge.
func ReadBody(r io.Reader) (*Body, error) {
	b := bodyPool.Get().(*Body)
	b.buf.Reset()
	b.lim = io.LimitedReader{R: r, N: MaxBodyBytes + 1}
	_, err := b.buf.ReadFrom(&b.lim)
	if err == nil && b.buf.Len() > MaxBodyBytes {
		err = ErrBodyTooLarge
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// Bytes returns the body, valid until Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release returns b to the pool, unless a rare large body grew it.
func (b *Body) Release() {
	b.lim.R = nil
	if b.buf.Cap() <= 64<<10 {
		bodyPool.Put(b)
	}
}

// ReadRequest reads r's body through ReadBody. When the read fails it
// answers the request itself, 413 past the bound and 400 otherwise, and
// returns nil.
func ReadRequest(w http.ResponseWriter, r *http.Request) *Body {
	b, err := ReadBody(r.Body)
	if errors.Is(err, ErrBodyTooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxBodyBytes)
	} else if err != nil {
		WriteError(w, http.StatusBadRequest, "reading request body: %v", err)
	}
	return b
}

// DecodeRequest strictly decodes r's body, read through ReadRequest, into
// v. When either fails it answers the request itself (400 or 413) and
// returns false.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	b := ReadRequest(w, r)
	if b == nil {
		return false
	}
	defer b.Release()
	if err := Decode(b.Bytes(), v); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// Decode strictly decodes the one JSON value in data into v: an unknown
// field is an error, and so is anything but whitespace after the value.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		// Something follows the value: Unmarshal names it, as for any body.
		return fmt.Errorf("invalid JSON body: %w", json.Unmarshal(data, new(json.RawMessage)))
	}
	return nil
}

// jsonEncoder is a pooled buffer and encoder pair, so a response does not
// build a json.Encoder (and grow a fresh buffer) of its own.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// EncodeJSON renders v as the daemons' API renders JSON, two-space indent
// and a trailing newline, into a freshly owned byte slice.
func EncodeJSON(v any) ([]byte, error) {
	e := encPool.Get().(*jsonEncoder)
	defer encPool.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.Clone(e.buf.Bytes()), nil
}

// WriteJSON renders v as EncodeJSON does and writes it with status,
// charging the render to the request's "encode" stage when the pipeline
// attached one. A value that does not render is a 500.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	start := time.Now()
	e := encPool.Get().(*jsonEncoder)
	defer encPool.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	StagesFromWriter(w).Add("encode", time.Since(start))
	WriteJSONBytes(w, status, e.buf.Bytes())
}

// WriteJSONBytes writes an already rendered JSON body with status.
func WriteJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

var jsonContentType = []string{"application/json"}

// WriteError writes the daemons' uniform error body, {"error": "..."},
// with status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// NewHop builds an outbound request made on behalf of the pipeline request
// whose context is ctx. It carries that request's X-Request-Id, if any,
// and the child X-Trace-Ctx the pipeline minted for it, so the peer's span
// joins the same trace. A non-empty body goes out as application/json.
func NewHop(ctx context.Context, method, url string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if rd != nil {
		req.Header["Content-Type"] = jsonContentType
	}
	if rw, ok := ctx.Value(requestKey{}).(*responseWriter); ok {
		if rw.echo[0] != "" {
			req.Header[RequestIDHeader] = rw.echo[0:1:1]
		}
		req.Header[TraceCtxHeader] = rw.echo[1:2:2]
	}
	return req, nil
}
