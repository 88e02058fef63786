package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDecodeStrict: one JSON value and nothing after it but whitespace,
// with no field the target lacks.
func TestDecodeStrict(t *testing.T) {
	type target struct {
		A int `json:"a"`
	}
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"a": 1}`, true},
		{"{\"a\": 1} \n\t\r", true},
		{`{"a": 1} x`, false},
		{`{"a": 1}{}`, false},
		{`{"a": 1}]`, false},
		{`{"a": 1, "b": 2}`, false},
		{``, false},
		{`{"a": "1"}`, false},
	} {
		var v target
		err := Decode([]byte(tc.body), &v)
		if (err == nil) != tc.ok {
			t.Errorf("Decode(%q) = %v, want ok %t", tc.body, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "invalid JSON body: ") {
			t.Errorf("Decode(%q) error %q lacks the body prefix", tc.body, err)
		}
	}
	// Trailing data is named as json.Unmarshal names it.
	err := Decode([]byte(`{"a": 1} x`), new(target))
	want := json.Unmarshal([]byte(`{"a": 1} x`), new(target))
	if err == nil || want == nil || err.Error() != "invalid JSON body: "+want.Error() {
		t.Errorf("trailing-data error %v, want Unmarshal's %v", err, want)
	}
}

// TestReadBodyBound: a body of exactly MaxBodyBytes reads whole; one byte
// more is ErrBodyTooLarge.
func TestReadBodyBound(t *testing.T) {
	b, err := ReadBody(bytes.NewReader(make([]byte, MaxBodyBytes)))
	if err != nil || len(b.Bytes()) != MaxBodyBytes {
		t.Fatalf("body at the bound: %v", err)
	}
	b.Release()
	if _, err := ReadBody(bytes.NewReader(make([]byte, MaxBodyBytes+1))); !errors.Is(err, ErrBodyTooLarge) {
		t.Errorf("body past the bound: %v, want ErrBodyTooLarge", err)
	}
}

// TestWriteJSONRendering: the pooled encoder renders what MarshalIndent
// plus a newline renders, and EncodeJSON the same bytes.
func TestWriteJSONRendering(t *testing.T) {
	v := map[string]any{"b": []int{1, 2}, "a": "<x>", "c": map[string]float64{"d": 0.5}}
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusTeapot, v)
	if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("WriteJSON = %d %q %q, want %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body, want)
	}
	if got, err := EncodeJSON(v); err != nil || !bytes.Equal(got, want) {
		t.Errorf("EncodeJSON = %q, %v", got, err)
	}
}

// TestNewHopCarriesRequest: a hop made inside a pipeline request carries
// its request ID and trace context; one made outside carries neither.
func TestNewHopCarriesRequest(t *testing.T) {
	p := NewPipeline(PipelineConfig{Daemon: "test", FlightRecorderSize: -1})
	mux := http.NewServeMux()
	var hop *http.Request
	p.Handle(mux, "POST /v1/x", func(w http.ResponseWriter, r *http.Request) {
		var err error
		if hop, err = NewHop(r.Context(), http.MethodPost, "http://peer/v1/y", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	})
	parent := NewTraceContext()
	req := httptest.NewRequest(http.MethodPost, "/v1/x", nil)
	req.Header.Set(RequestIDHeader, "rid-1")
	req.Header.Set(TraceCtxHeader, parent.String())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)

	if got := hop.Header.Get(RequestIDHeader); got != "rid-1" {
		t.Errorf("hop request ID %q, want rid-1", got)
	}
	if got := hop.Header.Get(TraceCtxHeader); got != rec.Header().Get(TraceCtxHeader) {
		t.Errorf("hop trace context %q, want the request's own %q", got, rec.Header().Get(TraceCtxHeader))
	}
	if tc, _ := ParseTraceContext(hop.Header.Get(TraceCtxHeader)); tc.TraceID != parent.TraceID || tc.SpanID == parent.SpanID {
		t.Errorf("hop trace context %+v, want a child of %+v", tc, parent)
	}
	if hop.Header.Get("Content-Type") != "application/json" || hop.ContentLength != 2 {
		t.Errorf("hop body headers %v, length %d", hop.Header, hop.ContentLength)
	}

	bare, err := NewHop(req.Context(), http.MethodGet, "http://peer/v1/y", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Header) != 0 {
		t.Errorf("hop outside a request carries headers %v", bare.Header)
	}
}
