package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/service"
)

// span is one timed call across a layer boundary. Spans of one request
// share its request id (the X-Request-ID the client sets and the
// service propagates through its fan-out and protocol posts).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"` // name of the enclosing layer's span with the same rid
	RID    string `json:"rid"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Signer int    `json:"signer,omitempty"` // 1-based signer index for RPC and signer spans
	Status int    `json:"status,omitempty"` // HTTP status; 0 when the call failed in transport
	Msgs   int    `json:"msgs,omitempty"`   // messages carried by a signing RPC
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names, one per layer boundary the benchmark wraps.
const (
	spanClient      = "client.call"       // around a client.Sign/SignBatch/RunRefresh call
	spanCoordSign   = "coord.sign"        // Coordinator.ServeHTTP on /sign
	spanCoordBatch  = "coord.sign_batch"  // Coordinator.ServeHTTP on /sign-batch
	spanCoordProto  = "coord.proto_run"   // Coordinator.ServeHTTP on /proto/*/run
	spanCoordOther  = "coord.other"       // any other coordinator route
	spanRPC         = "coord.rpc"         // coordinator → signer round trip
	spanSignerSign  = "signer.sign"       // Signer.ServeHTTP on /sign
	spanSignerBatch = "signer.sign_batch" // Signer.ServeHTTP on /sign-batch
	spanProtoStart  = "proto.start"       // Signer.ServeHTTP on /proto/*/start
	spanProtoStep   = "proto.step"        // Signer.ServeHTTP on /proto/*/step
	spanProtoFinish = "proto.finish"      // Signer.ServeHTTP on /proto/*/finish
	spanSignerOther = "signer.other"      // any other signer route
	tracedPrefix    = "t"                 // request ids starting with this are traced
	untracedPrefix  = "u"                 // request ids starting with this are not
	parentOfCoord   = spanClient          // parent layer of every coord.* span
	parentOfRPC     = "coord.*"           // parent layer of coord.rpc spans
	parentOfSigner  = spanRPC             // parent layer of signer.* and proto.* spans
	traceDirName    = "trace"             // span dumps, under the build directory
)

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing; the untraced pass runs without one and without any wrapper.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// wants reports whether a request id belongs to a traced request. The
// traced pass alternates traced and untraced requests so that the two
// halves, run under the same load, give the tracing overhead.
func (t *tracer) wants(rid string) bool {
	return t != nil && strings.HasPrefix(rid, tracedPrefix)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedHandler records a span around a daemon's ServeHTTP.
type tracedHandler struct {
	next   http.Handler
	tr     *tracer
	signer int // 0 for the coordinator
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get(service.HeaderRequestID)
	if !h.tr.wants(rid) {
		h.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := h.tr.now()
	h.next.ServeHTTP(sw, r)
	s := span{RID: rid, Start: start, End: h.tr.now(), Status: sw.status, Signer: h.signer}
	if h.signer == 0 {
		s.Name, s.Parent = coordRoute(r.URL.Path), parentOfCoord
	} else {
		s.Name, s.Parent = signerRoute(r.URL.Path), parentOfSigner
	}
	h.tr.add(s)
}

func coordRoute(path string) string {
	switch {
	case strings.HasSuffix(path, "/sign"):
		return spanCoordSign
	case strings.HasSuffix(path, "/sign-batch"):
		return spanCoordBatch
	case strings.HasSuffix(path, "/run"):
		return spanCoordProto
	}
	return spanCoordOther
}

func signerRoute(path string) string {
	switch {
	case strings.HasSuffix(path, "/sign"):
		return spanSignerSign
	case strings.HasSuffix(path, "/sign-batch"):
		return spanSignerBatch
	case strings.Contains(path, "/proto/") && strings.HasSuffix(path, "/start"):
		return spanProtoStart
	case strings.Contains(path, "/proto/") && strings.HasSuffix(path, "/step"):
		return spanProtoStep
	case strings.Contains(path, "/proto/") && strings.HasSuffix(path, "/finish"):
		return spanProtoFinish
	}
	return spanSignerOther
}

// tracedTransport wraps the coordinator's outbound RoundTripper: each
// signer RPC becomes a span that ends when its response body has been
// read or closed.
type tracedTransport struct {
	next    http.RoundTripper
	tr      *tracer
	signers map[string]int // signer host:port → 1-based index
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rid := req.Header.Get(service.HeaderRequestID)
	if !t.tr.wants(rid) {
		return t.next.RoundTrip(req)
	}
	s := span{Name: spanRPC, Parent: parentOfRPC, RID: rid, Signer: t.signers[req.URL.Host], Start: t.tr.now()}
	s.Msgs = rpcMessages(req)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = t.tr.now()
		t.tr.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

// rpcMessages counts the messages a signing RPC carries: 1 for /sign,
// the batch length for /sign-batch, 0 for anything else.
func rpcMessages(req *http.Request) int {
	switch {
	case strings.HasSuffix(req.URL.Path, "/sign"):
		return 1
	case strings.HasSuffix(req.URL.Path, "/sign-batch") && req.GetBody != nil:
		body, err := req.GetBody()
		if err != nil {
			return 0
		}
		defer body.Close()
		var br service.SignBatchRequest
		if json.NewDecoder(body).Decode(&br) != nil {
			return 0
		}
		return len(br.Messages)
	}
	return 0
}

// spanBody closes the RPC span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = b.tr.now()
		b.tr.add(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// traceFile is where a traced run dumps its spans.
func traceFile(buildDir, workload string, seed int64) string {
	return filepath.Join(buildDir, traceDirName, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
