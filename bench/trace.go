package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// The traced run measures every layer from outside: each wrapper below
// interposes on a public interface a layer is called through and records
// a span around the call. Nothing inside the program is instrumented.

// spanKind names a span; the value indexes the tracer's aggregate tables.
type spanKind uint8

const (
	spClientNext      spanKind = iota // controller Size() -> Observe() return: one block as the client sees it
	spClientHTTP                      // client RoundTrip for a /next or /stream request
	spClientBody                      // one Read of a block-carrying response body
	spClientMgmt                      // client RoundTrip for anything else (open, close, credit, ingest)
	spWireDecode                      // client codec Decode/DecodeScratch
	spWireEncode                      // server codec Encode
	spWireIngest                      // codec work on the ingest path (client Encode, server Decode)
	spCoreDecide                      // inner controller Size() or Observe()
	spServiceNext                     // backend handler on /next, or one push frame (encode start -> flush)
	spServiceCreate                   // backend handler on POST /sessions
	spServiceIngest                   // backend handler on /ingest/{id}/block
	spServiceOther                    // backend handler on anything else
	spReplicaFeed                     // backend handler on /replication/feed
	spGatewayNext                     // gateway handler on /next
	spGatewayOther                    // gateway handler on anything else
	spGatewayUpstream                 // gateway RoundTrip + body reads for a backend /next
	spGatewayMgmt                     // gateway RoundTrip for anything else (feed polls, create, delete)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.next", "client.http", "client.body", "client.mgmt",
	"wire.decode", "wire.encode", "wire.ingest", "core.decide",
	"service.next", "service.create", "service.ingest", "service.other", "replica.feed",
	"gateway.next", "gateway.other", "gateway.upstream", "gateway.mgmt",
}

const noParent = numSpanKinds

// reqSlot is the request a tier is currently serving, so spans recorded
// by wrappers that never see a URL (codec, controller) can carry the
// same "<session>/<seq>" id as the HTTP span that caused them. Every
// workload has one closed-loop reader, so one slot per tier suffices.
type reqSlot struct {
	sid atomic.Pointer[string]
	seq atomic.Uint64
}

func (s *reqSlot) set(sid string, seq uint64) {
	// A session's blocks share one id: store it once, not per block.
	if p := s.sid.Load(); p == nil || *p != sid {
		s.sid.Store(&sid)
	}
	s.seq.Store(seq)
}

func (s *reqSlot) get() (string, uint64) {
	if s == nil {
		return "", 0
	}
	if p := s.sid.Load(); p != nil {
		return *p, s.seq.Load()
	}
	return "", 0
}

type span struct {
	kind       spanKind
	start, end int64 // ns since tracer.t0
	sid        string
	seq        uint64
}

// maxSpansPerKind bounds the spans kept for the JSONL file; aggregates
// keep counting past it, so the per-layer numbers never depend on the cap.
const maxSpansPerKind = 40_000

// kindLog is one span kind's aggregates and kept spans. A kind is
// recorded by one wrapper, which one goroutine at a time runs (a tier
// serves the single reader's requests one by one), so giving every kind
// its own lock keeps the client's and the servers' goroutines from
// parking on each other's — which on a 70 µs block costs more than all
// the clock reads together.
type kindLog struct {
	mu      sync.Mutex
	total   int64
	count   int64
	dropped int64
	spans   []span
	_       [64]byte // keep neighbouring kinds' locks off this cache line
}

// tracer collects spans in memory; nothing is written until the
// benchmark ends.
type tracer struct {
	t0 time.Time
	// on gates recording to the traced trials, so the verification pass
	// through the same wrappers does not pollute the aggregates.
	on atomic.Bool
	// parent is the static nesting of this stack's spans.
	parent [numSpanKinds]spanKind

	logs [numSpanKinds]kindLog
	// encodeStart is the start of the latest wire.encode span not yet
	// claimed by a push frame (see frameWriter).
	encodeStart atomic.Int64
}

// newTracer builds a tracer whose nesting matches the stack shape:
// client.next > client.http > [gateway.next > gateway.upstream >]
// service.next > wire.encode, client.next > wire.decode > client.body
// (pull reads the body inside the decoder) and client.next > core.decide.
// On push the frames are read off the long-lived body before decoding,
// so client.body hangs off client.next directly and carries the server's
// per-frame work.
func newTracer(w *workload) *tracer {
	tr := &tracer{t0: time.Now()}
	for i := range tr.parent {
		tr.parent[i] = noParent
	}
	tr.parent[spClientHTTP] = spClientNext
	tr.parent[spWireDecode] = spClientNext
	tr.parent[spCoreDecide] = spClientNext
	tr.parent[spClientBody] = spWireDecode
	tr.parent[spServiceNext] = spClientHTTP
	tr.parent[spWireEncode] = spServiceNext
	switch {
	case w.gateway:
		tr.parent[spGatewayNext] = spClientHTTP
		tr.parent[spGatewayUpstream] = spGatewayNext
		tr.parent[spServiceNext] = spGatewayUpstream
	case w.push:
		tr.parent[spClientBody] = spClientNext
		tr.parent[spServiceNext] = spClientBody
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) record(kind spanKind, start, end int64, slot *reqSlot) {
	if !tr.on.Load() {
		return
	}
	sid, seq := slot.get()
	if kind == spWireEncode {
		tr.encodeStart.Store(start)
	}
	l := &tr.logs[kind]
	l.mu.Lock()
	l.total += end - start
	l.count++
	if len(l.spans) < maxSpansPerKind {
		l.spans = append(l.spans, span{kind, start, end, sid, seq})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// snapshot returns the aggregate time and span count per kind.
func (tr *tracer) snapshot() (total, count [numSpanKinds]int64) {
	for k := range tr.logs {
		l := &tr.logs[k]
		l.mu.Lock()
		total[k], count[k] = l.total, l.count
		l.mu.Unlock()
	}
	return total, count
}

// kept returns the spans held for the file, in start order, and how many
// the cap dropped.
func (tr *tracer) kept() (spans []span, dropped int64) {
	for k := range tr.logs {
		l := &tr.logs[k]
		l.mu.Lock()
		spans = append(spans, l.spans...)
		dropped += l.dropped
		l.mu.Unlock()
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	return spans, dropped
}

// selfTimes is each kind's total minus the totals of its children.
func (tr *tracer) selfTimes() [numSpanKinds]int64 {
	self, _ := tr.snapshot()
	total := self
	for k := spanKind(0); k < numSpanKinds; k++ {
		if p := tr.parent[k]; p != noParent {
			self[p] -= total[k]
		}
	}
	return self
}

// writeJSONL writes the kept spans, one JSON object per line, then a
// trailer with the count dropped by the cap.
func (tr *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  string `json:"parent"`
		Req     string `json:"req"`
	}
	spans, dropped := tr.kept()
	for _, s := range spans {
		l := line{Name: spanNames[s.kind], StartNS: s.start, EndNS: s.end}
		if p := tr.parent[s.kind]; p != noParent {
			l.Parent = spanNames[p]
		}
		if s.sid != "" {
			l.Req = s.sid + "/" + strconv.FormatUint(s.seq, 10)
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	err = enc.Encode(map[string]int64{"dropped_spans": dropped})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- wire.Codec ---

// traceCodec times a codec from outside. It forwards Name and
// ContentType, so the service's plan fingerprint — and therefore every
// cache key and cached byte — is the one the unwrapped codec produces,
// and it offers the scratch decode path exactly when the client asks
// for it, through the same wire.DecodeBlock dispatch the client uses.
type traceCodec struct {
	inner wire.Codec
	tr    *tracer
	// enc/dec are the spans Encode and Decode record; a nil slot leaves
	// the span without a request id (the ingest direction).
	enc, dec         spanKind
	encSlot, decSlot *reqSlot
}

func (c *traceCodec) Name() string        { return c.inner.Name() }
func (c *traceCodec) ContentType() string { return c.inner.ContentType() }

func (c *traceCodec) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	t0 := c.tr.now()
	err := c.inner.Encode(w, schema, rows)
	c.tr.record(c.enc, t0, c.tr.now(), c.encSlot)
	return err
}

func (c *traceCodec) Decode(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	return c.DecodeScratch(r, nil)
}

func (c *traceCodec) DecodeScratch(r io.Reader, s *wire.Scratch) (minidb.Schema, []minidb.Row, error) {
	t0 := c.tr.now()
	schema, rows, err := wire.DecodeBlock(c.inner, r, s)
	c.tr.record(c.dec, t0, c.tr.now(), c.decSlot)
	return schema, rows, err
}

// --- core.Controller ---

// timedCtl measures how long the client waited for each block: from the
// Size() call that opens Algorithm 1's iteration to the Observe() call
// that closes it. The untraced trials use it for the block-latency
// samples; with a tracer it also records client.next and core.decide.
type timedCtl struct {
	inner   core.Controller
	samples *[]int64 // ns per block, appended in Observe
	tr      *tracer  // nil on untraced trials
	slot    *reqSlot
	push    bool // frames carry no URL: advance the slot's seq per block
	t0      int64
	started time.Time
}

func (c *timedCtl) Name() string            { return c.inner.Name() }
func (c *timedCtl) Unwrap() core.Controller { return c.inner }

func (c *timedCtl) Size() int {
	if c.tr == nil {
		c.started = time.Now()
		return c.inner.Size()
	}
	if c.push {
		c.slot.seq.Add(1)
	}
	c.t0 = c.tr.now()
	size := c.inner.Size()
	c.tr.record(spCoreDecide, c.t0, c.tr.now(), c.slot)
	return size
}

func (c *timedCtl) Observe(y float64) {
	if c.tr == nil {
		*c.samples = append(*c.samples, int64(time.Since(c.started)))
		c.inner.Observe(y)
		return
	}
	t1 := c.tr.now()
	*c.samples = append(*c.samples, t1-c.t0)
	c.inner.Observe(y)
	t2 := c.tr.now()
	c.tr.record(spCoreDecide, t1, t2, c.slot)
	c.tr.record(spClientNext, c.t0, t2, c.slot)
}

// --- http.Handler ---

// reqClass is what a request is for, read off its method and path.
type reqClass uint8

const (
	reqOther reqClass = iota
	reqNext
	reqStream
	reqCreate
	reqIngest
	reqFeed
)

// classify parses the block protocol's URL shapes without allocating.
func classify(method, path string) (class reqClass, sid string) {
	switch {
	case path == "/sessions" && method == http.MethodPost:
		return reqCreate, ""
	case path == "/replication/feed":
		return reqFeed, ""
	case strings.HasPrefix(path, "/sessions/"):
		rest := path[len("/sessions/"):]
		if id, ok := strings.CutSuffix(rest, "/next"); ok {
			return reqNext, id
		}
		if id, ok := strings.CutSuffix(rest, "/stream"); ok {
			return reqStream, id
		}
	case strings.HasPrefix(path, "/ingest/") && strings.HasSuffix(path, "/block"):
		return reqIngest, ""
	}
	return reqOther, ""
}

// queryUint reads one unsigned query parameter from a raw query string.
func queryUint(raw, key string) uint64 {
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if v, ok := strings.CutPrefix(kv, key+"="); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// traceHandler times a tier's http.Handler per request class; kinds maps
// a class to the span it records.
type traceHandler struct {
	inner http.Handler
	tr    *tracer
	slot  *reqSlot
	kinds [reqFeed + 1]spanKind
}

func serviceHandler(inner http.Handler, tr *tracer, slot *reqSlot) *traceHandler {
	return &traceHandler{inner: inner, tr: tr, slot: slot, kinds: [...]spanKind{
		reqOther: spServiceOther, reqNext: spServiceNext,
		reqCreate: spServiceCreate, reqIngest: spServiceIngest, reqFeed: spReplicaFeed,
	}}
}

func gatewayHandler(inner http.Handler, tr *tracer, slot *reqSlot) *traceHandler {
	return &traceHandler{inner: inner, tr: tr, slot: slot, kinds: [...]spanKind{
		reqOther: spGatewayOther, reqNext: spGatewayNext,
		reqCreate: spGatewayOther, reqIngest: spGatewayOther, reqFeed: spGatewayOther,
	}}
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	class, sid := classify(r.Method, r.URL.Path)
	switch class {
	case reqNext:
		h.slot.set(sid, queryUint(r.URL.RawQuery, "seq"))
	case reqStream:
		// The stream handler lives as long as the query; what the layer
		// does per block is one frame, timed at the ResponseWriter.
		from := queryUint(r.URL.RawQuery, "from")
		h.slot.set(sid, from)
		h.inner.ServeHTTP(&frameWriter{ResponseWriter: w, h: h, seq: from}, r)
		return
	}
	slot := h.slot
	if class != reqNext {
		slot = nil // only block requests carry an id
	}
	t0 := h.tr.now()
	h.inner.ServeHTTP(w, r)
	h.tr.record(h.kinds[class], t0, h.tr.now(), slot)
}

// frameWriter splits a push stream into per-frame service.next spans.
// The producer encodes a block (the codec wrapper stamps the tracer's encodeStart),
// writes the frame in one or more Writes and flushes; the span runs
// from the encode's start — or the first Write for a frame that needed
// no encode — to the end of the Flush.
type frameWriter struct {
	http.ResponseWriter
	h          *traceHandler
	seq        uint64
	firstWrite int64
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	if fw.firstWrite == 0 {
		fw.firstWrite = fw.h.tr.now()
	}
	return fw.ResponseWriter.Write(p)
}

func (fw *frameWriter) Flush() {
	fw.ResponseWriter.(http.Flusher).Flush()
	if fw.firstWrite == 0 {
		return // nothing written since the last frame
	}
	start := fw.firstWrite
	if enc := fw.h.tr.lastEncodeStart(); enc != 0 && enc < start {
		start = enc
	}
	fw.h.tr.record(spServiceNext, start, fw.h.tr.now(), fw.h.slot)
	fw.firstWrite = 0
	fw.seq++
	fw.h.slot.seq.Store(fw.seq)
}

// lastEncodeStart returns (and clears) the start of the most recent
// wire.encode span still kept, so a push frame can begin where its
// block's encoding began. Only the push producer calls it, once per
// frame, and only one stream is live, so "most recent" is "this frame's".
func (tr *tracer) lastEncodeStart() int64 {
	return tr.encodeStart.Swap(0)
}

// --- http.RoundTripper ---

// traceRT times a tier's outbound HTTP: the RoundTrip call (request
// written, response headers read) and every Read of a block-carrying
// response body. Together they are the time the tier waited on the
// network and on the tier below.
type traceRT struct {
	inner http.RoundTripper
	tr    *tracer
	// slot carries the request id of block requests. The client tier
	// owns its slot and sets it from each block request's URL (set);
	// the gateway's transport reuses the slot its handler set.
	slot             *reqSlot
	set              bool
	next, body, mgmt spanKind
}

func (t *traceRT) RoundTrip(req *http.Request) (*http.Response, error) {
	class, sid := classify(req.Method, req.URL.Path)
	kind, slot := t.mgmt, (*reqSlot)(nil)
	if class == reqNext || class == reqStream {
		kind, slot = t.next, t.slot
		if t.set {
			// A stream's first frame is "from"; timedCtl advances the seq
			// once per frame after it.
			key := "seq"
			if class == reqStream {
				key = "from"
			}
			slot.set(sid, queryUint(req.URL.RawQuery, key))
		}
	}
	t0 := t.tr.now()
	resp, err := t.inner.RoundTrip(req)
	t.tr.record(kind, t0, t.tr.now(), slot)
	if err == nil && slot != nil {
		resp.Body = &timedBody{ReadCloser: resp.Body, t: t}
	}
	return resp, err
}

type timedBody struct {
	io.ReadCloser
	t *traceRT
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := b.t.tr.now()
	n, err := b.ReadCloser.Read(p)
	b.t.tr.record(b.t.body, t0, b.t.tr.now(), b.t.slot)
	return n, err
}
