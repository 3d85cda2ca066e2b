package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
)

// timedGateway is the timing decorator the traced run hands to
// server.NewService in place of the bare gateway: the calls the
// workload drives through the HTTP layer (submit, choose, decline,
// advance) become spans; the rest pass straight through. Embedding the
// concrete gateway keeps the optional interfaces the server probes for
// (readiness, metric families) intact.
type timedGateway struct {
	*cluster.Gateway
	tr *tracer
}

func (g *timedGateway) SubmitRequest(spec core.SubmitSpec) (*core.ServiceRecord, error) {
	start := g.tr.now()
	rec, err := g.Gateway.SubmitRequest(spec)
	name := "svc.submit"
	if rec != nil && rec.Relay != nil {
		name = "svc.submit_relay"
	}
	req := ""
	if spec.Span != nil {
		req = spec.Span.ID
	}
	g.tr.record(name, req, start)
	return rec, err
}

func (g *timedGateway) Choose(id core.RequestID, option int) error {
	start := g.tr.now()
	err := g.Gateway.Choose(id, option)
	g.tr.record("svc.choose", chooseReqID(id), start)
	return err
}

func (g *timedGateway) Decline(id core.RequestID) error {
	start := g.tr.now()
	err := g.Gateway.Decline(id)
	g.tr.record("svc.decline", declineReqID(id), start)
	return err
}

func (g *timedGateway) Advance(dt float64) ([]core.ServiceEvent, error) {
	start := g.tr.now()
	ev, err := g.Gateway.Advance(dt)
	g.tr.record("svc.advance", "", start)
	return ev, err
}

// The request ids the load generator sends as X-Request-ID, so the
// server-side spans of one rider operation share the client's id.
func quoteReqID(n int64) string             { return fmt.Sprintf("quote-%d", n) }
func chooseReqID(id core.RequestID) string  { return fmt.Sprintf("choose-%d", id) }
func declineReqID(id core.RequestID) string { return fmt.Sprintf("decline-%d", id) }

// timedHTTP is the timing middleware of the traced run: around the
// /v1 server handler it records one "server.<route>" span per request
// keyed by the client's X-Request-ID; around a shard handler it records one
// "shard.<verb>" span per RPC with the bytes it moved, keyed by the
// idempotency key of a submit (the gateway forwards the client's
// Idempotency-Key, the only id a shard RPC carries today).
type timedHTTP struct {
	next  http.Handler
	tr    *tracer
	shard string // "" for the /v1 server
}

func (m *timedHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := m.tr.now()
	var in int64
	req := r.Header.Get("X-Request-ID")
	var name string
	switch p := r.URL.Path; {
	case m.shard != "":
	case p == "/v1/requests":
		name = "server.quote"
	case p == "/v1/ticks":
		name = "server.tick"
	case strings.HasSuffix(p, "/choice"):
		name = "server.choose"
	case strings.HasSuffix(p, "/decline"):
		name = "server.decline"
	default:
		name = "server.other"
	}
	if m.shard != "" {
		verb, ok := strings.CutPrefix(r.URL.Path, "/rpc/")
		if i := strings.IndexByte(verb, '/'); i >= 0 {
			verb = verb[:i]
		}
		if !ok {
			verb = "http" // the shard's own /v1 surface (readiness probes)
		}
		name = "shard." + verb
		body, err := io.ReadAll(r.Body)
		if err == nil {
			in = int64(len(body))
			r.Body = io.NopCloser(bytes.NewReader(body))
			if verb == "submit" {
				var k struct {
					IdemKey string `json:"idem_key"`
				}
				if json.Unmarshal(body, &k) == nil {
					req = k.IdemKey
				}
			}
		}
	}
	cw := &countingWriter{ResponseWriter: w}
	m.next.ServeHTTP(cw, r)
	m.tr.add(span{Name: name, Req: req, Start: start, End: m.tr.now(), Bytes: in + cw.n})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}
