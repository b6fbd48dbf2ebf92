package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"lama/internal/core"
)

// The lamad wire API. Every payload is JSON; errors come back as
// {"error": "..."} with a meaningful status: 400 for malformed requests,
// 404 for unknown clusters, 409 for stale epoch pins, 413 for bodies over
// maxBodyBytes, 503 when admission control sheds the request.
//
//	POST /v1/place                     place a job (body: Request)
//	GET  /v1/clusters                  list clusters with epochs
//	POST /v1/clusters/{id}/events      apply a mutation (body: Event)

// maxBodyBytes caps a request body. Real requests are under 200 B; the
// cap keeps a hostile client from streaming an unbounded body into the
// decoder.
const maxBodyBytes = 1 << 20

// maxPooledReply is the largest reply buffer returned to replyBufs. A
// max-np reply runs to tens of MB; pooling it would pin that memory for
// the life of the process.
const maxPooledReply = 1 << 20

// replyBufs recycles /v1/place reply buffers across requests.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// PlacementJSON is one rank assignment on the wire. /v1/place replies are
// written by appendPlaceResponse, not through this type; it documents the
// wire form and is what clients decode into.
type PlacementJSON struct {
	Rank     int    `json:"rank"`
	Node     int    `json:"node"`
	NodeName string `json:"node_name"`
	PUs      []int  `json:"pus"`
}

// PlaceResponseJSON is the wire form of a served placement.
//
//lama:api bench/lamaload, a separate module, decodes replies into it
type PlaceResponseJSON struct {
	Cluster    string          `json:"cluster"`
	Epoch      uint64          `json:"epoch"`
	Cached     bool            `json:"cached"`
	NP         int             `json:"np"`
	Sweeps     int             `json:"sweeps"`
	Placements []PlacementJSON `json:"placements"`
}

// ClusterJSON is one row of the cluster listing.
type ClusterJSON struct {
	Name      string `json:"name"`
	Epoch     uint64 `json:"epoch"`
	Sig       string `json:"sig"`
	Nodes     int    `json:"nodes"`
	UsablePUs int    `json:"usable_pus"`
}

// EventResponseJSON acknowledges an applied event.
type EventResponseJSON struct {
	Cluster string `json:"cluster"`
	Epoch   uint64 `json:"epoch"`
	Purged  int    `json:"purged"`
}

// Mount installs the /v1 placement API on a mux (Go 1.22 method+wildcard
// patterns). The engine shares the mux with the obs telemetry surface in
// lamad, so one port serves placements, metrics, events, and profiles.
func (e *Engine) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/place", e.handlePlace)
	mux.HandleFunc("GET /v1/clusters", e.handleClusters)
	mux.HandleFunc("POST /v1/clusters/{id}/events", e.handleEvent)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) // best effort: client may be gone
}

// writeJSON serves the small, cold replies (cluster listing, event acks)
// through encoding/json; only /v1/place has its own encoder.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) // best effort: client may be gone
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownCluster):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStaleSnapshot):
		return http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// decodeBody decodes a size-capped JSON request body into v. On failure
// it has already answered: 413 past maxBodyBytes, 400 otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, fmt.Errorf("engine: bad %s body: %v", what, err))
	return false
}

func (e *Engine) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, "request", &req) {
		return
	}
	resp, err := e.Place(r.Context(), &req)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writePlaceReply(w, req.Cluster, resp)
	resp.recycle()
}

// writePlaceReply writes a served placement's /v1/place reply with its
// Content-Length.
func writePlaceReply(w http.ResponseWriter, cluster string, resp *Response) {
	bp := replyBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if ent := resp.entry; ent != nil {
		// The header is the request's own; the placements are the stored
		// run's bytes, written without a copy.
		buf = appendPlaceHeader(buf, cluster, resp.Epoch, resp.Cached, &resp.Map)
		body := ent.prefix(resp.Map.NumRanks())
		h.Set("Content-Length", strconv.Itoa(len(buf)+len(body)+len(replyTail)))
		w.Write(buf) // best effort: client may be gone
		w.Write(body)
		w.Write(replyTail)
	} else {
		buf = appendPlaceResponse(buf, cluster, resp.Epoch, resp.Cached, &resp.Map)
		h.Set("Content-Length", strconv.Itoa(len(buf)))
		w.Write(buf) // best effort: client may be gone
	}
	putReplyBuf(bp, buf)
}

// putReplyBuf returns a reply buffer to replyBufs unless it grew past
// maxPooledReply.
func putReplyBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= maxPooledReply {
		*bp = buf
		replyBufs.Put(bp)
	}
}

// replyTail closes a /v1/place reply's placements array and object.
var replyTail = []byte("]}\n")

// appendPlaceResponse appends the wire form of a served placement to dst.
// The bytes are exactly what json.Encoder writes for the equivalent
// PlaceResponseJSON (field order, null for nil PUs, HTML-safe string
// escaping, trailing newline), written straight from the map without a
// copy or reflection. FuzzPlaceReply holds the two byte-equal.
func appendPlaceResponse(dst []byte, cluster string, epoch uint64, cached bool, m *core.Map) []byte {
	dst = appendPlaceHeader(dst, cluster, epoch, cached, m)
	for i := range m.Placements {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPlacement(dst, &m.Placements[i])
	}
	return append(dst, replyTail...)
}

// appendPlaceHeader appends a reply's fields up to and including the
// opening bracket of its placements array.
func appendPlaceHeader(dst []byte, cluster string, epoch uint64, cached bool, m *core.Map) []byte {
	dst = append(dst, `{"cluster":`...)
	dst = appendJSONString(dst, cluster)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	dst = append(dst, `,"np":`...)
	dst = strconv.AppendInt(dst, int64(m.NumRanks()), 10)
	dst = append(dst, `,"sweeps":`...)
	dst = strconv.AppendInt(dst, int64(m.Sweeps), 10)
	return append(dst, `,"placements":[`...)
}

// appendPlacement appends one rank's object of the placements array.
func appendPlacement(dst []byte, p *core.Placement) []byte {
	dst = append(dst, `{"rank":`...)
	dst = strconv.AppendInt(dst, int64(p.Rank), 10)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(p.Node), 10)
	dst = append(dst, `,"node_name":`...)
	dst = appendJSONString(dst, p.NodeName)
	dst = append(dst, `,"pus":`...)
	if p.PUs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for j, pu := range p.PUs {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(pu), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string. Printable ASCII other than
// `"\<>&` needs no escaping and is copied; any other string goes through
// json.Marshal, so control bytes, invalid UTF-8 and U+2028/U+2029 are
// escaped exactly as encoding/json escapes them.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func (e *Engine) handleClusters(w http.ResponseWriter, _ *http.Request) {
	rows := make([]ClusterJSON, 0, 4)
	for _, name := range e.Clusters() {
		s := e.Snapshot(name)
		if s == nil {
			continue
		}
		rows = append(rows, ClusterJSON{
			Name:      name,
			Epoch:     s.Clu.Epoch(),
			Sig:       s.Clu.Sig(),
			Nodes:     s.Clu.NumNodes(),
			UsablePUs: s.Clu.Cluster().TotalUsablePUs(),
		})
	}
	writeJSON(w, rows)
}

func (e *Engine) handleEvent(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	var ev Event
	if !decodeBody(w, r, "event", &ev) {
		return
	}
	epoch, purged, err := e.ApplyEvent(name, &ev)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, EventResponseJSON{Cluster: name, Epoch: epoch, Purged: purged})
}
