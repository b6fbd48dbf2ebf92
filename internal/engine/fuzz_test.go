package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"

	_ "lama/internal/place/all"
)

// fuzzMux builds a small two-node engine and mounts the /v1 wire API on a
// fresh mux. The base snapshot is returned so event fuzzing can re-publish
// it between iterations: every mutation derives a copy-on-write child, so
// the base itself is never written to and is safe to re-Register forever.
func fuzzMux(f *testing.F) (*Engine, *http.ServeMux, *Snapshot) {
	f.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		f.Fatal("nehalem-ep preset missing")
	}
	base := &Snapshot{Clu: cluster.SnapshotOf(cluster.Homogeneous(2, sp))}
	e := New(Config{Workers: 2, QueueDepth: 64})
	if err := e.Register("fuzz", base); err != nil {
		f.Fatal(err)
	}
	mux := http.NewServeMux()
	e.Mount(mux)
	return e, mux, base
}

// FuzzPlaceHTTP throws arbitrary bodies at POST /v1/place. Whatever the
// payload, the handler must answer with one of the documented statuses —
// never panic, never 500.
func FuzzPlaceHTTP(f *testing.F) {
	_, mux, _ := fuzzMux(f)
	for _, s := range []string{
		`{"cluster":"fuzz","np":4}`,
		`{"cluster":"fuzz","np":4,"policy":"lama","layout":"csbnh"}`,
		`{"cluster":"fuzz","np":8,"pattern":"ring","pes_per_proc":2}`,
		`{"cluster":"nope","np":1}`,
		`{"cluster":"fuzz","np":-1}`,
		`{"cluster":"fuzz","np":1048577}`,
		`{"cluster":"fuzz","np":4,"epoch":9}`,
		`{"cluster":"fuzz","np":999,"oversubscribe":false}`,
		`{"np":4}`,
		`nonsense`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d for body %q: %s", w.Code, body, w.Body.Bytes())
		}
	})
}

// FuzzEventHTTP throws arbitrary bodies at the event ingestion endpoint.
// The cluster is re-published from the pristine base before every
// iteration so accepted events cannot compound into unbounded epochs or
// node counts across the run.
func FuzzEventHTTP(f *testing.F) {
	e, mux, base := fuzzMux(f)
	for _, s := range []string{
		`{"type":"fail-node","node":0}`,
		`{"type":"fail-pus","node":1,"pus":[0,1]}`,
		`{"type":"fail-pus","node":0,"pus":[-1]}`,
		`{"type":"fail-pus","node":0,"pus":[99999999999]}`,
		`{"type":"add-node","preset":"nehalem-ep","slots":4,"name":"spare"}`,
		`{"type":"add-node","preset":"bogus"}`,
		`{"type":"bogus"}`,
		`{"type":"fail-node","node":99}`,
		`nonsense`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := e.Register("fuzz", base); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/clusters/fuzz/events", bytes.NewReader(body))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for body %q: %s", w.Code, body, w.Body.Bytes())
		}
	})
}

// FuzzPlaceReply holds appendPlaceResponse byte-equal to encoding/json
// writing the equivalent PlaceResponseJSON, over arbitrary maps, and so
// every reply served from a stored run's first np ranks. names is
// split on '|' into the node-name pool; shape is read as a stream, one
// control byte per placement (its name, and whether PUs is nil, empty or
// 1-4 long) followed by zigzag varints for rank, node and each PU.
func FuzzPlaceReply(f *testing.F) {
	f.Add("part", uint64(1), false, 1, "node0|node1", []byte{0x20, 0, 0, 0, 0x21, 2, 2, 4})
	f.Add(`a"b\c<d>e&f`, uint64(math.MaxUint64), true, -3, "<x>|&amp;|\"q\"|back\\slash",
		[]byte{0x00, 1, 1, 0x11, 3, 5, 0x52, 0x7f, 0x80, 0x01, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 6, 8})
	f.Add("\x00\x01\x1f\x7f", uint64(math.MaxUint64-1), false, math.MaxInt, " | |\xff\xfe|é|日本|\t\n\r\b\f",
		[]byte{0x30, 1, 1, 1, 0x41, 3, 3, 3, 3, 0x12, 5, 5, 0x23, 7, 7, 9, 0x04, 9, 9})
	f.Add("", uint64(0), true, math.MinInt, "", []byte{})
	f.Fuzz(func(t *testing.T, clusterName string, epoch uint64, cached bool, sweeps int, names string, shape []byte) {
		m := fuzzMap(sweeps, strings.Split(names, "|"), shape)
		got := appendPlaceResponse(nil, clusterName, epoch, cached, m)
		want := encodeOracle(t, wireResponse(clusterName, epoch, cached, m))
		if !bytes.Equal(got, want) {
			t.Fatalf("appendPlaceResponse:\n%q\nencoding/json:\n%q", got, want)
		}
		ent := newEntry(cacheKey{cluster: clusterName}, m)
		for np := 1; np <= m.NumRanks(); np++ {
			resp := &Response{Map: m.Prefix(np), Epoch: epoch, Cached: cached, entry: ent}
			got := replyOf(clusterName, resp)
			if want := appendPlaceResponse(nil, clusterName, epoch, cached, &resp.Map); !bytes.Equal(got, want) {
				t.Fatalf("np %d served from a run of %d:\n%q\nfull encoder:\n%q", np, m.NumRanks(), got, want)
			}
		}
	})
}

// fuzzMap decodes FuzzPlaceReply's shape stream into a map of at most 64
// placements.
func fuzzMap(sweeps int, names []string, shape []byte) *core.Map {
	next := func() int {
		v, n := binary.Varint(shape)
		if n <= 0 {
			shape = nil
			return 0
		}
		shape = shape[n:]
		return int(v)
	}
	m := &core.Map{Sweeps: sweeps}
	for len(shape) > 0 && len(m.Placements) < 64 {
		c := shape[0]
		shape = shape[1:]
		p := core.Placement{Rank: next(), Node: next(), NodeName: names[int(c&0x0f)%len(names)]}
		switch k := int(c>>4) % 6; k {
		case 0: // nil PUs encode as null
		case 1:
			p.PUs = []int{}
		default:
			p.PUs = make([]int, k-1)
			for j := range p.PUs {
				p.PUs[j] = next()
			}
		}
		m.Placements = append(m.Placements, p)
	}
	return m
}
