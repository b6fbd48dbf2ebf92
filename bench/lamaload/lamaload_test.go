package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"lama/internal/cluster"
	"lama/internal/engine"
)

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclaredMetricsMatchCode keeps BENCHMARK.json and the code's metric
// lists in step.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, declared []metricDef, names, units []string) {
		if len(declared) != len(names) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(names), len(declared))
			return
		}
		for i, d := range declared {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range bj.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bj.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	var wls []string
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
	}
	for i, w := range workloads {
		if i >= len(wls) || wls[i] != w.name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %v", i, w.name, wls)
		}
	}
}

// TestEveryWorkloadEndToEnd runs each workload, traced, with a 1 s window
// against a real lamad: every declared metric is printed, finite and with
// its unit, and nothing fails.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts lamad")
	}
	work := t.TempDir()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(config{
				root: "../..", work: work, wl: wl, seed: 1,
				window: time.Second, warmup: 500 * time.Millisecond,
				trace: true, starts: 2, callers: 2,
			}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Verified == 0 {
				t.Fatalf("correct=%t failed=%d verified=%d failures=%v", res.Correct, res.Failed, res.Verified, res.Failures)
			}
			if v, _ := res.value("error_ratio"); v != 0 {
				t.Errorf("error_ratio = %g", v)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if !printed(lines, d) {
					t.Errorf("%s (%s) not printed", d.name, d.unit)
				}
			}
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the JSON summary: %v", err)
			}
			if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(perLayer) {
				t.Fatalf("summary %+v", last)
			}
			for _, d := range perLayer {
				m, ok := last.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("summary %s = %+v", d.name, m)
				}
			}
		})
	}
}

// printed reports whether a "name value unit" line with a finite value
// is among the output lines.
func printed(lines []string, d metricDef) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == d.name && f[2] == d.unit {
			var v float64
			if err := json.Unmarshal([]byte(f[1]), &v); err == nil && !math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// TestVerifierCatchesSwappedRank serves real placements in-process and
// checks that the oracle accepts them, then that it rejects the same
// reply with two ranks' placements swapped.
func TestVerifierCatchesSwappedRank(t *testing.T) {
	dc, part, err := site()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{})
	if err := eng.Register("dc", &engine.Snapshot{Clu: dc}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("part", &engine.Snapshot{Clu: part}); err != nil {
		t.Fatal(err)
	}
	orc := newOracle(snapshots{part: part, dc: []*cluster.Snapshot{dc}})
	for _, wl := range workloads {
		req := wl.request(1, 0)
		resp, err := eng.Place(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		reply := wireReply(&req, resp)
		body, err := json.Marshal(reply)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := orc.verify(&exchange{req: req, body: body}); err != nil {
			t.Fatalf("%s: served placement rejected: %v", wl.name, err)
		}
		p := reply.Placements
		last := len(p) - 1
		p[0].Node, p[last].Node = p[last].Node, p[0].Node
		p[0].NodeName, p[last].NodeName = p[last].NodeName, p[0].NodeName
		p[0].PUs, p[last].PUs = p[last].PUs, p[0].PUs
		if body, err = json.Marshal(reply); err != nil {
			t.Fatal(err)
		}
		if _, err := orc.verify(&exchange{req: req, body: body}); err == nil {
			t.Errorf("%s: verifier accepted a placement with ranks 0 and %d swapped", wl.name, last)
		}
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		if !bytes.Equal(wl.body(7, 42), wl.body(7, 42)) {
			t.Errorf("%s: same seed and index gave different requests", wl.name)
		}
		same := true
		for i := 0; i < 20; i++ {
			same = same && bytes.Equal(wl.body(1, i), wl.body(2, i))
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", wl.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}
