package core

import (
	"encoding/json"
	"strings"
	"testing"

	"lama/internal/hw"
)

func TestMapJSONRoundTrip(t *testing.T) {
	c := fig2Cluster(t, 2)
	m := mustMap(t, c, "scbnh", Options{}, 24)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMap(data, c)
	if err != nil {
		t.Fatal(err)
	}
	if back.Layout.String() != "scbnh" || back.Sweeps != m.Sweeps {
		t.Fatalf("metadata lost: %+v", back)
	}
	for i := range m.Placements {
		a, b := &m.Placements[i], &back.Placements[i]
		if a.Node != b.Node || a.PU() != b.PU() || a.NodeName != b.NodeName {
			t.Fatalf("rank %d differs", i)
		}
		if a.Leaf != b.Leaf {
			t.Fatalf("rank %d leaf not re-resolved to the same object", i)
		}
		if m.Coords(i) != back.Coords(i) {
			t.Fatalf("rank %d coords %v, decoded %v", i, m.Coords(i), back.Coords(i))
		}
	}
}

func TestMapJSONOversubscribedRoundTrip(t *testing.T) {
	c := fig2Cluster(t, 1)
	m := mustMap(t, c, "scbnh", Options{Oversubscribe: true}, 15)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMap(data, c)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Oversubscribed() {
		t.Fatal("oversubscription flags lost")
	}
}

func TestDecodeMapErrors(t *testing.T) {
	c := fig2Cluster(t, 1)
	m := mustMap(t, c, "scbnh", Options{}, 2)
	good, _ := json.Marshal(m)

	cases := map[string]string{
		"not json":   "{",
		"bad layout": strings.Replace(string(good), `"layout":"scbnh"`, `"layout":"zz"`, 1),
		"bad node":   strings.Replace(string(good), `"node":0`, `"node":7`, 1),
		"bad level":  strings.Replace(string(good), `"leafLevel":"pu"`, `"leafLevel":"warp"`, 1),
		"bad coords": strings.Replace(string(good), `"s":0`, `"Z":0`, 1),
		"coords off": strings.Replace(string(good), `"s":0`, `"s":1`, 1),
	}
	for name, text := range cases {
		if text == string(good) {
			t.Fatalf("%s: replacement did not apply", name)
		}
		if _, err := DecodeMap([]byte(text), c); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}

	// Leaf missing on a *different* cluster shape.
	small, _ := hw.Preset("bgp-node")
	other := fig2Cluster(t, 1)
	other.Nodes[0].Topo = hw.New(small)
	if _, err := DecodeMap(good, other); err == nil {
		t.Error("decode against mismatched cluster should fail")
	}
}
