package core

import (
	"testing"

	"lama/internal/hw"
)

func TestParseLayoutValid(t *testing.T) {
	cases := map[string][]hw.Level{
		"scbnh":  {hw.LevelSocket, hw.LevelCore, hw.LevelBoard, hw.LevelMachine, hw.LevelPU},
		"n":      {hw.LevelMachine},
		"Nn":     {hw.LevelNUMA, hw.LevelMachine},
		"L1L2L3": {hw.LevelL1, hw.LevelL2, hw.LevelL3},
		"hL2cn":  {hw.LevelPU, hw.LevelL2, hw.LevelCore, hw.LevelMachine},
	}
	for text, want := range cases {
		l, err := ParseLayout(text)
		if err != nil {
			t.Fatalf("ParseLayout(%q): %v", text, err)
		}
		got := l.Levels()
		if len(got) != len(want) {
			t.Fatalf("ParseLayout(%q) = %v", text, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ParseLayout(%q)[%d] = %s, want %s", text, i, got[i], want[i])
			}
		}
		if l.String() != text {
			t.Errorf("String round trip %q -> %q", text, l.String())
		}
	}
}

func TestParseLayoutInvalid(t *testing.T) {
	for _, text := range []string{"", "x", "ss", "L", "L4", "nn", "scbnhs", "S", "l1"} {
		if _, err := ParseLayout(text); err == nil {
			t.Errorf("ParseLayout(%q) should fail", text)
		}
	}
}

func TestMustParseLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MustParseLayout("zz")
}

func TestNewLayout(t *testing.T) {
	l, err := NewLayout(hw.LevelCore, hw.LevelMachine)
	if err != nil || l.String() != "cn" {
		t.Fatalf("NewLayout: %v %q", err, l.String())
	}
	if _, err := NewLayout(); err == nil {
		t.Fatal("empty NewLayout should fail")
	}
	if _, err := NewLayout(hw.LevelCore, hw.LevelCore); err == nil {
		t.Fatal("duplicate NewLayout should fail")
	}
	if _, err := NewLayout(hw.Level(99)); err == nil {
		t.Fatal("invalid level should fail")
	}
}

func TestLayoutQueries(t *testing.T) {
	l := MustParseLayout("scbnh")
	if !l.Contains(hw.LevelSocket) || l.Contains(hw.LevelNUMA) {
		t.Fatal("Contains wrong")
	}
	if l.Len() != 5 {
		t.Fatal("Len wrong")
	}
	intra := l.IntraNode()
	want := []hw.Level{hw.LevelBoard, hw.LevelSocket, hw.LevelCore, hw.LevelPU}
	if len(intra) != len(want) {
		t.Fatalf("IntraNode = %v", intra)
	}
	for i := range want {
		if intra[i] != want[i] {
			t.Fatalf("IntraNode[%d] = %s, want %s (canonical order)", i, intra[i], want[i])
		}
	}
	if intra := MustParseLayout("n").IntraNode(); len(intra) != 0 {
		t.Fatalf("node-only layout has intra levels %v", intra)
	}
}
