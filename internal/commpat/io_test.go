package commpat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseMatrix(t *testing.T) {
	text := `
# a tiny ring
ranks 3
0 1 100
1 2 100
2 0 100
2 0 50
`
	m, err := ParseMatrix(text)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ranks() != 3 || m.Total() != 350 {
		t.Fatalf("ranks=%d total=%v", m.Ranks(), m.Total())
	}
	if m.Bytes(2, 0) != 150 {
		t.Fatal("duplicate edges should accumulate")
	}
}

func TestParseMatrixErrors(t *testing.T) {
	for name, text := range map[string]string{
		"empty":          "",
		"no header":      "0 1 100",
		"bad header":     "ranks x",
		"zero ranks":     "ranks 0",
		"too many ranks": "ranks 1048577\n0 1 5",
		"short edge":     "ranks 2\n0 1",
		"bad numbers":    "ranks 2\na b c",
		"out of range":   "ranks 2\n0 5 10",
		"negative rank":  "ranks 2\n-1 0 10",
		"self traffic":   "ranks 2\n1 1 10",
		"zero bytes":     "ranks 2\n0 1 0",
		"negative bytes": "ranks 2\n0 1 -5",
		"NaN bytes":      "ranks 2\n0 1 NaN",
	} {
		if _, err := ParseMatrix(text); err == nil {
			t.Errorf("%s: ParseMatrix(%q) should fail", name, text)
		}
	}
}

func TestFormatMatrixRoundTrip(t *testing.T) {
	m := GTC(16, 1000)
	back, err := ParseMatrix(FormatMatrix(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.Ranks() != m.Ranks() || back.Total() != m.Total() {
		t.Fatal("round trip changed totals")
	}
	m.Each(func(i, j int, bytes float64) {
		if back.Bytes(i, j) != bytes {
			t.Fatalf("edge %d->%d changed", i, j)
		}
	})
}

func TestQuickMatrixRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		m := RandomPairs(n, 1+r.Intn(30), float64(1+r.Intn(1000)), seed)
		if m.Total() == 0 {
			return true
		}
		back, err := ParseMatrix(FormatMatrix(m))
		if err != nil {
			return false
		}
		ok := back.Ranks() == m.Ranks()
		m.Each(func(i, j int, bytes float64) {
			if back.Bytes(i, j) != bytes {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
