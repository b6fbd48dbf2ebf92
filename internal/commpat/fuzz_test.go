package commpat

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseMatrix drives arbitrary text through ParseMatrix, the ingest
// path from a traffic file to Builder.Build. Text it accepts must give a
// well-formed matrix: every row holds strictly ascending peers, none of
// them the row's own rank, and no entry without bytes in either
// direction; Each yields NNZ pairs in (row, col) order, each the bytes
// Bytes reports; and FormatMatrix's text parses back to itself.
func FuzzParseMatrix(f *testing.F) {
	dup, err := os.ReadFile(filepath.Join("testdata", "dup_edges.txt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(dup))
	f.Add("ranks 3\n0 1 100\n1 2 100\n2 0 100\n2 0 50\n")
	f.Add("ranks 7\n0 1 5\n2 1 3\n1 2 0.25\n6 0 1e9\n6 0 7\n")
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseMatrix(text)
		if err != nil {
			return
		}
		outs := 0
		for r := 0; r < m.Ranks(); r++ {
			peers, out, in := m.Row(r)
			if len(out) != len(peers) || len(in) != len(peers) {
				t.Fatalf("row %d: %d peers, %d out, %d in", r, len(peers), len(out), len(in))
			}
			for k, p := range peers {
				if p < 0 || int(p) >= m.Ranks() || int(p) == r || (k > 0 && p <= peers[k-1]) {
					t.Fatalf("row %d: peers %v", r, peers)
				}
				if out[k] == 0 && in[k] == 0 {
					t.Fatalf("row %d peer %d: no bytes either way", r, p)
				}
				if out[k] != 0 {
					outs++
				}
			}
		}
		pairs, last := 0, [2]int{0, -1}
		m.Each(func(i, j int, bytes float64) {
			if i < last[0] || (i == last[0] && j <= last[1]) {
				t.Fatalf("pair (%d,%d) after %v", i, j, last)
			}
			if math.Float64bits(bytes) != math.Float64bits(m.Bytes(i, j)) {
				t.Fatalf("pair (%d,%d): Each %v, Bytes %v", i, j, bytes, m.Bytes(i, j))
			}
			last = [2]int{i, j}
			pairs++
		})
		if pairs != m.NNZ() || outs != m.NNZ() {
			t.Fatalf("Each yields %d pairs, rows hold %d out entries, NNZ %d", pairs, outs, m.NNZ())
		}
		formatted := FormatMatrix(m)
		back, err := ParseMatrix(formatted)
		if err != nil {
			t.Fatalf("formatted text does not parse: %v\n%s", err, formatted)
		}
		if again := FormatMatrix(back); again != formatted {
			t.Fatalf("round trip changed the text:\n%s\nwant\n%s", again, formatted)
		}
	})
}
