package commpat

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseMatrix reads a traffic matrix from edge-list text:
//
//	ranks <N>
//	<src> <dst> <bytes>
//	...
//
// Lines starting with '#' are comments; duplicate edges accumulate in file
// order. The "ranks" header must come first so the matrix can be sized
// even when high ranks have no traffic; it may name at most maxParseRanks.
func ParseMatrix(text string) (*Matrix, error) {
	var b *Builder
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if b == nil {
			if len(fields) != 2 || fields[0] != "ranks" {
				return nil, fmt.Errorf("commpat:%d: first line must be \"ranks <N>\"", lineNo+1)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("commpat:%d: bad rank count %q", lineNo+1, fields[1])
			}
			if n > maxParseRanks {
				return nil, fmt.Errorf("commpat:%d: %d ranks, above the limit of %d", lineNo+1, n, maxParseRanks)
			}
			b = NewBuilder(n)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("commpat:%d: want \"<src> <dst> <bytes>\", got %q", lineNo+1, line)
		}
		src, err1 := strconv.Atoi(fields[0])
		dst, err2 := strconv.Atoi(fields[1])
		bytes, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("commpat:%d: bad edge %q", lineNo+1, line)
		}
		if src < 0 || dst < 0 || src >= b.n || dst >= b.n {
			return nil, fmt.Errorf("commpat:%d: rank out of range in %q", lineNo+1, line)
		}
		if src == dst {
			return nil, fmt.Errorf("commpat:%d: self traffic in %q", lineNo+1, line)
		}
		if !(bytes > 0) { // NaN included
			return nil, fmt.Errorf("commpat:%d: non-positive bytes in %q", lineNo+1, line)
		}
		b.Add(src, dst, bytes)
	}
	if b == nil {
		return nil, fmt.Errorf("commpat: empty matrix text")
	}
	return b.Build(), nil
}

// maxParseRanks bounds a parsed header's rank count, the job size lamad
// accepts (engine.MaxNP): the matrix is sized from the header before any
// edge is read, so a short text must not ask for gigabytes.
const maxParseRanks = 1 << 20

// FormatMatrix renders a matrix in the ParseMatrix edge-list form, edges
// in (src, dst) order.
func FormatMatrix(m *Matrix) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ranks %d\n", m.Ranks())
	m.Each(func(i, j int, bytes float64) {
		fmt.Fprintf(&sb, "%d %d %s\n", i, j, strconv.FormatFloat(bytes, 'f', -1, 64))
	})
	return sb.String()
}
