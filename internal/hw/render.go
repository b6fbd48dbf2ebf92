package hw

import (
	"fmt"
	"strings"
)

// RenderTree prints the topology as an indented ASCII tree, in the style
// of hwloc's lstopo text output. Width-1 cache levels are compressed onto
// their parent line to keep deep trees readable; unavailable objects are
// marked.
//
//	machine#0
//	  board#0
//	    socket#0 numa#0 l3#0
//	      core#0 (pus 0,8)
//	      core#1 (pus 1,9) [offline]
func (t *Topology) RenderTree() string {
	var sb strings.Builder
	var walk func(o *Object, depth int, prefix string)
	walk = func(o *Object, depth int, prefix string) {
		label := prefix + o.String()
		if !o.Available {
			label += " [offline]"
		}
		// Compress chains of single-child interior levels onto one line.
		for o.Level < LevelCore && len(o.Children) == 1 {
			o = o.Children[0]
			label += " " + o.String()
			if !o.Available {
				label += " [offline]"
			}
		}
		if o.Level == LevelCore {
			fmt.Fprintf(&sb, "%s%s (pus %s)", strings.Repeat("  ", depth), label, o.PUSet())
			usable := &CPUSet{}
			usable.SetPUs(t.UsableUnder(o))
			if !usable.Equal(o.PUSet()) {
				fmt.Fprintf(&sb, " [usable %s]", usable)
			}
			sb.WriteByte('\n')
			return
		}
		fmt.Fprintf(&sb, "%s%s\n", strings.Repeat("  ", depth), label)
		if o.Level == LevelPU {
			return
		}
		for _, c := range o.Children {
			walk(c, depth+1, "")
		}
	}
	walk(t.Root, 0, "")
	return sb.String()
}
