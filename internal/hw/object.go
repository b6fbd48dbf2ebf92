package hw

import "fmt"

// Object is a node in a hardware topology tree: one machine, board, socket,
// NUMA domain, cache, core, or PU instance.
type Object struct {
	// Level is the resource level of this object.
	Level Level
	// Logical is the machine-wide logical index of the object among all
	// objects of the same level (0-based, depth-first preorder, so the
	// PUs under any object have consecutive indices). Logical indices are
	// what mapping algorithms and users reason about.
	Logical int
	// Rank is the object's index within its parent's Children slice.
	Rank int
	// OS is the "physical" operating-system index. Only meaningful for
	// PUs, where it is the index used in CPU sets; -1 elsewhere.
	OS int
	// Parent is the containing object (nil for the machine root).
	Parent *Object
	// Children are the contained objects, ordered by Rank.
	Children []*Object
	// Available reports whether the scheduler and OS allow mapping onto
	// this object. An object with Available == false is present in the
	// topology but must be skipped by mapping agents (paper §IV-A).
	// Availability is stored per-object; an unavailable interior object
	// makes its whole subtree unavailable (see Usable).
	Available bool
}

// String renders the object as e.g. "socket#2".
func (o *Object) String() string {
	if o == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s#%d", o.Level, o.Logical)
}

// Usable reports whether the object and all of its ancestors are available.
func (o *Object) Usable() bool {
	for x := o; x != nil; x = x.Parent {
		if !x.Available {
			return false
		}
	}
	return true
}

// Ancestor returns the ancestor of o at the given level (or o itself if
// o.Level == level). It returns nil if level is below o's level.
func (o *Object) Ancestor(level Level) *Object {
	for x := o; x != nil; x = x.Parent {
		if x.Level == level {
			return x
		}
	}
	return nil
}

// PUSet returns the set of OS indices of all PUs contained in o's subtree,
// regardless of availability. It is computed on every call and never
// stored in the tree, so readers of a topology shared by many nodes and
// goroutines do not race.
func (o *Object) PUSet() *CPUSet {
	s := &CPUSet{}
	o.addPUs(s)
	return s
}

// addPUs sets the OS index of every PU in o's subtree in s.
func (o *Object) addPUs(s *CPUSet) {
	if o.Level == LevelPU {
		s.Set(o.OS)
		return
	}
	for _, c := range o.Children {
		c.addPUs(s)
	}
}

// UsablePUs returns the PUs in o's subtree whose entire ancestor chain is
// available, in ascending logical order, by walking the tree. It is the
// reference that Topology.UsableUnder, the table every placement path
// reads, is checked against.
func (o *Object) UsablePUs() []*Object {
	var out []*Object
	var walk func(x *Object)
	walk = func(x *Object) {
		if !x.Available {
			return
		}
		if x.Level == LevelPU {
			out = append(out, x)
			return
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	// Ancestors of o must be available too.
	if !o.Usable() {
		return nil
	}
	walk(o)
	return out
}
