// Package deadcode is the deadcode fixture: exported identifiers nothing
// reaches (findings), and the ways an identifier stays alive (no finding).
package deadcode

import "fmt"

// Unused is an exported function nothing calls.
func Unused() {} // want `deadcode\.Unused is exported but no non-test code`

// OnlyFromDead is called only by Unreached, which is dead itself.
func OnlyFromDead() int { return 1 } // want `deadcode\.OnlyFromDead is exported but no non-test code`

// Unreached is dead, so its call keeps nothing alive.
func Unreached() int { return OnlyFromDead() } // want `deadcode\.Unreached is exported but no non-test code`

// Orphan is an exported type nothing names.
type Orphan struct{} // want `deadcode\.Orphan is exported but no non-test code`

// Limit is an exported constant nothing reads.
const Limit = 8 // want `deadcode\.Limit is exported but no non-test code`

// Square is reached from run, so it and its methods that run reaches live.
type Square struct{ side float64 }

// Area satisfies shape; run calls it only through the interface.
func (s Square) Area() float64 { return s.side * s.side }

// Perimeter is an exported method nothing calls.
func (s Square) Perimeter() float64 { return 4 * s.side } // want `\(lama/internal/analysis/testdata/src/deadcode\.Square\)\.Perimeter is exported but no non-test code`

// String satisfies fmt.Stringer.
func (s Square) String() string { return fmt.Sprint(s.side) }

type shape interface{ Area() float64 }

// Helper is referenced only by this package's own unexported code.
func Helper(s shape) float64 { return s.Area() }

func run() float64 { return Helper(Square{side: 2}) }

var _ = run

// External is called from another module.
//
//lama:api a separate module's client calls it
func External() {}

// Bare carries a marker without a reason.
//
//lama:api
func Bare() {} // want `//lama:api annotation requires a reason` `deadcode\.Bare is exported but no non-test code`
