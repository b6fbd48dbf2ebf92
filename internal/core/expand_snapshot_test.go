package core

import (
	"context"
	"errors"
	"testing"

	"lama/internal/cluster"
)

// Boundary coverage for ShrinkMap: releasing nothing, releasing down to a
// single survivor, and releasing everything (np=0, which must be refused).

func TestShrinkMapNoOpRelease(t *testing.T) {
	c, m := remapSetup(t, 2, 4)
	out, rep, err := ShrinkMap(c, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRanks() != 4 || len(rep.Released) != 0 || rep.FreedPUs != 0 {
		t.Fatalf("empty release changed the map: ranks=%d released=%v freed=%d",
			out.NumRanks(), rep.Released, rep.FreedPUs)
	}
	for i := range m.Placements {
		if !samePlacement(m.Placements[i], out.Placements[i]) {
			t.Fatalf("rank %d moved on a no-op shrink", i)
		}
	}
}

func TestShrinkMapToOneRank(t *testing.T) {
	c, m := remapSetup(t, 2, 4)
	out, rep, err := ShrinkMap(c, m, []int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRanks() != 1 {
		t.Fatalf("ranks = %d, want 1", out.NumRanks())
	}
	// The sole survivor (old rank 1) keeps its processors and is
	// renumbered to rank 0.
	if out.Placements[0].Rank != 0 {
		t.Fatalf("survivor rank = %d, want 0", out.Placements[0].Rank)
	}
	surv := m.Placements[1]
	surv.Rank = 0
	if !samePlacement(surv, out.Placements[0]) {
		t.Fatal("survivor's placement changed")
	}
	if len(rep.Released) != 3 {
		t.Fatalf("released = %v", rep.Released)
	}
}

func TestShrinkMapToZeroRanksRefused(t *testing.T) {
	c, m := remapSetup(t, 2, 4)
	// Both the exact full set and a duplicated over-listing of it must be
	// refused: a job cannot shrink to np=0.
	if _, _, err := ShrinkMap(c, m, []int{0, 1, 2, 3}); err == nil {
		t.Fatal("shrink to np=0 must fail")
	}
	if _, _, err := ShrinkMap(c, m, []int{0, 0, 1, 1, 2, 3}); err == nil {
		t.Fatal("shrink to np=0 via duplicates must fail")
	}
}

// ExpandMapSnapshot: growing against a snapshot whose epoch advanced —
// before the grow or mid-grow — must fail with ErrStaleSnapshot rather
// than silently placing ranks on PUs another epoch may have reassigned.

func TestExpandMapSnapshotStaleBeforeGrow(t *testing.T) {
	c, m := remapSetup(t, 2, 4)
	snap := cluster.SnapshotOf(c)
	current := func() uint64 { return snap.Epoch() + 1 } // already swapped
	_, _, err := ExpandMapSnapshot(context.Background(), snap, current,
		m.Layout, Options{}, m, 2)
	if !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("err = %v, want ErrStaleSnapshot", err)
	}
}

func TestExpandMapSnapshotStaleMidGrow(t *testing.T) {
	c, m := remapSetup(t, 2, 4)
	snap := cluster.SnapshotOf(c)
	// The epoch source reports the planned epoch for the pre-check, then
	// advances: the swap landed while the incremental run was mapping.
	calls := 0
	current := func() uint64 {
		calls++
		if calls == 1 {
			return snap.Epoch()
		}
		return snap.Epoch() + 1
	}
	_, _, err := ExpandMapSnapshot(context.Background(), snap, current,
		m.Layout, Options{}, m, 2)
	if !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("err = %v, want ErrStaleSnapshot", err)
	}
	if calls < 2 {
		t.Fatalf("epoch re-verified %d times, want pre- and post-check", calls)
	}
}

func TestExpandMapSnapshotFresh(t *testing.T) {
	c, m := remapSetup(t, 2, 4)
	snap := cluster.SnapshotOf(c)
	out, rep, err := ExpandMapSnapshot(context.Background(), snap, snap.Epoch,
		m.Layout, Options{}, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRanks() != 6 || len(rep.Added) != 2 {
		t.Fatalf("grow: ranks=%d added=%v", out.NumRanks(), rep.Added)
	}
	// Existing placements are byte-identical; note the grow validates
	// against the snapshot's frozen cluster, not the live one.
	for i := range m.Placements {
		if !samePlacement(m.Placements[i], out.Placements[i]) {
			t.Fatalf("existing rank %d moved during grow", i)
		}
	}
}

// Cancellation semantics: a canceled context aborts mapping and traced
// runs at phase boundaries with the context's error (place.Sweep's own
// cancellation is tested in internal/place).

func TestMapContextCanceled(t *testing.T) {
	c, _ := remapSetup(t, 2, 4)
	mapper, err := NewMapper(c, MustParseLayout("csbnh"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mapper.MapContext(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("MapContext err = %v, want context.Canceled", err)
	}
	if _, _, err := mapper.MapTracedContext(ctx, 4, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("MapTracedContext err = %v, want context.Canceled", err)
	}
	// The mapper stays usable after a canceled run.
	if _, err := mapper.Map(4); err != nil {
		t.Fatalf("mapper unusable after cancellation: %v", err)
	}
}
