package prediction

// Tests for the snapshot's stack budget: Export and Import accept the same
// snapshots, up to exactly stackSymbolsPerEntry stack symbols per stored
// frame or config.

import (
	"reflect"
	"testing"

	"costar/internal/machine"
)

// TestSnapshotStackBudget builds one state of n configs on the top of an
// n-frame chain of frames with empty Rest, so each config names n stack
// symbols, n² in all, against a budget of 64·2n. At n = 128 the snapshot
// sits exactly on the budget: Import accepts it and Export writes it back
// unchanged. At n = 129 it is past the budget: Import refuses the snapshot
// and Export refuses the same state built in a cache.
func TestSnapshotStackBudget(t *testing.T) {
	cg := fig2().Compiled()
	s, _ := cg.NTIDOf("S")
	for _, tc := range []struct {
		n  int
		ok bool
	}{{128, true}, {129, false}} {
		snap := CacheSnapshot{
			Frames: make([]FrameSnapshot, tc.n),
			States: []StateSnapshot{{Configs: make([]ConfigSnapshot, tc.n)}},
		}
		for i := range snap.Frames {
			snap.Frames[i] = FrameSnapshot{Lhs: s, Prod: -1, Below: int32(i - 1)}
		}
		for i := range snap.States[0].Configs {
			snap.States[0].Configs[i] = ConfigSnapshot{Alt: 0, Top: int32(tc.n - 1)}
		}
		c := NewCache()
		err := c.Import(cg, snap)
		if (err == nil) != tc.ok {
			t.Fatalf("n=%d: Import = %v, want accepted %v", tc.n, err, tc.ok)
		}
		if tc.ok {
			back, err := c.Export(cg)
			if err != nil {
				t.Fatalf("n=%d: Export of the imported cache: %v", tc.n, err)
			}
			if !reflect.DeepEqual(back, snap) {
				t.Fatalf("n=%d: Export after Import differs from the snapshot", tc.n)
			}
			continue
		}

		chain := make([]machine.SuffixStack, tc.n)
		for i := range chain {
			chain[i].F = machine.SuffixFrame{Lhs: s}
			if i > 0 {
				chain[i].Below = &chain[i-1]
			}
		}
		cfgs := make([]config, tc.n)
		for i := range cfgs {
			cfgs[i] = config{alt: 0, stack: &chain[tc.n-1]}
		}
		var kb keyBuf
		h := keyHash(kb.build(false, cfgs))
		g := c.gen.Load()
		sh := g.shard(h)
		sh.file(h, sh.mem.newDFAState(cfgs, []int{0}, nil, false))
		g.nStates.Add(1)
		if _, err := c.Export(cg); err == nil {
			t.Fatalf("n=%d: Export wrote a snapshot Import refuses", tc.n)
		}
	}
}
