package experiment

import (
	"testing"

	"tesla/internal/control"
	"tesla/internal/workload"
)

func mustTESLA(t *testing.T, art *Artifacts) *control.TESLA {
	t.Helper()
	p, err := art.NewPolicy("tesla", 5)
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := p.(*control.TESLA)
	if !ok {
		t.Fatalf("tesla policy is %T", p)
	}
	return ts
}

// teslaRunWithSwap drives the golden scenario, and at evaluation step k
// snapshots the TESLA controller and swaps in a freshly constructed one
// restored from the blob (k < 0 never swaps). Returns the executed set-points.
func teslaRunWithSwap(t *testing.T, k int) []float64 {
	t.Helper()
	art := sharedArtifacts(t)
	pol := mustTESLA(t, art)
	rc := DefaultRunConfig(pol, workload.Medium, 5)
	rc.WarmupS = 3600
	rc.EvalS = 3600

	tb, err := rc.newTestbed()
	if err != nil {
		t.Fatal(err)
	}
	l, evalSteps, err := rc.warmLoop(tb)
	if err != nil {
		t.Fatal(err)
	}
	sps := make([]float64, 0, evalSteps)
	for i := 0; i < evalSteps; i++ {
		if i == k {
			blob, err := pol.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot at step %d: %v", i, err)
			}
			pol = mustTESLA(t, art)
			if err := pol.Restore(blob); err != nil {
				t.Fatalf("Restore at step %d: %v", i, err)
			}
			l.Policy = pol
		}
		sp, _, err := l.Step()
		if err != nil {
			t.Fatal(err)
		}
		sps = append(sps, sp)
	}
	return sps
}

// TestTESLASnapshotContinuation is the controller-level bit-identity check:
// a TESLA rebuilt from its snapshot mid-run — error-monitor windows and RNG,
// smoothing buffer, pending maturations, BO seed counter — must finish the
// run with exactly the set-points the uninterrupted controller produces.
// Swap points cover the pre-maturation phase (the monitor is still empty),
// the first matured windows, and the late run.
func TestTESLASnapshotContinuation(t *testing.T) {
	ref := teslaRunWithSwap(t, -1)
	for _, k := range []int{3, 17, 41} {
		got := teslaRunWithSwap(t, k)
		if len(got) != len(ref) {
			t.Fatalf("k=%d: %d steps, want %d", k, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("k=%d: set-point at step %d diverged after restore: %.17g != %.17g",
					k, i, got[i], ref[i])
			}
		}
	}
}
