package faults

import (
	"testing"

	"coolopt/internal/core"
	"coolopt/internal/engine"
)

func burstProfile(n int) *core.Profile {
	machines := make([]core.MachineProfile, n)
	for i := range machines {
		h := float64(i) / float64(n)
		machines[i] = core.MachineProfile{Alpha: 1, Beta: 0.46 * (1 + 0.1*h), Gamma: 0.5 + 2.2*h}
	}
	return &core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}
}

func TestBurstShapes(t *testing.T) {
	const n = 64
	for _, f := range []int{1, 2, 8, 16, n} {
		for name, burst := range map[string][]int{
			"concentrated": ConcentratedBurst(n, f),
			"spread":       SpreadBurst(n, f),
		} {
			if len(burst) != f {
				t.Fatalf("%s(%d, %d): %d machines", name, n, f, len(burst))
			}
			seen := make(map[int]bool, f)
			for _, id := range burst {
				if id < 0 || id >= n {
					t.Fatalf("%s(%d, %d): machine %d outside the room", name, n, f, id)
				}
				if seen[id] {
					t.Fatalf("%s(%d, %d): duplicate machine %d", name, n, f, id)
				}
				seen[id] = true
			}
		}
	}
	// Concentrated lands contiguously; spread never does (for f ≥ 2
	// well below n).
	conc := ConcentratedBurst(64, 8)
	for i := 1; i < len(conc); i++ {
		if conc[i] != conc[i-1]+1 {
			t.Fatalf("concentrated burst not contiguous: %v", conc)
		}
	}
	spread := SpreadBurst(64, 8)
	for i := 1; i < len(spread); i++ {
		if spread[i] == spread[i-1]+1 {
			t.Fatalf("spread burst has adjacent machines: %v", spread)
		}
	}
	// Oversized bursts clamp to the room.
	if got := len(ConcentratedBurst(8, 100)); got != 8 {
		t.Fatalf("oversized concentrated burst: %d machines", got)
	}
}

func TestSlowInstallGatesEngine(t *testing.T) {
	pods, err := core.NewPodSnapshot(burstProfile(32), 0, core.WithPodCount(4))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.FromPodSnapshot(pods)
	if err != nil {
		t.Fatal(err)
	}
	release := SlowInstall(e)
	if ready, _ := e.Ready(); ready {
		t.Fatal("engine ready while the slow install holds the gate")
	}
	release()
	release() // idempotent
	if ready, _ := e.Ready(); !ready {
		t.Fatal("engine not ready after release")
	}
}
