package core

import (
	"fmt"
	"math"
	"testing"

	"coolopt/internal/mathx"
	"coolopt/internal/units"
)

// testProfile returns a 6-machine heterogeneous profile with a realistic
// bottom-cool / top-warm gradient. Constants are chosen so the temperature
// constraint binds inside the actuation range at moderate-to-high loads.
func testProfile() *Profile {
	return &Profile{
		W1:         50,
		W2:         35,
		CoolFactor: 70,
		SetPointC:  30,
		TMaxC:      58,
		TAcMinC:    8,
		TAcMaxC:    25,
		Machines: []MachineProfile{
			{Alpha: 0.96, Beta: 0.44, Gamma: 1.2},
			{Alpha: 0.93, Beta: 0.45, Gamma: 2.1},
			{Alpha: 0.90, Beta: 0.45, Gamma: 3.0},
			{Alpha: 0.87, Beta: 0.46, Gamma: 3.9},
			{Alpha: 0.83, Beta: 0.47, Gamma: 5.1},
			{Alpha: 0.80, Beta: 0.48, Gamma: 6.0},
		},
	}
}

func TestProfileValidate(t *testing.T) {
	if err := testProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{name: "w1", mutate: func(p *Profile) { p.W1 = 0 }},
		{name: "w2", mutate: func(p *Profile) { p.W2 = -1 }},
		{name: "cool factor", mutate: func(p *Profile) { p.CoolFactor = 0 }},
		{name: "bounds", mutate: func(p *Profile) { p.TAcMinC, p.TAcMaxC = 25, 8 }},
		{name: "no machines", mutate: func(p *Profile) { p.Machines = nil }},
		{name: "bad alpha", mutate: func(p *Profile) { p.Machines[2].Alpha = 0 }},
		{name: "bad beta", mutate: func(p *Profile) { p.Machines[2].Beta = -1 }},
		{name: "infeasible K", mutate: func(p *Profile) { p.Machines[0].Gamma = 100 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := testProfile()
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatal("invalid profile accepted")
			}
		})
	}
}

// TestProfileRejectsNonFiniteConstants feeds each room constant NaN and
// ±Inf: Validate, NewSnapshot and NewPodSnapshot must all refuse every
// one, since comparisons such as CoolFactor <= 0 are false on NaN.
func TestProfileRejectsNonFiniteConstants(t *testing.T) {
	fields := []struct {
		name string
		at   func(*Profile) *float64
	}{
		{"W1", func(p *Profile) *float64 { return &p.W1 }},
		{"W2", func(p *Profile) *float64 { return &p.W2 }},
		{"CoolFactor", func(p *Profile) *float64 { return &p.CoolFactor }},
		{"SetPointC", func(p *Profile) *float64 { return &p.SetPointC }},
		{"TMaxC", func(p *Profile) *float64 { return &p.TMaxC }},
		{"TAcMinC", func(p *Profile) *float64 { return &p.TAcMinC }},
		{"TAcMaxC", func(p *Profile) *float64 { return &p.TAcMaxC }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := testProfile()
			*f.at(p) = v
			label := fmt.Sprintf("%s = %v", f.name, v)
			if err := p.Validate(); err == nil {
				t.Errorf("%s: Validate accepted", label)
			}
			if _, err := NewSnapshot(p, 0); err == nil {
				t.Errorf("%s: NewSnapshot accepted", label)
			}
			if _, err := NewPodSnapshot(p, 0, WithPodCount(2)); err == nil {
				t.Errorf("%s: NewPodSnapshot accepted", label)
			}
		}
	}
}

func TestKMatchesDefinition(t *testing.T) {
	p := testProfile()
	for i := range p.Machines {
		m := p.Machines[i]
		want := (p.TMaxC - m.Beta*p.W2 - m.Gamma) / (m.Beta * p.W1)
		if got := p.K(i); !mathx.ApproxEqual(got, want, 1e-12) {
			t.Fatalf("K(%d) = %v, want %v", i, got, want)
		}
		// K_i is the load at which T_cpu = T_max when T_ac = 0 °C.
		if temp := float64(p.CPUTemp(i, p.K(i), 0)); !mathx.ApproxEqual(temp, p.TMaxC, 1e-9) {
			t.Fatalf("CPUTemp(%d, K, 0) = %v, want T_max %v", i, temp, p.TMaxC)
		}
	}
}

func TestCoolerMachinesHaveLargerK(t *testing.T) {
	// Machine 0 (bottom, coolest) must support more load than machine 5
	// (top, warmest).
	p := testProfile()
	if p.K(0) <= p.K(5) {
		t.Fatalf("K(0) = %v ≤ K(5) = %v", p.K(0), p.K(5))
	}
}

func TestServerPower(t *testing.T) {
	p := testProfile()
	if got := p.ServerPower(0); got != 35 {
		t.Fatalf("idle power = %v, want 35", got)
	}
	if got := p.ServerPower(1); got != 85 {
		t.Fatalf("full power = %v, want 85", got)
	}
}

func TestCoolingPower(t *testing.T) {
	p := testProfile()
	if got := float64(p.CoolingPower(20)); !mathx.ApproxEqual(got, 70*10, 1e-12) {
		t.Fatalf("CoolingPower(20) = %v, want 700", got)
	}
	if got := p.CoolingPower(35); got != 0 {
		t.Fatalf("CoolingPower above set point = %v, want 0", got)
	}
}

func TestCPUTempAffine(t *testing.T) {
	p := testProfile()
	m := p.Machines[1]
	load, tAc := 0.6, 18.0
	want := m.Alpha*tAc + m.Beta*(p.W1*load+p.W2) + m.Gamma
	if got := float64(p.CPUTemp(1, load, units.Celsius(tAc))); !mathx.ApproxEqual(got, want, 1e-12) {
		t.Fatalf("CPUTemp = %v, want %v", got, want)
	}
}

func TestMaxSafeTAc(t *testing.T) {
	p := testProfile()
	on := []int{0, 1, 2, 3, 4, 5}
	loads := []float64{1, 1, 1, 1, 1, 1}
	got, err := p.MaxSafeTAc(on, loads)
	if err != nil {
		t.Fatalf("MaxSafeTAc: %v", err)
	}
	// At the returned temperature every machine is at or below T_max and
	// at least one machine is exactly at T_max (otherwise it wasn't max).
	atLimit := false
	for _, i := range on {
		temp := float64(p.CPUTemp(i, loads[i], got))
		if temp > p.TMaxC+1e-9 {
			t.Fatalf("machine %d at %v exceeds T_max", i, temp)
		}
		if mathx.ApproxEqual(temp, p.TMaxC, 1e-9) {
			atLimit = true
		}
	}
	if !atLimit && float64(got) < p.TAcMaxC {
		t.Fatal("MaxSafeTAc left headroom without hitting the actuation bound")
	}
}

func TestMaxSafeTAcEmptyOnSet(t *testing.T) {
	p := testProfile()
	got, err := p.MaxSafeTAc(nil, make([]float64, p.Size()))
	if err != nil {
		t.Fatalf("MaxSafeTAc: %v", err)
	}
	if float64(got) != p.TAcMaxC {
		t.Fatalf("empty on set safe T_ac = %v, want max %v", got, p.TAcMaxC)
	}
}

func TestMaxSafeTAcErrors(t *testing.T) {
	p := testProfile()
	if _, err := p.MaxSafeTAc([]int{0}, []float64{1}); err == nil {
		t.Fatal("short loads accepted")
	}
	if _, err := p.MaxSafeTAc([]int{99}, make([]float64, p.Size())); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	// A machine that cannot be kept under T_max even at the coldest
	// supply must surface an error.
	hot := testProfile()
	hot.TAcMinC = 24.9
	loads := []float64{1, 1, 1, 1, 1, 1}
	if _, err := hot.MaxSafeTAc([]int{5}, loads); err == nil {
		t.Fatal("unreachable safe temperature accepted")
	}
}
