package roomapi

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"coolopt/internal/core"
	"coolopt/internal/engine"
	"coolopt/internal/sim"
)

// newServingServer backs the planning endpoints with an engine over a
// small synthetic snapshot — the simulated room only serves the control
// plane, so the planning model does not need to match it.
func newServingServer(t *testing.T) *httptest.Server {
	t.Helper()
	room, err := sim.NewDefault(1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	machines := make([]core.MachineProfile, n)
	for i := range machines {
		h := float64(i) / float64(n)
		machines[i] = core.MachineProfile{Alpha: 1, Beta: 0.46 * (1 + 0.1*h), Gamma: 0.5 + 2.2*h}
	}
	snap, err := core.NewSnapshot(&core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}, 0, core.WithMaxMachines(n))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(room, WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestPlanEndpoint(t *testing.T) {
	ts := newServingServer(t)
	var plan PlanResult
	if code := getJSON(t, ts.URL+"/v1/plan?load=3", &plan); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(plan.On) == 0 || plan.TAcC <= 0 {
		t.Fatalf("empty plan: %+v", plan)
	}
	if plan.Method != 8 {
		t.Fatalf("method defaulted to %d, want 8", plan.Method)
	}
	if plan.Cached || plan.Shared {
		t.Fatalf("first query claims reuse: %+v", plan)
	}
	var again PlanResult
	if code := getJSON(t, ts.URL+"/v1/plan?load=3", &again); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !again.Cached {
		t.Fatal("identical query not served from the plan cache")
	}
}

func TestPlanEndpointDegraded(t *testing.T) {
	ts := newServingServer(t)
	var plan PlanResult
	if code := getJSON(t, ts.URL+"/v1/plan?load=2&avoid=0,3", &plan); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !plan.Degraded {
		t.Fatalf("avoid-list plan not marked degraded: %+v", plan)
	}
	for _, id := range plan.On {
		if id == 0 || id == 3 {
			t.Fatalf("failed machine %d powered on", id)
		}
	}
}

func TestPlanEndpointSafeMode(t *testing.T) {
	ts := newServingServer(t)
	var plan PlanResult
	url := ts.URL + "/v1/plan?load=50&safe=true&supply=20&margin=2"
	if code := getJSON(t, url, &plan); code != 200 {
		t.Fatalf("status %d", code)
	}
	if plan.ShedLoad <= 0 || plan.Capacity <= 0 {
		t.Fatalf("oversized safe-mode demand did not shed: %+v", plan)
	}
	if len(plan.On) != 8 {
		t.Fatalf("safe mode consolidated: %d machines on", len(plan.On))
	}
}

func TestPlanEndpointErrors(t *testing.T) {
	ts := newServingServer(t)
	for _, bad := range []string{
		"/v1/plan?load=abc",
		"/v1/plan?load=3&method=x",
		"/v1/plan?load=3&avoid=1,zap",
		"/v1/plan?load=3&supply=hot",
		"/v1/plan?load=3&margin=wide",
		"/v1/consolidate?load=abc",
		"/v1/consolidate?load=3&mink=x",
		"/v1/maxload?budget=abc",
	} {
		if code := getJSON(t, ts.URL+bad, nil); code != 400 {
			t.Errorf("GET %s: status %d, want 400", bad, code)
		}
	}
	// An infeasible demand is well-formed but unanswerable.
	if code := getJSON(t, ts.URL+"/v1/plan?load=1000", nil); code != 422 {
		t.Errorf("infeasible load: status %d, want 422", code)
	}
}

func TestPlanEndpointsWithoutEngine(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/v1/plan?load=1", "/v1/consolidate?load=1", "/v1/maxload?budget=100"} {
		if code := getJSON(t, ts.URL+path, nil); code != 501 {
			t.Errorf("GET %s without engine: status %d, want 501", path, code)
		}
	}
}

// newHierServingServer backs the planning endpoints with a pod engine
// over the same synthetic room shape as newServingServer.
func newHierServingServer(t *testing.T) *httptest.Server {
	t.Helper()
	room, err := sim.NewDefault(1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	machines := make([]core.MachineProfile, n)
	for i := range machines {
		h := float64(i) / float64(n)
		machines[i] = core.MachineProfile{Alpha: 1, Beta: 0.46 * (1 + 0.1*h), Gamma: 0.5 + 2.2*h}
	}
	p := &core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}
	pods, err := core.NewPodSnapshot(p, 0, core.WithPodCount(4))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.FromPodSnapshot(pods)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(room, WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestPlanEndpointServesInstalledTables: /v1/plan answers from whichever
// model the engine holds — a pod engine marks its consolidating and
// degraded answers hierarchical, a whole-room engine never does.
func TestPlanEndpointServesInstalledTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   *httptest.Server
		hier bool
	}{{"pod", newHierServingServer(t), true}, {"whole-room", newServingServer(t), false}} {
		for _, query := range []string{"load=3", "load=3&avoid=2,5"} {
			var plan PlanResult
			if code := getJSON(t, tc.ts.URL+"/v1/plan?"+query, &plan); code != 200 {
				t.Fatalf("%s %s: status %d", tc.name, query, code)
			}
			if plan.Hierarchical != tc.hier {
				t.Fatalf("%s %s: hierarchical=%t, want %t", tc.name, query, plan.Hierarchical, tc.hier)
			}
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newHierServingServer(t)
	var st engine.Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.Machines != 8 || st.Pods != 4 || st.CacheCapacity <= 0 {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("fresh server reports traffic: %+v", st)
	}
	getJSON(t, ts.URL+"/v1/plan?load=3", nil)
	getJSON(t, ts.URL+"/v1/plan?load=3", nil)
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 || st.CacheEntries != 1 {
		t.Fatalf("after one repeated query: %+v", st)
	}
	if code := getJSON(t, newTestServer(t).URL+"/v1/stats", nil); code != 501 {
		t.Fatalf("stats without engine: status %d, want 501", code)
	}
}

func TestConsolidateAndMaxLoadEndpoints(t *testing.T) {
	ts := newServingServer(t)
	var sel ConsolidateResult
	if code := getJSON(t, ts.URL+"/v1/consolidate?load=4&mink=5", &sel); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(sel.Subset) < 5 {
		t.Fatalf("mink=5 ignored: %+v", sel)
	}
	var ml MaxLoadResult
	budget := fmt.Sprintf("%d", 8*(52+34)+150*21)
	if code := getJSON(t, ts.URL+"/v1/maxload?budget="+budget, &ml); code != 200 {
		t.Fatalf("status %d", code)
	}
	if ml.Load <= 0 || len(ml.Subset) == 0 {
		t.Fatalf("generous budget unanswered: %+v", ml)
	}
}
