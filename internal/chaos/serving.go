package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"coolopt/internal/core"
	"coolopt/internal/engine"
	"coolopt/internal/faults"
	"coolopt/internal/roomapi"
	"coolopt/internal/sim"
)

// This file is the degraded-serving chaos scenario: a pod-only engine
// behind the HTTP surface, hammered with avoid= planning requests —
// concentrated and spread failure bursts, stale inventories, demand
// past survivor capacity — while the engine is overloaded (bounded
// in-flight) and a slow snapshot install holds the install gate. The
// scenario passes only if the serving contract holds everywhere: every
// response is 200, 400, or 503; every 503 carries Retry-After; every
// degraded 200 comes from the hierarchical path with the avoided
// machines off; /v1/readyz flips during the install and recovers; and
// no request ever hangs past its client timeout.

// ServingOptions tunes RunDegradedServing. Zero values pick the CI
// smoke size; paperbench -degraded-chaos raises N to the paper-scale
// room.
type ServingOptions struct {
	// N is the room size; Pods the pod count (defaults 64 and 4).
	N    int
	Pods int
	// Seed drives the simulated control-plane room (default 1).
	Seed int64
	// Clients and Requests shape the hammer: Clients concurrent
	// goroutines each issuing Requests planning queries (defaults 8, 32).
	Clients  int
	Requests int
	// MaxInFlight bounds concurrent computations in the engine; the
	// hammer is wider than this on purpose (default 2).
	MaxInFlight int
}

// ServingReport is the scenario's outcome. The invariant violations are
// returned as an error by RunDegradedServing; the report carries the
// counts for rendering.
type ServingReport struct {
	Total        int `json:"total"`
	OK           int `json:"ok"`
	BadRequest   int `json:"badRequest"`
	Unavailable  int `json:"unavailable"`
	Degraded     int `json:"degraded"`
	Hierarchical int `json:"hierarchical"`
	ShedLoad     int `json:"shedLoad"`
	InstallSheds int `json:"installSheds"`
}

func (r *ServingReport) String() string {
	return fmt.Sprintf("%d requests: %d ok (%d degraded, %d hierarchical, %d shed load), %d rejected 400, %d shed 503 (%d during install)",
		r.Total, r.OK, r.Degraded, r.Hierarchical, r.ShedLoad, r.BadRequest, r.Unavailable, r.InstallSheds)
}

// RunDegradedServing runs the scenario and returns the report, or an
// error describing the first serving-contract violation.
func RunDegradedServing(opt ServingOptions) (*ServingReport, error) {
	if opt.N == 0 {
		opt.N = 64
	}
	if opt.Pods == 0 {
		opt.Pods = 4
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Clients == 0 {
		opt.Clients = 8
	}
	if opt.Requests == 0 {
		opt.Requests = 32
	}
	if opt.MaxInFlight == 0 {
		opt.MaxInFlight = 2
	}

	// A pod engine over a synthetic profile: the configuration for rooms
	// past the whole-room table cap, where the degraded path must serve
	// cleanly without whole-room tables.
	machines := make([]core.MachineProfile, opt.N)
	for i := range machines {
		h := float64(i) / float64(opt.N)
		machines[i] = core.MachineProfile{Alpha: 1, Beta: 0.46 * (1 + 0.1*h), Gamma: 0.5 + 2.2*h}
	}
	profile := &core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}
	pods, err := core.NewPodSnapshot(profile, 0, core.WithPodCount(opt.Pods))
	if err != nil {
		return nil, err
	}
	eng, err := engine.FromPodSnapshot(pods, engine.WithMaxInFlight(opt.MaxInFlight))
	if err != nil {
		return nil, err
	}
	room, err := sim.NewDefault(opt.Seed)
	if err != nil {
		return nil, err
	}
	api, err := roomapi.NewServer(room, roomapi.WithEngine(eng),
		roomapi.WithRequestTimeout(5*time.Second))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()
	base := "http://" + ln.Addr().String()
	// The client timeout is the never-hangs backstop: any request the
	// server sits on past it fails the scenario.
	client := &http.Client{Timeout: 30 * time.Second}

	if err := expectReady(client, base, true); err != nil {
		return nil, fmt.Errorf("before hammer: %w", err)
	}

	rep := &ServingReport{}
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Phase A: concurrent avoid= hammer against the healthy engine. The
	// hammer is wider than the in-flight bound, so overload sheds are
	// expected alongside successes — both must honor the contract.
	maxF := opt.N / 8
	if maxF < 2 {
		maxF = 2
	}
	var wg sync.WaitGroup
	for g := 0; g < opt.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < opt.Requests; q++ {
				idx := g*opt.Requests + q
				outcome, err := oneDegradedQuery(client, base, opt.N, maxF, idx)
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				rep.Total++
				rep.OK += outcome.ok
				rep.BadRequest += outcome.bad
				rep.Unavailable += outcome.shed
				rep.Degraded += outcome.degraded
				rep.Hierarchical += outcome.hier
				rep.ShedLoad += outcome.shedLoad
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return rep, firstErr
	}

	// Phase B: a slow snapshot install holds the gate. Readiness must
	// flip, fresh misses must shed 503 + Retry-After, and a load cached
	// in phase A must keep serving from the cache.
	cachedLoad := fmt.Sprintf("%.4f", 0.4*float64(opt.N))
	if _, err := requireStatus(client, base+"/v1/plan?load="+cachedLoad, http.StatusOK, false); err != nil {
		return rep, fmt.Errorf("priming cache: %w", err)
	}
	release := faults.SlowInstall(eng)
	defer release()
	if err := expectReady(client, base, false); err != nil {
		return rep, fmt.Errorf("during install: %w", err)
	}
	for i := 0; i < 4; i++ {
		load := fmt.Sprintf("%.4f", 0.3*float64(opt.N)+float64(i)+0.123)
		if _, err := requireStatus(client, base+"/v1/plan?load="+load, http.StatusServiceUnavailable, true); err != nil {
			return rep, fmt.Errorf("install shed %d: %w", i, err)
		}
		rep.Total++
		rep.Unavailable++
		rep.InstallSheds++
	}
	body, err := requireStatus(client, base+"/v1/plan?load="+cachedLoad, http.StatusOK, false)
	if err != nil {
		return rep, fmt.Errorf("cached answer during install: %w", err)
	}
	var cached roomapi.PlanResult
	if err := json.Unmarshal(body, &cached); err != nil {
		return rep, err
	}
	if !cached.Cached {
		return rep, fmt.Errorf("install window answered a fresh computation instead of the cache")
	}
	rep.Total++
	rep.OK++
	release()
	if err := expectReady(client, base, true); err != nil {
		return rep, fmt.Errorf("after install: %w", err)
	}
	if _, err := requireStatus(client, base+"/v1/plan?load="+fmt.Sprintf("%.4f", 0.35*float64(opt.N)+0.321), http.StatusOK, false); err != nil {
		return rep, fmt.Errorf("after install: %w", err)
	}
	rep.Total++
	rep.OK++
	return rep, nil
}

// queryOutcome is one hammer request's classified result.
type queryOutcome struct {
	ok, bad, shed, degraded, hier, shedLoad int
}

// oneDegradedQuery issues one avoid= planning request and checks the
// serving contract on whatever came back.
func oneDegradedQuery(client *http.Client, base string, n, maxF, idx int) (*queryOutcome, error) {
	f := []int{1, 2, maxF / 2, maxF}[idx%4]
	if f < 1 {
		f = 1
	}
	var avoid []int
	if idx%2 == 0 {
		avoid = faults.ConcentratedBurst(n, f)
	} else {
		avoid = faults.SpreadBurst(n, f)
	}
	wantBad := idx%9 == 8
	if wantBad {
		avoid = append(append([]int(nil), avoid...), n+idx%3)
	}
	// Loads sweep the feasible range, with every 5th request pushed past
	// survivor capacity to exercise shedding.
	load := (0.25 + 0.5*float64(idx%17)/17) * float64(n-maxF)
	if idx%5 == 4 {
		load = float64(n-f) - 0.25
	}
	parts := make([]string, len(avoid))
	for i, id := range avoid {
		parts[i] = strconv.Itoa(id)
	}
	url := fmt.Sprintf("%s/v1/plan?load=%.4f&avoid=%s", base, load, strings.Join(parts, ","))
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("request %d hung or failed: %w", idx, err)
	}
	defer resp.Body.Close()

	out := &queryOutcome{}
	switch resp.StatusCode {
	case http.StatusOK:
		if wantBad {
			return nil, fmt.Errorf("request %d: invalid avoid answered 200", idx)
		}
		var plan roomapi.PlanResult
		if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
			return nil, err
		}
		if !plan.Degraded || !plan.Hierarchical {
			return nil, fmt.Errorf("request %d: degraded=%t hierarchical=%t, want both", idx, plan.Degraded, plan.Hierarchical)
		}
		blocked := make(map[int]bool, len(avoid))
		for _, id := range avoid {
			blocked[id] = true
		}
		for _, id := range plan.On {
			if blocked[id] {
				return nil, fmt.Errorf("request %d: avoided machine %d powered on", idx, id)
			}
		}
		out.ok, out.degraded, out.hier = 1, 1, 1
		if plan.ShedLoad > 0 {
			out.shedLoad = 1
		}
	case http.StatusBadRequest:
		if !wantBad {
			return nil, fmt.Errorf("request %d: valid avoid rejected 400", idx)
		}
		out.bad = 1
	case http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") == "" {
			return nil, fmt.Errorf("request %d: 503 without Retry-After", idx)
		}
		out.shed = 1
	default:
		return nil, fmt.Errorf("request %d: unexpected status %d", idx, resp.StatusCode)
	}
	return out, nil
}

// requireStatus asserts one GET's status (and Retry-After presence when
// the status is 503) and returns the body.
func requireStatus(client *http.Client, url string, want int, retryAfter bool) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("GET %s: status %d, want %d (%s)", url, resp.StatusCode, want, strings.TrimSpace(string(body)))
	}
	if retryAfter && resp.Header.Get("Retry-After") == "" {
		return nil, fmt.Errorf("GET %s: %d without Retry-After", url, want)
	}
	return body, nil
}

// expectReady asserts /v1/readyz agrees with want (503 + Retry-After
// when not ready).
func expectReady(client *http.Client, base string, want bool) error {
	resp, err := client.Get(base + "/v1/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ready roomapi.ReadyResult
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		return err
	}
	if want {
		if resp.StatusCode != http.StatusOK || !ready.Ready {
			return fmt.Errorf("readyz = %d ready=%t reason=%q, want ready", resp.StatusCode, ready.Ready, ready.Reason)
		}
		return nil
	}
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		return fmt.Errorf("readyz = %d ready=%t, want 503 not-ready", resp.StatusCode, ready.Ready)
	}
	if resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("not-ready readyz without Retry-After")
	}
	if ready.Reason == "" {
		return fmt.Errorf("not-ready readyz without a reason")
	}
	return nil
}
