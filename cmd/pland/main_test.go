package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"sync"
	"testing"
	"time"

	"coolopt/internal/roomapi"
)

// syncBuffer lets the test read run's output while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunFlagError(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-nope"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunServesHierarchical boots a pod-backed server and checks that
// plans come from the pod tables and the stats endpoint over the wire.
func TestRunServesHierarchical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-machines", "8", "-pods", "4", "-drain", "2s"}, &out)
	}()

	urlRe := regexp.MustCompile(`http://[0-9.:]+`)
	var base string
	deadline := time.Now().Add(60 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output:\n%s", out.String())
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		case <-time.After(50 * time.Millisecond):
		}
		base = urlRe.FindString(out.String())
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string, dst any) int {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if dst != nil && resp.StatusCode < 400 {
			if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var plan roomapi.PlanResult
	if code := get("/v1/plan?load=2", &plan); code != 200 {
		t.Fatalf("/v1/plan status %d", code)
	}
	if !plan.Hierarchical {
		t.Fatalf("-pods answer not hierarchical: %+v", plan)
	}
	var stats map[string]any
	if code := get("/v1/stats", &stats); code != 200 {
		t.Fatalf("/v1/stats status %d", code)
	}
	if pods, ok := stats["pods"].(float64); !ok || pods != 4 {
		t.Fatalf("stats pods = %v, want 4", stats["pods"])
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
}

// TestRunReprofilesUntilCanceled boots the server with the continuous
// re-profiler on a fast tick and checks that planning traffic and the
// sampling loop coexist: queries answer, the room stays consistent, and
// shutdown still drains (the re-profiler goroutine must stop too).
func TestRunReprofilesUntilCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-machines", "6", "-drain", "2s",
			"-reprofile", "10ms", "-reprofile-min-samples", "5",
		}, &out)
	}()

	urlRe := regexp.MustCompile(`http://[0-9.:]+`)
	var base string
	deadline := time.Now().Add(60 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output:\n%s", out.String())
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		case <-time.After(50 * time.Millisecond):
		}
		base = urlRe.FindString(out.String())
	}
	if !regexp.MustCompile(`continuous re-profiling every`).MatchString(out.String()) {
		t.Fatalf("re-profiler never announced; output:\n%s", out.String())
	}

	client := &http.Client{Timeout: 5 * time.Second}
	// Let the sampler tick a few times while planning queries ride along.
	for i := 0; i < 5; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/plan?load=2", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var plan roomapi.PlanResult
		if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || len(plan.On) == 0 {
			t.Fatalf("plan %d: status %d, %+v", i, resp.StatusCode, plan)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A room that still matches its own profile must not be patched: the
	// re-profiler's drift gate holds the line against sensor noise.
	if regexp.MustCompile(`re-profiled \d+ machines`).MatchString(out.String()) {
		t.Fatalf("undrifted room was patched; output:\n%s", out.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
}

func TestRunServesPlansUntilCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-machines", "6", "-drain", "2s"}, &out)
	}()

	urlRe := regexp.MustCompile(`http://[0-9.:]+`)
	var base string
	deadline := time.Now().Add(60 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output:\n%s", out.String())
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		case <-time.After(50 * time.Millisecond):
		}
		base = urlRe.FindString(out.String())
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string, dst any) int {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if dst != nil && resp.StatusCode < 400 {
			if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var plan roomapi.PlanResult
	if code := get("/v1/plan?load=2", &plan); code != 200 {
		t.Fatalf("/v1/plan status %d", code)
	}
	if len(plan.On) == 0 {
		t.Fatalf("empty plan: %+v", plan)
	}
	var info roomapi.RoomInfo
	if code := get("/v1/room", &info); code != 200 {
		t.Fatalf("/v1/room status %d", code)
	}
	if info.Machines != 6 {
		t.Fatalf("machines = %d, want 6", info.Machines)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
}
