// Command pland serves plans over HTTP: it builds and profiles a
// simulated machine room, freezes the fitted model into an immutable
// snapshot, and serves the planning surface off the plan engine —
//
//	GET /v1/plan?load=12.5[&method=8][&avoid=3,7][&safe=true][&supply=22][&margin=2.5]
//	GET /v1/consolidate?load=12.5[&mink=13]
//	GET /v1/maxload?budget=5000
//	GET /v1/stats                      counters + per-endpoint latency
//	GET /v1/healthz                    liveness
//	GET /v1/readyz                     readiness (503 while installing / breaker open)
//
// alongside the full room control plane of cmd/roomd (the /v1/sensors,
// /v1/advance, … endpoints operate the simulated room the model was
// profiled from). Planning queries read only the frozen snapshot, so
// they are served concurrently and never queue behind room mutations.
//
// With -pods P the server also builds pod-sharded consolidation tables
// and serves every planning query from them; without it, it serves the
// whole-room tables. Profiling still builds the whole-room tables either
// way (they back the room's eight-scenario planner).
//
// With -reprofile D the server also runs a continuous re-profiler: every
// D it folds one sensor sweep into per-machine recursive-least-squares
// fits of the Eq. 8 thermal coefficients plus a pooled fit of the Eq. 9
// power model (W1, W2), and when a well-conditioned fit drifts past
// -reprofile-reltol it trickles the drift through the pipelined
// patch-install path (prepare off the hot path, epoch-checked
// pointer-swap commit) — the model tracks the room without readiness
// ever flapping. Thermal drift lands as incremental patches; power
// drift moves every machine's kinetic boundary and forces the full
// rebuild it requires.
//
// On SIGINT or SIGTERM the server stops accepting connections, drains
// in-flight requests for -drain, and exits cleanly.
//
// Usage:
//
//	pland [-addr :7078] [-seed N] [-machines N] [-racks R -perrack M] [-pods P] [-pod-depth D] [-timeout 0] [-max-inflight 0] [-drain 5s] [-reprofile 0] [-reprofile-reltol 0.02] [-reprofile-min-samples 64]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"coolopt"
	"coolopt/internal/machineroom"
	"coolopt/internal/profiling"
	"coolopt/internal/roomapi"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pland:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pland", flag.ContinueOnError)
	addr := fs.String("addr", ":7078", "listen address")
	seed := fs.Int64("seed", 1, "seed for rack jitter and sensor noise")
	machines := fs.Int("machines", 20, "number of machines (single rack)")
	racks := fs.Int("racks", 0, "number of racks in a row (0 = single rack of -machines)")
	perRack := fs.Int("perrack", 20, "machines per rack when -racks is set")
	workers := fs.Int("workers", 0, "preprocessing worker pool (0 = all cores)")
	pods := fs.Int("pods", 0, "serve from pod-sharded planning tables with this many pods (0 = whole-room tables)")
	podDepth := fs.Int("pod-depth", 0, "planner tree depth with -pods: 2 = flat pods, 3 = pods of pods (0 = calibrated default for the room size)")
	timeout := fs.Duration("timeout", 0, "server-side compute deadline per planning request (0 = client deadline only)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent plan computations before shedding 503s (0 = unbounded)")
	drain := fs.Duration("drain", 5*time.Second, "in-flight request drain budget on shutdown")
	reprofile := fs.Duration("reprofile", 0, "continuous re-profiling: sample the room's sensors this often and trickle drifted Eq. 8 coefficients through pipelined patch installs (0 = off)")
	reprofileTol := fs.Float64("reprofile-reltol", 0.02, "relative coefficient drift that triggers a patch install")
	reprofileMin := fs.Int("reprofile-min-samples", 64, "sensor sweeps required before a machine's re-fitted coefficients are trusted")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := []coolopt.Option{coolopt.WithSeed(*seed)}
	if *maxInFlight > 0 {
		opts = append(opts, coolopt.WithEngineOptions(coolopt.WithMaxInFlight(*maxInFlight)))
	}
	n := *machines
	if *racks > 0 {
		opts = append(opts, coolopt.WithRow(*racks, *perRack))
		n = *racks * *perRack
	} else {
		opts = append(opts, coolopt.WithMachines(n))
	}
	pre := []coolopt.PreprocessOption{coolopt.WithMaxMachines(n)}
	if *workers > 0 {
		pre = append(pre, coolopt.WithPreprocessWorkers(*workers))
	}
	if *reprofile > 0 {
		// Retain the crossing lists so the re-profiling trickle lands
		// through incremental Snapshot.Patch instead of full rebuilds.
		pre = append(pre, coolopt.WithPatchSupport())
	}
	opts = append(opts, coolopt.WithPreprocess(pre...))
	if *pods > 0 {
		podOpts := []coolopt.PodOption{coolopt.WithPodCount(*pods)}
		if *podDepth > 0 {
			podOpts = append(podOpts, coolopt.WithPodDepth(*podDepth))
		}
		if *workers > 0 {
			podOpts = append(podOpts, coolopt.WithPodBuildWorkers(*workers))
		}
		opts = append(opts, coolopt.WithHierarchy(podOpts...))
	}

	fmt.Fprintf(out, "pland: profiling a %d-machine simulated room…\n", n)
	sys, err := coolopt.NewSystem(opts...)
	if err != nil {
		return err
	}
	apiOpts := []roomapi.Option{roomapi.WithEngine(sys.Engine())}
	if *timeout > 0 {
		apiOpts = append(apiOpts, roomapi.WithRequestTimeout(*timeout))
	}
	handler, err := roomapi.NewServer(sys.Sim(), apiOpts...)
	if err != nil {
		return err
	}

	if *reprofile > 0 {
		rf, err := profiling.NewRefresher(profiling.RefreshConfig{
			Room:       sys.Sim(),
			Reference:  sys.Profile(),
			MinSamples: *reprofileMin,
			RelTol:     *reprofileTol,
			// With a utilization source the refresher also pools a shared
			// Eq. 9 power fit, so drift batches can move W1/W2 — both
			// halves of Eq. 8 — through the same patch-install path.
			Loads: sys.Sim().Load,
		})
		if err != nil {
			return fmt.Errorf("re-profiler: %w", err)
		}
		stopRf := make(chan struct{})
		var rfWG sync.WaitGroup
		rfWG.Add(1)
		go func() {
			defer rfWG.Done()
			ticker := time.NewTicker(*reprofile)
			defer ticker.Stop()
			for {
				select {
				case <-stopRf:
					return
				case <-ticker.C:
					// Sample under the server's room lock so the sweep
					// never races a mutating endpoint, then trickle any
					// drift through the pipelined install path: the
					// prepare builds off the hot path and the commit is
					// an epoch-checked pointer swap, so serving never
					// sheds around it.
					handler.RoomLocked(func(machineroom.Room) { rf.Observe() })
					batch := rf.Drifted()
					if len(batch) == 0 {
						continue
					}
					epoch, err := sys.Engine().InstallPatch(batch)
					if err != nil {
						fmt.Fprintf(out, "pland: re-profile install failed: %v\n", err)
						continue
					}
					fmt.Fprintf(out, "pland: re-profiled %d machines, installed epoch %d\n", len(batch), epoch)
				}
			}
		}()
		defer func() {
			close(stopRf)
			rfWG.Wait()
		}()
		fmt.Fprintf(out, "pland: continuous re-profiling every %s (tol %.1f%%, min %d samples)\n",
			*reprofile, 100**reprofileTol, *reprofileMin)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	shape := "whole-room tables"
	if p := sys.Pods(); p != nil {
		shape = fmt.Sprintf("%d pods, depth %d", p.Pods(), p.Depth())
	}
	fmt.Fprintf(out, "pland: serving plans for the %d-machine room on http://%s (snapshot epoch %d, %s)\n",
		n, ln.Addr(), sys.Engine().Epoch(), shape)
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "pland: signal received, draining for up to %s…\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close() // drain budget exhausted: cut remaining connections
		<-served
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "pland: drained, bye")
	return nil
}
