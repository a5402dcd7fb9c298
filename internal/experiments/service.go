package experiments

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/localmm"
	"repro/internal/service"
)

func init() {
	register(&Experiment{
		ID:    "service",
		Title: "Multiply-as-a-service soak: resident matrices, plan-cache amortization, budgeted admission",
		claim: "iterated workloads amortize load/probe/plan cost across repeated " +
			"multiplies on resident matrices (ROADMAP north star; cf. arXiv 2203.07673 on resident-operand reuse)",
		run: runServiceExperiment,
	})
}

// servicePairs is the soak's traffic mix over the three resident workloads.
var servicePairs = [][2]string{
	{"rmat", "rmat"},
	{"er", "er"},
	{"hyper", "hyper"},
	{"rmat", "er"},
}

// serviceShape scales the soak: workload sizes and client pressure.
func serviceShape(sc Scale) (rmatScale int, erN int32, hyperN int32, clients, rounds int) {
	switch sc {
	case ScaleTiny:
		return 6, 64, 256, 4, 2
	case ScaleLarge:
		return 9, 512, 2048, 8, 6
	default:
		return 7, 128, 512, 6, 3
	}
}

// soakGoroutineSlack is how many goroutines more than before the soak the
// process may run once the soak's server has closed.
const soakGoroutineSlack = 2

// runServiceExperiment starts an in-process server (the full HTTP path, so
// the soak covers the wire contract too) on the run's machine as it is (the
// daemon charges unamplified communication) and drives it: it verifies
// bit-identical outputs, zero probe work after warmup, and deadlock-free
// admission under the shared budget. The daemon keeps its built worlds
// between jobs, but no rank goroutine outlives its job: once the server and
// its connections have closed, the goroutine count must be back to its
// pre-soak value within soakGoroutineSlack.
func runServiceExperiment(r *Report, o RunOpts) error {
	goroutines := runtime.NumGoroutine()
	rmatScale, _, _, _, _ := serviceShape(o.Scale)
	// The budget: tight enough that the biggest self-product batches and
	// concurrent reservations contend, the same recipe the service tests use.
	probe := service.GeneratorSpec{Kind: "rmat", Scale: rmatScale, EdgeFactor: 8, Seed: 7}
	big, err := probe.Generate()
	if err != nil {
		return err
	}
	mem := 24 * localmm.Flops(big, big)

	svc, err := service.New(service.Config{P: 16, Machine: o.Machine, MemBytes: mem, Threads: o.Threads})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(service.Handler(svc))
	rep, err := DriveService(&service.Client{Base: srv.URL, HTTP: srv.Client()}, o.Scale)
	srv.Close()
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines+soakGoroutineSlack; {
		if time.Now().After(deadline) {
			return fmt.Errorf("service: %d goroutines 5 s after the soak, %d before it (slack %d)",
				runtime.NumGoroutine(), goroutines, soakGoroutineSlack)
		}
		time.Sleep(time.Millisecond)
	}
	*r = *rep
	return nil
}

// DriveService runs the soak duty cycle against any server — the in-process
// one above, or a remote spgemmd via `spgemm-bench -server URL -exp service`.
// It loads the workloads (idempotent on a warm server), pays the warmup
// pass, fires the concurrent mix, and fails if any output deviates from the
// sequential pass or any post-warmup request performs probe work.
func DriveService(cl *service.Client, sc Scale) (*Report, error) {
	rmatScale, erN, hyperN, clients, rounds := serviceShape(sc)
	specs := map[string]service.GeneratorSpec{
		"rmat":  {Kind: "rmat", Scale: rmatScale, EdgeFactor: 8, Seed: 7},
		"er":    {Kind: "er", N: erN, EdgeFactor: 6, Seed: 11},
		"hyper": {Kind: "hypersparse", N: hyperN, Cols: hyperN, NnzPerCol: 2, Seed: 13},
	}

	rep := registry["service"].report()

	// Load phase: server-side generation, once per workload.
	for name, spec := range specs {
		if _, err := cl.LoadGenerated(name, spec); err != nil {
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
	}

	// Warmup: one sequential pass over the mix pays every probe exactly once
	// and records the golden outputs.
	golden := map[[2]string][]byte{}
	warmT := rep.NewTable("warmup (sequential, cache-cold)",
		"pair", "plan", "cache", "batches", "model s", "peak B/rank")
	for _, pr := range servicePairs {
		resp, c, err := cl.Multiply(service.MultiplyRequest{A: pr[0], B: pr[1], ReturnResult: true})
		if err != nil {
			return nil, fmt.Errorf("warmup %v: %w", pr, err)
		}
		golden[pr] = c.Serialize()
		cache := "MISS"
		if resp.Plan.CacheHit {
			cache = "hit"
		}
		warmT.AddRow(pr[0]+"x"+pr[1], resp.Plan.Choice.String(), cache,
			fmt.Sprintf("%d", resp.Batches), fmtS(resp.ModelSeconds),
			fmt.Sprintf("%d", resp.PeakMemBytesPerRank))
	}
	warm, err := cl.Stats()
	if err != nil {
		return nil, err
	}

	// Soak: concurrent clients over the mix; every output must match its
	// golden bytes and no request may add probe work.
	type jobErr struct{ err error }
	var wg sync.WaitGroup
	errc := make(chan jobErr, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pr := servicePairs[(c+i)%len(servicePairs)]
				resp, out, err := cl.Multiply(service.MultiplyRequest{A: pr[0], B: pr[1], ReturnResult: true})
				if err != nil {
					errc <- jobErr{fmt.Errorf("client %d round %d %v: %w", c, i, pr, err)}
					return
				}
				if !resp.Plan.CacheHit {
					errc <- jobErr{fmt.Errorf("client %d round %d %v: plan-cache miss after warmup", c, i, pr)}
					return
				}
				if string(out.Serialize()) != string(golden[pr]) {
					errc <- jobErr{fmt.Errorf("client %d round %d %v: output differs from sequential run", c, i, pr)}
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for je := range errc {
		return nil, je.err
	}

	st, err := cl.Stats()
	if err != nil {
		return nil, err
	}
	if st.Probes != warm.Probes {
		return nil, fmt.Errorf("service: soak performed probe work: %d -> %d probes", warm.Probes, st.Probes)
	}

	sumT := rep.NewTable("soak summary",
		"metric", "warmup", "after soak")
	sumT.AddRow("multiplies", fmt.Sprintf("%d", warm.Multiplies), fmt.Sprintf("%d", st.Multiplies))
	sumT.AddRow("plan probes", fmt.Sprintf("%d", warm.Probes), fmt.Sprintf("%d", st.Probes))
	sumT.AddRow("plan hits", fmt.Sprintf("%d", warm.PlanHits), fmt.Sprintf("%d", st.PlanHits))
	sumT.AddRow("plan misses", fmt.Sprintf("%d", warm.PlanMisses), fmt.Sprintf("%d", st.PlanMisses))
	sumT.AddRow("queued jobs", fmt.Sprintf("%d", warm.QueuedJobs), fmt.Sprintf("%d", st.QueuedJobs))
	sumT.AddRow("peak queue depth", fmt.Sprintf("%d", warm.PeakQueued), fmt.Sprintf("%d", st.PeakQueued))
	sumT.Notes = append(sumT.Notes,
		fmt.Sprintf("%d concurrent clients x %d rounds over %d resident pairs, shared budget %d bytes, p=%d on %s",
			clients, rounds, len(servicePairs), st.MemBytes, st.P, st.Machine))

	rep.Finding("%d soak jobs returned bit-identical outputs to the sequential pass", clients*rounds)
	rep.Finding("probe work stayed at %d after warmup: every repeat plan was a cache hit", st.Probes)
	rep.Finding("admission queued %d job(s) (peak depth %d) under the shared budget with no deadlock",
		st.QueuedJobs, st.PeakQueued)
	return rep, nil
}
