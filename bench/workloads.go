package main

import (
	"fmt"
	"sync/atomic"
)

// pairSpec is one distinct multiplication an operation performs: the operands
// and the staged run that computes it. The model pass scores it with the
// gate's formula and the replay pass splits it the way that run does.
type pairSpec struct {
	a, b    *csc
	rc      runConfig
	discard bool // batches are consumed by a hook and never assembled
}

// instance is a workload made ready by setup: inputs generated, reference
// results computed, daemon booted and loaded, warm-up operations done.
type instance struct {
	clients    int   // closed-loop client goroutines
	flopsPerOp int64 // exact multiplications of one operation
	pairs      []pairSpec
	// op performs one operation of one client and checks its output against
	// the reference; an error counts the operation as failed.
	op   func(client int, tr *tracer) error
	stop func()
	// svc is set by the two workloads that go through the daemon.
	svc *serviceSide
}

// serviceSide is what the traced run needs to probe the daemon beside the
// operations themselves.
type serviceSide struct {
	p, threads int
	memBytes   int64
	mclIters   int
	// collect makes operations that use a daemon of their own add its
	// counters to the totals before they stop it.
	collect bool
	// totals returns the /stats counters and HTTP body bytes of every daemon
	// the operations have used so far.
	totals func() (daemonStats, int64, int64, error)
}

type workload struct {
	name, why string
	setup     func(seed int64, smoke bool) (*instance, error)
}

var workloads = []workload{
	{"protein-batched", "C=A*A on a protein-similarity matrix under a memory budget that forces several batches, which are checksummed by a hook and dropped. Kernels, merges and the symbolic pass do the work.", setupProtein},
	{"kmer-hyper", "C=A*At on a hypersparse k-mer matrix over 64 ranks, assembled. Useful flops are tiny, so rank spawn, collectives, per-block column scans and assembly dominate.", setupKmer},
	{"mcl-service", "Markov clustering through the daemon: every expansion uploads a new operand, misses the plan cache, multiplies and downloads. The service write path end to end.", setupMCL},
	{"resident-warm", "Rounds of four /multiply requests over resident operands with the plan cache warm, two closed-loop clients. The service read path: cache hits, registry, admission.", setupResident},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var opSeq atomic.Int64

// nextOp numbers operations across clients so the spans of one share an id.
func nextOp() int { return int(opSeq.Add(1)) }

// ---- the two engine workloads ----

// engineInstance is a workload whose operation is one distributed multiply of
// integer-valued operands, checked exactly against the reference product.
func engineInstance(name string, a, b *csc, rc runConfig, discard bool, want signature) (*instance, error) {
	inst := &instance{
		clients: 1, flopsPerOp: flopsOf(a, b),
		pairs: []pairSpec{{a: a, b: b, rc: rc, discard: discard}},
		stop:  func() {},
	}
	inst.op = func(_ int, tr *tracer) error {
		op := nextOp()
		root := tr.begin("op", noSpan, op)
		defer tr.end(root)
		var got signature
		var err error
		tr.in("core.multiply", root, op, func() {
			if discard {
				got, _, err = engineDiscard(a, b, rc)
				return
			}
			var c *csc
			if c, _, err = engineMultiply(a, b, rc); err == nil {
				got = signatureOf(toRef(c))
			}
		})
		if err != nil {
			return err
		}
		if !got.equalExact(want) {
			return fmt.Errorf("%s: output signature %v, reference %v", name, got, want)
		}
		return nil
	}
	return inst, warmUp(inst)
}

func setupProtein(seed int64, smoke bool) (*instance, error) {
	// The budget is a share of what inputs and output need, small enough that
	// the symbolic step must batch. (At toy size the output is barely larger
	// than the inputs, and a third would not hold one rank's inputs.)
	scale, ef, share := 11, 12, int64(3)
	if smoke {
		scale, ef, share = 8, 8, 2
	}
	a := genProtein(scale, ef, seed)
	quantise(a, seed)
	want, _ := refMultiply(toRef(a), toRef(a), false)
	mem := 24 * (2*a.NNZ() + want.nnz) / share
	return engineInstance("protein-batched", a, a, engineConfig(16, 4, 2, mem, 0), true, want)
}

func setupKmer(seed int64, smoke bool) (*instance, error) {
	reads, kmers, perRead, p, l := int32(4096), int32(262144), 24, 64, 16
	if smoke {
		reads, kmers, perRead, p, l = 256, 8192, 8, 16, 4
	}
	a, at := genKmer(reads, kmers, perRead, 0.08, seed)
	quantise(a, seed)
	quantise(at, seed+1)
	want, _ := refMultiply(toRef(a), toRef(at), false)
	return engineInstance("kmer-hyper", a, at, engineConfig(p, l, 1, 0, 1), false, want)
}

// ---- mcl-service ----

func setupMCL(seed int64, smoke bool) (*instance, error) {
	// Eight iterations: three expansions of real size, then five of an iterate
	// that has collapsed to about one entry per column, where only the
	// service's own costs remain.
	scale, ef, iters, share := 10, 8, 8, int64(4)
	if smoke {
		scale, ef, iters, share = 7, 6, 3, 1
	}
	const p, threads = 16, 1
	a := genProtein(scale, ef, seed)
	mem := 24 * flopsOf(a, a) / share

	// The reference trajectory: the same clustering with every expansion done
	// by the bench's own SpGEMM. Iterates are real-valued, so the daemon's
	// expansions are held to it approximately.
	var operands []*csc
	var traj []signature
	if _, err := mclVia(a, iters, func(m, _ *csc) (*csc, error) {
		sig, c := refMultiply(toRef(m), toRef(m), true)
		operands = append(operands, m)
		traj = append(traj, sig)
		return fromRef(c), nil
	}); err != nil {
		return nil, err
	}

	var seen daemonStats
	var up, down int64
	side := &serviceSide{p: p, threads: threads, memBytes: mem, mclIters: iters}
	side.totals = func() (daemonStats, int64, int64, error) { return seen, up, down, nil }
	inst := &instance{clients: 1, stop: func() {}, svc: side}
	for _, m := range operands {
		inst.flopsPerOp += flopsOf(m, m)
	}

	// cluster runs one clustering against a fresh daemon. mul performs one
	// expansion; its result is checked against the trajectory here.
	cluster := func(tr *tracer, mul func(d *daemon, m *csc, iter, parent, op int) (*csc, error)) error {
		op := nextOp()
		root := tr.begin("op", noSpan, op)
		defer tr.end(root)
		d, err := bootDaemon(p, threads, mem)
		if err != nil {
			return err
		}
		defer d.stop()
		iter := 0
		n, err := mclVia(a, iters, func(m, _ *csc) (*csc, error) {
			if iter >= len(traj) {
				return nil, fmt.Errorf("mcl-service: more than %d expansions", len(traj))
			}
			id := tr.begin("apps.mcl.iter", root, op)
			c, err := mul(d, m, iter, id, op)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if got := signatureOf(toRef(c)); !got.equalApprox(traj[iter]) {
				return nil, fmt.Errorf("mcl-service: expansion %d signature %v, reference %v", iter, got, traj[iter])
			}
			iter++
			return c, nil
		})
		if err != nil {
			return err
		}
		if n != iters {
			return fmt.Errorf("mcl-service: %d iterations, want %d", n, iters)
		}
		if side.collect {
			st, err := d.stats()
			if err != nil {
				return err
			}
			seen.add(st)
			u, dn := d.trafficBytes()
			up, down = up+u, down+dn
		}
		return nil
	}

	// byHand is the upload / multiply / download Client.MultiplyMatrices does,
	// one request at a time, so each can sit in a span and the daemon's plan
	// can be read back.
	byHand := func(tr *tracer, plans []planChoice) func(d *daemon, m *csc, iter, parent, op int) (*csc, error) {
		return func(d *daemon, m *csc, iter, parent, op int) (*csc, error) {
			var name string
			var err error
			for range 2 { // MultiplyMatrices uploads A and B; here they are one matrix
				tr.in("spmat.fingerprint", parent, op, func() { name = "m-" + fingerprintHash(m)[:16] })
				tr.in("service.load", parent, op, func() { err = d.load(name, m) })
				if err != nil {
					return nil, err
				}
			}
			var info jobInfo
			var c *csc
			tr.in("service.multiply.cold", parent, op, func() { info, c, err = d.multiply(name, name, true, false) })
			if plans != nil && err == nil {
				plans[iter] = info.Choice
			}
			return c, err
		}
	}
	choices := make([]planChoice, iters)
	if err := cluster(nil, byHand(nil, choices)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for i, m := range operands {
		rc, err := configFromChoice(p, threads, mem, choices[i])
		if err != nil {
			return nil, err
		}
		inst.pairs = append(inst.pairs, pairSpec{a: m, b: m, rc: rc})
	}

	inst.op = func(_ int, tr *tracer) error {
		if tr == nil {
			return cluster(nil, func(d *daemon, m *csc, _, _, _ int) (*csc, error) { return d.multiplyMatrices(m, m) })
		}
		return cluster(tr, byHand(tr, nil))
	}
	if err := inst.op(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return inst, nil
}

func (s *daemonStats) add(o daemonStats) {
	s.LoadRequests += o.LoadRequests
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.Probes += o.Probes
	s.QueuedJobs += o.QueuedJobs
	s.JobFailures += o.JobFailures
	s.QueueWaitS += o.QueueWaitS
}

// ---- resident-warm ----

func setupResident(seed int64, smoke bool) (*instance, error) {
	scale, hyperN := 11, int32(16384)
	if smoke {
		scale, hyperN = 6, 512
	}
	n := int32(1) << scale
	const p, threads = 16, 1
	specs := map[string]genSpec{
		"rmat":  {Kind: "rmat", Scale: scale, EdgeFactor: 8, Seed: seed},
		"er":    {Kind: "er", N: n, EdgeFactor: 8, Seed: seed + 1},
		"hyper": {Kind: "hypersparse", N: hyperN, Cols: hyperN, NnzPerCol: 2, Seed: seed + 2},
	}
	mats := map[string]*csc{}
	for name, g := range specs {
		m, err := generate(g)
		if err != nil {
			return nil, err
		}
		mats[name] = m
	}
	names := [4][2]string{{"rmat", "rmat"}, {"er", "er"}, {"hyper", "hyper"}, {"rmat", "er"}}
	mem := 4 * 24 * flopsOf(mats["rmat"], mats["rmat"])

	d, err := bootDaemon(p, threads, mem)
	if err != nil {
		return nil, err
	}
	side := &serviceSide{p: p, threads: threads, memBytes: mem}
	side.totals = func() (daemonStats, int64, int64, error) {
		st, err := d.stats()
		up, down := d.trafficBytes()
		return st, up, down, err
	}
	inst := &instance{clients: 2, stop: d.stop, svc: side}
	fail := func(err error) (*instance, error) {
		d.stop()
		return nil, err
	}
	for name, g := range specs {
		if err := d.loadGenerated(name, g); err != nil {
			return fail(err)
		}
	}
	// Warm the plan cache, and check each product once in full: the daemon
	// generated these operands itself, so its output is held to the bench's
	// reference on the same generator's matrices approximately.
	var wantNNZ [4]int64
	for x, pr := range names {
		a, b := mats[pr[0]], mats[pr[1]]
		want, _ := refMultiply(toRef(a), toRef(b), false)
		wantNNZ[x] = want.nnz
		info, c, err := d.multiply(pr[0], pr[1], true, false)
		if err != nil {
			return fail(err)
		}
		if got := signatureOf(toRef(c)); !got.equalApprox(want) {
			return fail(fmt.Errorf("resident-warm: %s*%s signature %v, reference %v", pr[0], pr[1], got, want))
		}
		rc, err := configFromChoice(p, threads, mem, info.Choice)
		if err != nil {
			return fail(err)
		}
		inst.pairs = append(inst.pairs, pairSpec{a: a, b: b, rc: rc})
		inst.flopsPerOp += flopsOf(a, b)
	}

	inst.op = func(client int, tr *tracer) error {
		op := nextOp()
		root := tr.begin("op", noSpan, op)
		defer tr.end(root)
		for x := range names {
			at := (2*client + x) % len(names) // the two clients start on different pairs
			pr := names[at]
			id := tr.begin("service.multiply.warm", root, op)
			info, _, err := d.multiply(pr[0], pr[1], false, false)
			tr.end(id)
			if err != nil {
				return err
			}
			if info.NNZ != wantNNZ[at] {
				return fmt.Errorf("resident-warm: %s*%s has %d nonzeros, reference %d", pr[0], pr[1], info.NNZ, wantNNZ[at])
			}
		}
		return nil
	}
	if err := warmUp(inst); err != nil {
		return fail(err)
	}
	return inst, nil
}

// warmUp runs two untimed operations per client, so caches are full and lazy
// set-up is done before anything is timed.
func warmUp(inst *instance) error {
	for c := 0; c < inst.clients; c++ {
		for i := 0; i < 2; i++ {
			if err := inst.op(c, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}
