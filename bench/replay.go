package main

import "time"

// replayTotals is what replaying every distinct multiplication of one
// operation adds up to, layer by layer.
type replayTotals struct {
	mulS, mergeLayerS, mergeFiberS, symbolicS float64
	predMulS, predMergeS                      float64
	flops, unmerged, mergeEntries, output     int64

	serS, deserS, fingerprintS     float64
	wireBytes, fingerprintBytes    int64
	blocks, dcscBlocks             int64
	wholeS, whole1S, whole2S       float64
	spawnUs                        float64
	coll                           collectiveCosts
	runtimeS                       float64
	multiplyS, discardS, symbolicE float64 // whole-engine walls
	engineS                        float64 // of the variant the operation runs
	refS                           float64
	probeS, planS                  float64
	candidates                     int
	predModelS, predPeak           float64
	obsPlainS, obsTracedS          float64
	obsSpans                       int
}

// collCache holds the simulator's collective costs per grid shape, which are
// the same for every pair that runs on that shape.
type collCache map[[2]int]struct {
	spawnUs float64
	coll    collectiveCosts
}

// replayPair splits one pair's operands with the layout its run uses and makes
// each layer's calls serially, in the order and with the arguments the
// schedule makes them, inside bench-side spans. Blocks are shipped by
// reference inside the simulator, so the codec is timed on every block the
// schedule ships without being part of the engine's own wall time.
func replayPair(ps pairSpec, st engineStats, tr *tracer, parent, op int, cache collCache, tot *replayTotals) error {
	rc := ps.rc
	threads := max(rc.Opts.Threads, 1)
	ly, err := newLayout(ps.a, ps.b, rc)
	if err != nil {
		return err
	}
	q, l, batches := ly.q, ly.l, st.Batches
	span := func(name string, fn func()) float64 { return tr.in(name, parent, op, fn) }

	blkA := make([][][]block, q)
	blkB := make([][][]block, q)
	for i := 0; i < q; i++ {
		blkA[i], blkB[i] = make([][]block, q), make([][]block, q)
		for j := 0; j < q; j++ {
			blkA[i][j], blkB[i][j] = make([]block, l), make([]block, l)
			for k := 0; k < l; k++ {
				blkA[i][j][k], blkB[i][j][k] = ly.blockA(ps.a, i, j, k), ly.blockB(ps.b, i, j, k)
			}
		}
	}

	var ar arena
	ship := func(m block) error {
		var buf []byte
		tot.serS += span("spmat.serialize", func() { buf = serializeBlock(m) })
		var derr error
		tot.deserS += span("spmat.deserialize", func() { derr = deserializeBlock(buf, &ar) })
		tot.wireBytes += int64(len(buf))
		tot.blocks++
		if isDCSC(m) {
			tot.dcscBlocks++
		}
		return derr
	}

	// The symbolic pass (Alg 3): every rank, every stage, on the full local B.
	if rc.Opts.MemBytes > 0 || rc.Opts.RunSymbolic {
		for i := 0; i < q; i++ {
			for j := 0; j < q; j++ {
				for k := 0; k < l; k++ {
					for s := 0; s < q; s++ {
						tot.symbolicS += span("localmm.symbolic", func() { symbolicBlocks(blkA[i][s][k], blkB[s][j][k], threads) })
					}
				}
			}
		}
	}

	for t := 0; t < batches; t++ {
		// Every A block is broadcast along its row once per batch.
		for i := 0; i < q; i++ {
			for s := 0; s < q; s++ {
				for k := 0; k < l; k++ {
					if err := ship(blkA[i][s][k]); err != nil {
						return err
					}
				}
			}
		}
		for j := 0; j < q; j++ {
			bt := ly.batchingOf(j, batches)
			// The batch's piece of every B block of block column j, broadcast
			// along the column.
			piece := make([][]block, q)
			for s := 0; s < q; s++ {
				piece[s] = make([]block, l)
				for k := 0; k < l; k++ {
					piece[s][k] = batchPiece(blkB[s][j][k], bt, t)
					if err := ship(piece[s][k]); err != nil {
						return err
					}
				}
			}
			for i := 0; i < q; i++ {
				toLayer := make([][]block, l) // toLayer[k][m]: rank (i,j,k)'s piece for layer m
				for k := 0; k < l; k++ {
					partial := make([]block, q)
					var entries int64
					for s := 0; s < q; s++ {
						a, b := blkA[i][s][k], piece[s][k]
						f := blockFlops(a, b)
						tot.flops += f
						tot.predMulS += predictMultiply(rc, f, scanCols(b))
						tot.mulS += span("localmm.multiply", func() { partial[s] = mulBlocks(rc, a, b, threads) })
						entries += partial[s].NNZ()
					}
					tot.unmerged += entries
					tot.mergeEntries += entries
					tot.predMergeS += predictMerge(rc, entries, scanCols(piece[0][k]))
					var d block
					tot.mergeLayerS += span("localmm.merge_layer", func() { d = mergeBlocks(rc, partial, false, threads) })
					toLayer[k] = splitByLayer(d, bt, t)
				}
				for k := 0; k < l; k++ {
					recv := make([]block, l)
					var entries int64
					for m := 0; m < l; m++ {
						recv[m] = toLayer[m][k]
						entries += recv[m].NNZ()
						if m != k { // the own piece never travels
							if err := ship(recv[m]); err != nil {
								return err
							}
						}
					}
					tot.mergeEntries += entries
					var c block
					tot.mergeFiberS += span("localmm.merge_fiber", func() { c = mergeBlocks(rc, recv, true, threads) })
					tot.predMergeS += predictMerge(rc, entries, scanCols(c))
					tot.output += c.NNZ()
				}
			}
		}
	}

	// The same product as one call on the unsplit operands, with one thread and
	// with two in turn: what blocking and the per-block column scans cost, and
	// what a second thread buys.
	var one, two []float64
	for x := 0; x < 3; x++ {
		one = append(one, span("localmm.whole_multiply", func() { mulBlocks(rc, ps.a, ps.b, 1) }))
		two = append(two, span("localmm.whole_multiply", func() { mulBlocks(rc, ps.a, ps.b, 2) }))
	}
	tot.whole1S += median(one)
	tot.whole2S += median(two)
	if threads == 1 {
		tot.wholeS += median(one)
	} else {
		tot.wholeS += median(two)
	}

	// What the daemon does to every operand it is handed.
	for _, m := range []*csc{ps.a, ps.b} {
		tot.fingerprintS += span("spmat.fingerprint", func() { fingerprintHash(m) })
		tot.fingerprintBytes += wireBytes(m)
		if ps.a == ps.b {
			break
		}
	}

	// The simulator's own cost at this grid shape.
	key := [2]int{rc.P, rc.L}
	cc, ok := cache[key]
	if !ok {
		spawn := make([]float64, 0, 20)
		for x := 0; x < 20; x++ {
			spawn = append(spawn, span("mpi.run_spawn", func() { mpiSpawn(rc.P) })*1e6)
		}
		cc.spawnUs = median(spawn)
		var err error
		id := tr.begin("mpi.collectives", parent, op)
		cc.coll, err = mpiCollectives(rc.P, rc.L, 200)
		tr.end(id)
		if err != nil {
			return err
		}
		cache[key] = cc
	}
	tot.spawnUs, tot.coll = cc.spawnUs, cc.coll
	perRank := func(n int64) float64 { return float64(n) / float64(rc.P) }
	tot.runtimeS += (cc.spawnUs + 4*cc.coll.SplitUs +
		perRank(st.BcastMsgs)*cc.coll.BcastUs +
		perRank(st.AllToAllMsgs)*cc.coll.AllToAllUs +
		perRank(st.OtherMsgs)*cc.coll.AllreduceUs) / 1e6

	// The whole engine, assembled and discarded, three times each in turn.
	var mult, disc, sym []float64
	var obsSpans int
	for x := 0; x < 3; x++ {
		var err error
		mult = append(mult, span("core.multiply", func() { _, _, err = engineMultiply(ps.a, ps.b, rc) }))
		if err != nil {
			return err
		}
		disc = append(disc, span("core.discard", func() { _, _, err = engineDiscard(ps.a, ps.b, rc) }))
		if err != nil {
			return err
		}
		sym = append(sym, span("core.symbolic", func() { _, err = engineSymbolic(ps.a, ps.b, rc) }))
		if err != nil {
			return err
		}
		plain := time.Now()
		if _, _, err = engineMultiply(ps.a, ps.b, rc); err != nil {
			return err
		}
		tot.obsPlainS += since(plain)
		traced := time.Now()
		if obsSpans, err = engineObsTraced(ps.a, ps.b, rc); err != nil {
			return err
		}
		tot.obsTracedS += since(traced)
	}
	tot.obsSpans += obsSpans
	tot.multiplyS += median(mult)
	tot.discardS += median(disc)
	if ps.discard {
		tot.engineS += median(disc)
	} else {
		tot.engineS += median(mult)
	}
	tot.symbolicE += median(sym)
	tot.refS += span("bench.reference", func() { refMultiply(toRef(ps.a), toRef(ps.b), false) })

	// The planner on this pair, and what it predicts for the run made.
	var perr error
	tot.probeS += span("planner.probe", func() { perr = plannerProbe(ps.a, ps.b) })
	if perr != nil {
		return perr
	}
	var po planOutcome
	tot.planS += span("planner.plan", func() { po, perr = plannerPlan(ps.a, ps.b, rc, batches) })
	if perr != nil {
		return perr
	}
	tot.candidates += po.Candidates
	tot.predModelS += po.PredictedModelS
	tot.predPeak = max(tot.predPeak, float64(po.PredictedPeak))
	return nil
}
