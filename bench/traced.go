package main

import (
	"fmt"
	"time"
)

// traceRun is the traced run. It sets the workload up once, then
//
//  1. runs operations in four chunks, alternately with and without bench-side
//     spans, which gives the tracing overhead and the client-side spans;
//  2. probes the daemon request by request (service workloads only);
//  3. replays every distinct multiplication layer by layer (replayPair).
//
// End-to-end metrics are never taken from here.
func traceRun(w workload, seed int64, seconds float64, smoke bool, tracePath string) (result, error) {
	res := result{Workload: w.name}
	inst, err := w.setup(seed, smoke)
	if err != nil {
		return res, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer inst.stop()
	models, err := modelPass(inst)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	tr := newTracer()
	vals := map[string]float64{}

	// 1. Operations, plain and traced in turn.
	var before, after daemonStats
	var up0, down0, up1, down1 int64
	if inst.svc != nil {
		inst.svc.collect = true
		if before, up0, down0, err = inst.svc.totals(); err != nil {
			return res, err
		}
	}
	var plain, traced, all series
	for chunk := 0; chunk < 4; chunk++ {
		if chunk%2 == 0 {
			plain.append(runSeries(inst, seconds/8, 1, nil))
		} else {
			traced.append(runSeries(inst, seconds/8, 1, tr))
		}
	}
	all.append(plain)
	all.append(traced)
	res.fill(all)
	ops := float64(all.attempted)
	if inst.svc != nil {
		inst.svc.collect = false
		if after, up1, down1, err = inst.svc.totals(); err != nil {
			return res, err
		}
	}
	opWall := median(plain.walls)
	vals["bench.trace_overhead_ratio"] = ratio(median(traced.walls), opWall)
	vals["process.gc_count_per_op"] = float64(all.gcCount) / ops
	vals["process.gc_pause_ms_per_op"] = float64(all.gcPauseNs) / 1e6 / ops

	// 2. The daemon, request by request.
	if inst.svc != nil {
		if err := probeService(inst, tr, vals); err != nil {
			return res, fmt.Errorf("%s: service probe: %w", w.name, err)
		}
		vals["service.upload_mb_per_op"] = float64(up1-up0) / 1e6 / ops
		vals["service.download_mb_per_op"] = float64(down1-down0) / 1e6 / ops
		vals["service.load_requests"] = float64(after.LoadRequests-before.LoadRequests) / ops
		vals["service.plan_hits"] = float64(after.PlanHits-before.PlanHits) / ops
		vals["service.plan_misses"] = float64(after.PlanMisses-before.PlanMisses) / ops
		vals["service.probes"] = float64(after.Probes-before.Probes) / ops
		vals["service.queued_jobs"] = float64(after.QueuedJobs-before.QueuedJobs) / ops
		vals["service.queue_wait_s"] = (after.QueueWaitS - before.QueueWaitS) / ops
		vals["service.job_failures"] = float64(after.JobFailures-before.JobFailures) / ops
		vals["service.load_s_p50"] = median(tr.durations("service.load"))
		vals["service.plan_cold_s_p50"] = median(tr.durations("service.plan.cold"))
		vals["service.plan_warm_s_p50"] = median(tr.durations("service.plan.warm"))
		vals["service.multiply_cold_s_p50"] = median(tr.durations("service.multiply.cold"))
		vals["service.multiply_warm_s_p50"] = median(tr.durations("service.multiply.warm"))
		requests := append(tr.durations("service.load"), tr.durations("service.multiply.cold")...)
		requests = append(requests, tr.durations("service.multiply.warm")...)
		vals["service.request_wall_s_p90"] = quantile(requests, 0.9)
		vals["service.iter_wall_s_p50"] = median(tr.durations("apps.mcl.iter"))
		if inst.svc.mclIters > 0 {
			vals["apps.mcl_iterations"] = float64(inst.svc.mclIters)
			vals["apps.mcl_client_s"] = tr.selfSeconds()["op"] / float64(traced.attempted)
		}
	}

	// 3. Every layer, replayed.
	var tot replayTotals
	cache := collCache{}
	root := tr.begin("replay", noSpan, 0)
	for i, ps := range inst.pairs {
		if err := replayPair(ps, models[i], tr, root, 0, cache, &tot); err != nil {
			return res, fmt.Errorf("%s: replay of pair %d: %w", w.name, i, err)
		}
	}
	tr.end(root)
	res.CalibS = median(all.calib)

	var sum engineStats
	sum.Steps = map[string]stepStats{}
	var budget float64
	for i, m := range models {
		sum.ModelS += m.ModelS
		sum.CommS += m.CommS
		sum.WorkUnits += m.WorkUnits
		sum.CommBytes += m.CommBytes
		sum.Collectives += m.Collectives
		sum.Batches += m.Batches
		sum.Flops += m.Flops
		sum.UnmergedNNZ += m.UnmergedNNZ
		sum.OutputNNZ += m.OutputNNZ
		sum.PeakBytes = max(sum.PeakBytes, m.PeakBytes)
		sum.RankImbalance = max(sum.RankImbalance, m.RankImbalance)
		for name, s := range m.Steps {
			t := sum.Steps[name]
			sum.Steps[name] = stepStats{Work: t.Work + s.Work, Bytes: t.Bytes + s.Bytes}
		}
		if rc := inst.pairs[i].rc; rc.Opts.MemBytes > 0 {
			budget = max(budget, float64(m.PeakBytes)*float64(rc.P)/float64(rc.Opts.MemBytes))
		}
	}
	if tot.flops != sum.Flops || tot.unmerged != sum.UnmergedNNZ || tot.output != sum.OutputNNZ {
		return res, fmt.Errorf("%s: the replay did %d flops, %d unmerged and %d output nonzeros; the engine %d, %d and %d",
			w.name, tot.flops, tot.unmerged, tot.output, sum.Flops, sum.UnmergedNNZ, sum.OutputNNZ)
	}
	mb := func(b int64) float64 { return float64(b) / 1e6 }
	vals["spmat.serialize_s"] = tot.serS
	vals["spmat.serialize_mb_per_s"] = ratio(mb(tot.wireBytes), tot.serS)
	vals["spmat.deserialize_s"] = tot.deserS
	vals["spmat.deserialize_mb_per_s"] = ratio(mb(tot.wireBytes), tot.deserS)
	vals["spmat.fingerprint_s"] = tot.fingerprintS
	vals["spmat.fingerprint_mb_per_s"] = ratio(mb(tot.fingerprintBytes), tot.fingerprintS)
	vals["spmat.wire_bytes"] = float64(tot.wireBytes)
	vals["spmat.dcsc_block_share"] = ratio(float64(tot.dcscBlocks), float64(tot.blocks))

	blocked := tot.mulS + tot.mergeLayerS + tot.mergeFiberS
	vals["localmm.multiply_s"] = tot.mulS
	vals["localmm.multiply_mflops_per_s"] = ratio(float64(tot.flops)/1e6, tot.mulS)
	vals["localmm.merge_layer_s"] = tot.mergeLayerS
	vals["localmm.merge_fiber_s"] = tot.mergeFiberS
	vals["localmm.merge_mnnz_per_s"] = ratio(float64(tot.mergeEntries)/1e6, tot.mergeLayerS+tot.mergeFiberS)
	vals["localmm.symbolic_s"] = tot.symbolicS
	vals["localmm.whole_multiply_s"] = tot.wholeS
	vals["localmm.blocked_vs_whole"] = ratio(blocked, tot.wholeS)
	vals["localmm.thread_speedup"] = ratio(tot.whole1S, tot.whole2S)
	vals["localmm.flops"] = float64(tot.flops)
	vals["localmm.unmerged_nnz"] = float64(tot.unmerged)
	vals["localmm.output_nnz"] = float64(tot.output)
	vals["localmm.compression_factor"] = ratio(float64(tot.flops), float64(tot.output))

	vals["mpi.run_spawn_us"] = tot.spawnUs
	vals["mpi.bcast_us"] = tot.coll.BcastUs
	vals["mpi.alltoallv_us"] = tot.coll.AllToAllUs
	vals["mpi.allreduce_us"] = tot.coll.AllreduceUs
	vals["mpi.split_us"] = tot.coll.SplitUs
	vals["mpi.collectives_per_op"] = float64(sum.Collectives)
	vals["mpi.comm_bytes_per_op"] = float64(sum.CommBytes)
	vals["mpi.runtime_s_per_op"] = tot.runtimeS

	vals["core.multiply_s"] = tot.multiplyS
	vals["core.discard_s"] = tot.discardS
	vals["core.assemble_s"] = tot.multiplyS - tot.discardS
	vals["core.symbolic_s"] = tot.symbolicE
	vals["core.self_s"] = tot.engineS - (blocked + tot.symbolicS + tot.runtimeS)
	vals["core.slowdown_vs_serial"] = ratio(opWall, tot.refS)
	vals["core.batches"] = float64(sum.Batches)
	vals["core.work_units"] = float64(sum.WorkUnits)
	vals["core.model_comm_s"] = sum.CommS
	vals["core.budget_utilisation"] = budget
	vals["core.rank_imbalance"] = sum.RankImbalance
	for name, s := range sum.Steps {
		vals["core.step."+name+".work_units"] = float64(s.Work)
		vals["core.step."+name+".bytes"] = float64(s.Bytes)
	}

	vals["planner.probe_s"] = tot.probeS
	vals["planner.plan_s"] = tot.planS
	vals["planner.candidates"] = float64(tot.candidates)
	vals["planner.model_residual"] = ratio(tot.predModelS, sum.ModelS)
	vals["planner.peak_residual"] = ratio(tot.predPeak, float64(sum.PeakBytes))
	vals["costmodel.multiply_residual"] = ratio(tot.predMulS, tot.mulS)
	vals["costmodel.merge_residual"] = ratio(tot.predMergeS, tot.mergeLayerS+tot.mergeFiberS)

	vals["obs.trace_on_ratio"] = ratio(tot.obsTracedS, tot.obsPlainS)
	vals["obs.spans_per_op"] = float64(tot.obsSpans)
	vals["process.peak_rss_mb"] = peakRSSMB()
	vals["env.calib_s"] = res.CalibS

	res.Metrics = collect(perLayer, vals)
	if err := tr.writeChrome(tracePath); err != nil {
		return res, err
	}
	return res, nil
}

func (s *series) append(o series) {
	s.walls = append(s.walls, o.walls...)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.calib = append(s.calib, o.calib...)
	s.busyS += o.busyS
	s.allocBytes += o.allocBytes
	s.gcCount += o.gcCount
	s.gcPauseNs += o.gcPauseNs
}

// probeService times the daemon's requests one at a time, on fresh daemons,
// for every distinct pair of one operation: upload, cold and warm /plan, cold
// and warm /multiply; and sets the warm /multiply beside the same job without
// HTTP and beside the engine alone.
func probeService(inst *instance, tr *tracer, vals map[string]float64) error {
	side := inst.svc
	root := tr.begin("service.probe", noSpan, 0)
	defer tr.end(root)
	var httpS, inProcS, engineS float64
	for _, ps := range inst.pairs {
		boot := func() (*daemon, error) {
			d, err := bootDaemon(side.p, side.threads, side.memBytes)
			if err != nil {
				return nil, err
			}
			for name, m := range map[string]*csc{"a": ps.a, "b": ps.b} {
				tr.in("service.load", root, 0, func() { err = d.load(name, m) })
				if err != nil {
					d.stop()
					return nil, err
				}
			}
			return d, nil
		}

		d, err := boot()
		if err != nil {
			return err
		}
		tr.in("service.multiply.cold", root, 0, func() { _, _, err = d.multiply("a", "b", false, false) })
		d.stop()
		if err != nil {
			return err
		}

		if d, err = boot(); err != nil {
			return err
		}
		var hit bool
		tr.in("service.plan.cold", root, 0, func() { _, hit, err = d.plan("a", "b") })
		if err == nil && hit {
			err = fmt.Errorf("first /plan of a pair hit the cache")
		}
		if err == nil {
			tr.in("service.plan.warm", root, 0, func() { _, hit, err = d.plan("a", "b") })
		}
		if err == nil && !hit {
			err = fmt.Errorf("second /plan of a pair missed the cache")
		}
		var overHTTP, inProcess, engine []float64
		for x := 0; x < 3 && err == nil; x++ {
			overHTTP = append(overHTTP, tr.in("service.multiply.warm", root, 0, func() { _, _, err = d.multiply("a", "b", false, false) }))
			if err == nil {
				t0 := time.Now()
				err = d.multiplyInProcess("a", "b")
				inProcess = append(inProcess, since(t0))
			}
			if err == nil {
				t0 := time.Now()
				_, _, err = engineMultiply(ps.a, ps.b, ps.rc)
				engine = append(engine, since(t0))
			}
		}
		d.stop()
		if err != nil {
			return err
		}
		httpS += median(overHTTP)
		inProcS += median(inProcess)
		engineS += median(engine)
	}
	vals["service.http_overhead_s"] = httpS - inProcS
	vals["service.engine_share"] = ratio(engineS, httpS)
	return nil
}
