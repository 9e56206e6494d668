package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// cost is what one stage-isolated pass measured.
type cost struct {
	ns, allocs, bytes float64
}

// measure runs fn once and reports its wall time and heap allocations.
// Nothing else runs while it measures, and the garbage collector is off:
// a collection empties the engine's sync.Pools, and how many start
// during a pass depends on timing. So allocation counts repeat exactly
// for the same input, and the time excludes collection. A stage
// allocates under 100 MiB at scale 1.
func measure(fn func() error) (cost, error) {
	collect()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return cost{
		ns:     float64(d),
		allocs: float64(after.Mallocs - before.Mallocs),
		bytes:  float64(after.TotalAlloc - before.TotalAlloc),
	}, err
}

// perLayer names every per-layer metric with its unit, so a traced run
// reports each one on every workload; layers a workload does not
// exercise read 0.
func perLayer() [][2]string {
	m := [][2]string{
		{"input.transactions", "count"}, {"input.bytes", "B"}, {"input.windows", "count"},
		{"sie.read_ns_per_tx", "ns"}, {"sie.read_allocs_per_tx", "allocs"},
		{"summarize.ns_per_tx", "ns"}, {"summarize.allocs_per_tx", "allocs"}, {"summarize.bytes_per_tx", "B"},
		{"summarize.hash_ns_per_tx", "ns"}, {"summarize.hash_allocs_per_tx", "allocs"},
		{"observatory.ingest_ns_per_tx", "ns"}, {"observatory.dispatch_ns_per_tx", "ns"},
		{"observatory.dump_ms_per_window", "ms"},
	}
	for _, a := range observatory.StandardAggregations(kFactor) {
		m = append(m,
			[2]string{"observatory.agg." + a.Name + ".ns_per_tx", "ns"},
			[2]string{"observatory.agg." + a.Name + ".allocs_per_tx", "allocs"},
			[2]string{"spacesaving." + a.Name + ".churn_share", "ratio"})
	}
	return append(m, [][2]string{
		{"detect.ns_per_tx", "ns"}, {"detect.allocs_per_tx", "allocs"},
		{"detect.first_seen_share", "ratio"}, {"detect.overflow_share", "ratio"}, {"detect.ic_dropped_share", "ratio"},
		{"tsv.put_ns_per_tx", "ns"}, {"tsv.put_ms_per_snapshot", "ms"}, {"tsv.bytes_per_window", "B"}, {"tsv.cascade_ms", "ms"},
		{"tsv.query_ms", "ms"}, {"tsv.files_per_query", "count"}, {"tsv.blocks_decoded_per_query", "count"},
		{"tsv.blocks_skipped_per_query", "count"}, {"tsv.bloom_skips_per_query", "count"},
		{"webui.overhead_ms", "ms"},
		{"transport.recv_wait_ns_per_tx", "ns"}, {"transport.spill_share", "ratio"}, {"transport.replayed_share", "ratio"},
		{"wal.appends_per_tx", "count"}, {"wal.bytes_per_tx", "B"}, {"wal.syncs", "count"},
		{"ledger.stage_sum_ns_per_tx", "ns"}, {"ledger.serial_ns_per_tx", "ns"},
		{"ledger.gap_ns_per_tx", "ns"}, {"ledger.gap_share", "ratio"},
		{"trace.overhead_share", "ratio"},
	}...)
}

// traceRun measures the per-layer metrics: stage-isolated passes over
// the workload's stream, untraced and traced end-to-end passes (their
// throughput ratio is the tracing overhead), and traced queries.
func traceRun(o *options, l *ledger, su *setup, fleet bool) error {
	units := map[string]string{}
	for _, m := range perLayer() {
		units[m[0]] = m[1]
		l.set(m[0], m[1], 0)
	}
	set := func(name string, v float64) {
		if _, ok := units[name]; !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		l.set(name, units[name], v)
	}
	s := su.s
	n := float64(s.txs)
	set("input.transactions", n)
	set("input.bytes", float64(len(s.sie)))

	stageSum, err := stages(o, s, set)
	if err != nil {
		return err
	}

	// Rounds of an untraced and a traced sharded pass; the first round
	// also makes an untraced and a traced serial pass.
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var plainRates, tracedRates, serialNs []float64
	var keep *passResult
	sharded := &checker{ref: su.shardedRef}
	serialC := &checker{peer: sharded}
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		for _, traced := range []bool{false, true} {
			p, err := su.pass(o, fleet, jobOptions{traced: traced}, fmt.Sprintf("pass-%d-%t", i, traced))
			if err != nil {
				return err
			}
			sharded.verify(l, p, s.txs)
			rate := float64(p.job.accepted) / p.job.ingest.Seconds()
			if !traced {
				plainRates = append(plainRates, rate)
				continue
			}
			tracedRates = append(tracedRates, rate)
			keep = p
		}
		if i > 0 {
			continue
		}
		for _, traced := range []bool{false, true} {
			p, err := su.pass(o, fleet, jobOptions{serial: true, traced: traced}, fmt.Sprintf("serial-%t", traced))
			if err != nil {
				return err
			}
			serialC.verify(l, p, s.txs)
			j := p.job
			if !traced {
				serialNs = append(serialNs, float64(j.ingest)/float64(j.accepted))
			} else {
				set("observatory.ingest_ns_per_tx", ratio(float64(j.ingestCalls), float64(j.accepted)))
				set("observatory.dump_ms_per_window", ratio(float64(j.dumpNs)/1e6, float64(j.windows)))
			}
		}
	}
	set("trace.overhead_share", 1-ratio(median(tracedRates), median(plainRates)))
	serial := median(serialNs)
	set("ledger.stage_sum_ns_per_tx", stageSum)
	set("ledger.serial_ns_per_tx", serial)
	set("ledger.gap_ns_per_tx", serial-stageSum)
	set("ledger.gap_share", ratio(serial-stageSum, serial))

	j := keep.job
	acc := float64(j.accepted)
	set("input.windows", float64(j.windows))
	set("observatory.dispatch_ns_per_tx", ratio(float64(j.ingestCalls), acc))
	set("tsv.put_ms_per_snapshot", ratio(float64(j.putNs)/1e6, float64(j.puts)))
	set("tsv.cascade_ms", ms(j.cascade))
	bytes, err := levelBytes(j.store.Dir(), tsv.Minutely)
	if err != nil {
		return err
	}
	set("tsv.bytes_per_window", ratio(float64(bytes), float64(j.windows)))
	if f := keep.fleet; f != nil {
		st := f.stats
		set("transport.recv_wait_ns_per_tx", ratio(float64(f.waitNs), acc))
		set("transport.spill_share", ratio(float64(st.Spilled), float64(st.Frames)))
		set("transport.replayed_share", ratio(float64(st.Replayed), float64(st.Frames)))
		set("wal.appends_per_tx", ratio(f.appends, acc))
		set("wal.bytes_per_tx", ratio(float64(f.wal.SizeBytes), acc))
		// The collector syncs the journal before every acknowledgement.
		set("wal.syncs", float64(st.Acks))
	}

	// Traced queries: each mix query directly through tsv.Engine and
	// then over HTTP, against the workload's store, three times over.
	st := j.store
	if o.workload == "query" {
		st = su.store
	}
	srv, err := serve(st)
	if err != nil {
		return err
	}
	var qs queryStats
	eng := tsv.NewEngine(st)
	for i := 0; i < 3*len(su.mix); i++ {
		srv.traced(eng, &su.mix[i%len(su.mix)], &qs)
	}
	if err := srv.close(); err != nil {
		return err
	}
	l.count(qs.attempts, qs.failed)
	if qs.wrong != nil {
		l.fail(qs.wrong)
	}
	nq := float64(len(qs.runMs))
	run := ratio(sum(qs.runMs), nq)
	set("tsv.query_ms", run)
	set("tsv.files_per_query", ratio(qs.files, nq))
	set("tsv.blocks_decoded_per_query", ratio(qs.decoded, nq))
	set("tsv.blocks_skipped_per_query", ratio(qs.skipped, nq))
	set("tsv.bloom_skips_per_query", ratio(qs.bloom, nq))
	set("webui.overhead_ms", ratio(sum(qs.rttMs), float64(len(qs.rttMs)))-run)
	return nil
}

// stages runs each layer alone over the previous layer's materialized
// output and sets its ns/tx and allocs/tx. It returns the ledger's
// stage sum: read, summarize, hash, the eight aggregations, detect and
// Put.
func stages(o *options, s *stream, set func(string, float64)) (float64, error) {
	n := float64(s.txs)
	total := 0.0
	stage := func(prefix string, c cost, withBytes bool) {
		set(prefix+"ns_per_tx", c.ns/n)
		set(prefix+"allocs_per_tx", c.allocs/n)
		if withBytes {
			set(prefix+"bytes_per_tx", c.bytes/n)
		}
		total += c.ns / n
	}

	var tx sie.Transaction
	c, err := measure(func() error {
		rd := s.reader()
		for {
			if err := rd.Read(&tx); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("read stage: %w", err)
	}
	stage("sie.read_", c, false)

	txs, err := s.transactions()
	if err != nil {
		return 0, err
	}
	var summ sie.Summarizer
	summ.KeepUnparsableResponses = true
	var out sie.Summary
	c, err = measure(func() error {
		for i := range txs {
			if err := summ.Summarize(&txs[i], &out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("summarize stage: %w", err)
	}
	stage("summarize.", c, true)

	// Materialize one summary per transaction for the later stages.
	sums := make([]sie.Summary, len(txs))
	nows := make([]float64, len(txs))
	base := txs[0].QueryTime.Truncate(time.Minute)
	for i := range txs {
		if err := summ.Summarize(&txs[i], &sums[i]); err != nil {
			return 0, err
		}
		nows[i] = txs[i].QueryTime.Sub(base).Seconds()
	}
	c, _ = measure(func() error {
		for i := range sums {
			sums[i].PrecomputeHashes(nil)
		}
		return nil
	})
	stage("summarize.hash_", c, false)

	for _, a := range observatory.StandardAggregations(kFactor) {
		p := observatory.New(observatory.DefaultConfig(), []observatory.Aggregation{a}, nil)
		c, _ = measure(func() error {
			for i := range sums {
				p.Ingest(&sums[i], nows[i])
			}
			p.Flush()
			return nil
		})
		stage("observatory.agg."+a.Name+".", c, false)
		cache := p.Cache(a.Name)
		set("spacesaving."+a.Name+".churn_share", ratio(float64(cache.Evictions()+cache.Dropped()), float64(cache.Hits())))
	}

	d := detect.New(detect.DefaultConfig())
	c, _ = measure(func() error {
		for i := range sums {
			d.Observe(&sums[i], nows[i])
		}
		return nil
	})
	stage("detect.", c, false)
	dc := d.Counters()
	set("detect.first_seen_share", ratio(float64(dc.FirstSeen), float64(dc.Observed)))
	set("detect.overflow_share", ratio(float64(dc.Overflow), float64(dc.Observed)))
	set("detect.ic_dropped_share", ratio(float64(dc.ICDropped), float64(dc.ICHits)))

	// Put: the serial engine's snapshots of this stream into a fresh
	// columnar store.
	var snaps []*tsv.Snapshot
	p := observatory.New(engineConfig(), observatory.StandardAggregations(kFactor), func(sn *tsv.Snapshot) { snaps = append(snaps, sn) })
	for i := range sums {
		p.Ingest(&sums[i], nows[i])
	}
	p.Flush()
	dir := filepath.Join(o.dir, "stage-put")
	st, err := tsv.NewColumnarStore(dir)
	if err != nil {
		return 0, err
	}
	c, err = measure(func() error {
		for _, sn := range snaps {
			if err := st.Put(sn); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("put stage: %w", err)
	}
	set("tsv.put_ns_per_tx", c.ns/n)
	total += c.ns / n
	return total, nil
}

// levelBytes sums the sizes of a store's files at one level.
func levelBytes(dir string, level tsv.Level) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		_, lv, _, err := tsv.ParseFileName(e.Name())
		if err != nil || lv != level {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
