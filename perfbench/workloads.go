package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/tsv"
)

const (
	// setupRuns is how many times a run sets up; setup_s is the median.
	setupRuns = 3
	// minRounds is the fewest timed rounds a run makes, however short
	// --seconds is.
	minRounds = 3
	// Every workload draws mixRounds rounds of the analyst query mix.
	// An ingest workload runs burstQueries of them against each sharded
	// pass's fresh store; the query workload runs queryBatch per round.
	mixRounds    = 5
	burstQueries = 100
	queryBatch   = 250
	mib          = 1 << 20
)

// invariant selects the snapshot streams the serial and sharded engines
// must write byte-identically. Admitted aggregations are excluded: the
// sharded engine splits each Space-Saving cache into per-shard caches
// of ⌈K/S⌉+slack entries, so once a cache evicts, which keys survive
// differs from the serial cache of K entries by design.
func invariant(agg string) bool {
	switch agg {
	case "qtype", "rcode", "detect_esld", "detect_nod":
		return true
	}
	return false
}

// setup is one workload's prepared input and references.
type setup struct {
	// s is the stream every timed ingest pass replays; frames is its
	// pre-encoded sensor connection (fleet).
	s      *stream
	txs    int
	frames []byte
	// shardedRef digests the store of a sharded reference pass over s.
	// The query workload has none: its first timed pass is the
	// reference for the later ones.
	shardedRef digests
	// store is the columnar store analyst queries read, storeRef its
	// digests, and refTSV holds the same snapshots in the TSV backend:
	// the reference answer to every query. For the ingest workloads
	// store is the reference pass's store; for query it is the two-hour
	// store.
	store    *tsv.Store
	storeRef digests
	refTSV   *tsv.Store
	mix      []analystQuery
	// storeInput describes the stream the query workload's store was
	// built from.
	storeInput string
}

// prepare generates the stream and builds the reference: a sharded
// pass writing the columnar store and a TSV copy of it. The query
// workload builds its two-hour store that way from its reduced-rate
// stream; its timed ingest passes replay the steady stream.
func prepare(o *options, cfg simnet.Config, fleet bool, dir string) (*setup, error) {
	s, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	su := &setup{}
	if su.refTSV, err = tsv.NewStore(filepath.Join(dir, "tsv")); err != nil {
		return nil, err
	}
	if o.workload == "query" {
		build, err := runJob(s.reader(), jobOptions{dir: filepath.Join(dir, "store"), tee: su.refTSV, want: s.txs})
		if err == nil {
			err = build.check(s.txs, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("query store: %w", err)
		}
		su.store = build.store
		su.storeInput = fmt.Sprintf("%d transactions, %d bytes, %d windows", s.txs, len(s.sie), build.windows)
		if su.storeRef, err = digestDir(su.store.Dir()); err != nil {
			return nil, err
		}
		if s, err = generate(steadyConfig(o)); err != nil {
			return nil, err
		}
	}
	su.s, su.txs = s, s.txs
	if fleet {
		su.frames = s.seqFrames()
	}
	if su.store == nil {
		ref, err := runJob(s.reader(), jobOptions{dir: filepath.Join(dir, "sharded"), tee: su.refTSV, want: s.txs})
		if err == nil {
			err = ref.check(s.txs, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("sharded reference: %w", err)
		}
		if su.shardedRef, err = digestDir(ref.store.Dir()); err != nil {
			return nil, err
		}
		su.store, su.storeRef = ref.store, su.shardedRef
	}
	if su.mix, err = buildQueryMix(su.refTSV, o.seed, mixRounds); err != nil {
		return nil, err
	}
	return su, nil
}

// prepareTimes sets up setupRuns times (once for a traced run), records
// the median as setup_s and returns the last setup.
//
// No run deletes files until it exits: on ext4, deleting the previous
// pass's store makes the next pass's fsyncs slower and less steady.
func prepareTimes(o *options, l *ledger, cfg simnet.Config, fleet bool) (*setup, error) {
	runs := setupRuns
	if o.trace {
		runs = 1
	}
	var times []float64
	var su *setup
	for i := 0; i < runs; i++ {
		su = nil // let the previous setup's stream be collected
		t0 := time.Now()
		var err error
		if su, err = prepare(o, cfg, fleet, filepath.Join(o.dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if !o.trace {
		l.set("setup_s", "s", median(times))
	}
	return su, nil
}

func runSteady(o *options, l *ledger) error { return ingestWorkload(o, l, steadyConfig(o), false) }
func runFlood(o *options, l *ledger) error  { return ingestWorkload(o, l, floodConfig(o), false) }
func runFleet(o *options, l *ledger) error  { return ingestWorkload(o, l, steadyConfig(o), true) }

// passResult is one ingest pass in either transport.
type passResult struct {
	name  string
	job   *jobResult
	fleet *fleetPass
}

// pass runs one ingest pass of the workload: in-process from the SIE
// bytes, or over TCP through a WAL-backed collector.
func (su *setup) pass(o *options, fleet bool, jo jobOptions, name string) (*passResult, error) {
	jo.dir = filepath.Join(o.dir, name)
	jo.want = su.txs
	if !fleet {
		job, err := runJob(su.s.reader(), jo)
		return &passResult{name: name, job: job}, err
	}
	fp, err := runFleetPass(su.frames, su.txs, jo, filepath.Join(o.dir, name+"-wal"), false)
	if fp == nil {
		return nil, err
	}
	return &passResult{name: name, job: fp.job, fleet: fp}, err
}

// verify checks a pass against its reference (nil: accounting only)
// and counts its operations.
func (p *passResult) verify(l *ledger, want int, ref digests) {
	j := p.job
	l.count(uint64(want)+j.puts+1, j.failedTx+j.putFailed)
	if err := j.check(want, ref); err != nil {
		l.fail(fmt.Errorf("%s: %w", p.name, err))
	}
	if p.fleet != nil {
		if err := p.fleet.check(want); err != nil {
			l.fail(fmt.Errorf("%s: %w", p.name, err))
		}
	}
	if n := j.failedTx + j.putFailed; n > 0 {
		l.fail(fmt.Errorf("%s: %d failed operations", p.name, n))
	}
}

// checker verifies the passes of one engine: every pass must match ref
// byte for byte. With ref unset, the first pass becomes the reference,
// once it agrees with the peer engine's reference on the invariant
// streams (serial passes are checked against the sharded ones).
type checker struct {
	ref  digests
	peer *checker
}

func (c *checker) verify(l *ledger, p *passResult, want int) {
	p.verify(l, want, c.ref)
	if c.ref != nil {
		return
	}
	d, err := digestDir(p.job.store.Dir())
	if err == nil && c.peer != nil && c.peer.ref != nil {
		err = c.peer.ref.equal(d, invariant)
	}
	if err != nil {
		l.fail(fmt.Errorf("%s: %w", p.name, err))
		return
	}
	c.ref = d
}

// ingestWorkload is steady, flood and fleet: after one untimed pass
// that samples the live heap at every window boundary, rounds of a
// sharded pass, an analyst query burst against its fresh store, and a
// serial Pipeline pass.
func ingestWorkload(o *options, l *ledger, cfg simnet.Config, fleet bool) error {
	su, err := prepareTimes(o, l, cfg, fleet)
	if err != nil {
		return err
	}
	if o.trace {
		return traceRun(o, l, su, fleet)
	}
	hp, err := su.pass(o, fleet, jobOptions{heap: true}, "heap")
	if err != nil {
		return fmt.Errorf("heap pass: %w", err)
	}
	sharded := &checker{ref: su.shardedRef}
	serialC := &checker{peer: sharded}
	sharded.verify(l, hp, su.txs)

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var rates, serial, lags, cascades []float64
	var qs queryStats
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		p, err := su.pass(o, fleet, jobOptions{}, fmt.Sprintf("pass-%d", i))
		if err != nil {
			return err
		}
		sharded.verify(l, p, su.txs)
		rates = append(rates, float64(p.job.accepted)/p.job.ingest.Seconds())
		lags = append(lags, p.job.lagsMs...)
		cascades = append(cascades, p.job.cascade.Seconds())
		if err := burst(p.job.store, su.mix, &qs); err != nil {
			return err
		}

		p, err = su.pass(o, fleet, jobOptions{serial: true}, fmt.Sprintf("serial-%d", i))
		if err != nil {
			return err
		}
		serialC.verify(l, p, su.txs)
		serial = append(serial, float64(p.job.accepted)/p.job.ingest.Seconds())
	}
	l.set("ingest_tx_per_s", "tx/s", median(rates))
	l.set("serial_tx_per_s", "tx/s", median(serial))
	l.set("window_lag_p50_ms", "ms", quantile(lags, 0.50))
	l.note("window_lag_p90_ms", "ms", quantile(lags, 0.90))
	l.note("cascade_s", "s", median(cascades))
	l.set("live_heap_mb", "MiB", float64(hp.job.peakHeap)/mib)
	queryMetrics(l, &qs)
	fmt.Printf("input: %d transactions, %d bytes, %d windows; %d window-lag samples; %d queries\n",
		su.txs, len(su.s.sie), hp.job.windows, len(lags), len(qs.rttMs))
	fmt.Printf("sharded passes, tx/s: %.0f\nserial passes, tx/s: %.0f\n", rates, serial)
	return nil
}

// burst runs burstQueries queries of the mix against a fresh store over
// HTTP, continuing through the mix where the previous burst stopped. It
// collects the pass before it first, so the queries do not pay for
// collecting the ingest engine.
func burst(st *tsv.Store, mix []analystQuery, qs *queryStats) error {
	collect()
	srv, err := serve(st)
	if err != nil {
		return err
	}
	for i := 0; i < burstQueries; i++ {
		srv.do(&mix[qs.attempts%uint64(len(mix))], qs)
	}
	return srv.close()
}

// queryMetrics sets the query end-to-end metrics from one client's
// closed-loop queries; the rate is over the time spent in round trips.
func queryMetrics(l *ledger, qs *queryStats) {
	l.count(qs.attempts, qs.failed)
	if qs.wrong != nil {
		l.fail(qs.wrong)
	}
	l.set("query_p50_ms", "ms", quantile(qs.rttMs, 0.50))
	l.note("query_p99_ms", "ms", quantile(qs.rttMs, 0.99))
	l.note("queries_per_s", "1/s", ratio(float64(len(qs.rttMs)), qs.busy.Seconds()))
}

// runQuery is the analyst workload. Setup ingests two hours of the
// steady generator at a reduced rate into a columnar store and a TSV
// copy (the reference). Each round issues a batch of the seeded query
// mix over HTTP in a closed loop with one client, samples the live
// heap, re-cascades the store's minutely files, and ingests the steady
// stream of the same seed, sharded and serial.
func runQuery(o *options, l *ledger) error {
	su, err := prepareTimes(o, l, queryConfig(o), false)
	if err != nil {
		return err
	}
	if o.trace {
		return traceRun(o, l, su, false)
	}
	collect()
	base := liveHeap()
	st, err := tsv.NewColumnarStore(su.store.Dir())
	if err != nil {
		return err
	}
	srv, err := serve(st)
	if err != nil {
		return err
	}
	var qs queryStats
	var peak uint64
	var rates, serial, lags, cascades []float64
	sharded := &checker{}
	serialC := &checker{peer: sharded}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		collect()
		for j := 0; j < queryBatch; j++ {
			srv.do(&su.mix[(i*queryBatch+j)%len(su.mix)], &qs)
		}
		collect()
		if h := liveHeap(); h > peak {
			peak = h
		}
		d, err := recascade(o, su.store.Dir(), su.storeRef, fmt.Sprintf("cascade-%d", i))
		l.count(1, 0)
		if err != nil {
			l.fail(err)
		}
		cascades = append(cascades, d.Seconds())

		p, err := su.pass(o, false, jobOptions{}, fmt.Sprintf("pass-%d", i))
		if err != nil {
			return err
		}
		sharded.verify(l, p, su.txs)
		rates = append(rates, float64(p.job.accepted)/p.job.ingest.Seconds())
		lags = append(lags, p.job.lagsMs...)
		p, err = su.pass(o, false, jobOptions{serial: true}, fmt.Sprintf("serial-%d", i))
		if err != nil {
			return err
		}
		serialC.verify(l, p, su.txs)
		serial = append(serial, float64(p.job.accepted)/p.job.ingest.Seconds())
	}
	if err := srv.close(); err != nil {
		return err
	}
	l.set("ingest_tx_per_s", "tx/s", median(rates))
	l.set("serial_tx_per_s", "tx/s", median(serial))
	l.set("window_lag_p50_ms", "ms", quantile(lags, 0.50))
	l.note("window_lag_p90_ms", "ms", quantile(lags, 0.90))
	l.note("cascade_s", "s", median(cascades))
	l.set("live_heap_mb", "MiB", float64(sub(peak, base))/mib)
	queryMetrics(l, &qs)
	fmt.Printf("store input: %s\n", su.storeInput)
	fmt.Printf("input: %d steady transactions per pass; %d window-lag samples; %d cascades; %d queries\n",
		su.txs, len(lags), len(cascades), len(qs.rttMs))
	fmt.Printf("sharded passes, tx/s: %.0f\nserial passes, tx/s: %.0f\ncascades, s: %.3f\n", rates, serial, cascades)
	return nil
}

// recascade links a store's minutely files into a fresh columnar
// store, runs CascadeAll and Retention over them, and checks every
// level against the store's digests. Hard links write no file data.
func recascade(o *options, src string, ref digests, name string) (time.Duration, error) {
	dir := filepath.Join(o.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var last int64
	for _, e := range ents {
		_, level, start, err := tsv.ParseFileName(e.Name())
		if err != nil || level != tsv.Minutely {
			continue
		}
		if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dir, e.Name())); err != nil {
			return 0, err
		}
		last = max(last, start)
	}
	st, err := tsv.NewColumnarStore(dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = st.CascadeAll(aggNames(), last+windowSec)
	for _, agg := range aggNames() {
		if err != nil {
			break
		}
		err = st.Retention(agg)
	}
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	got, err := digestDir(dir)
	if err == nil {
		err = ref.equal(got, nil)
	}
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}
