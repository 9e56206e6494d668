package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// aggNames lists every snapshot stream the deployed engine writes:
// the eight standard aggregations and the two detection streams.
func aggNames() []string {
	var names []string
	for _, a := range observatory.StandardAggregations(kFactor) {
		names = append(names, a.Name)
	}
	return append(names, "detect_esld", "detect_nod")
}

// kFactor is the dnsobs default capacity scale of the standard
// aggregations.
const kFactor = 0.1

// engineConfig is the deployed engine configuration: dnsobs defaults
// with detection on.
func engineConfig() observatory.Config {
	cfg := observatory.DefaultConfig()
	dc := detect.DefaultConfig()
	cfg.Detect = &dc
	return cfg
}

// engine abstracts the serial Pipeline and the sharded engine the way
// dnsobs drives them: borrow a summary, fill it, commit it at a stream
// time, or discard and reject it.
type engine struct {
	borrow  func() *sie.Summary
	ingest  func(now float64)
	discard func()
	reject  func()
	flush   func()
	stats   func() observatory.EngineStats
}

func newEngine(serial bool, onSnapshot func(*tsv.Snapshot)) *engine {
	aggs := observatory.StandardAggregations(kFactor)
	if serial {
		p := observatory.New(engineConfig(), aggs, onSnapshot)
		var sum sie.Summary
		return &engine{
			borrow:  func() *sie.Summary { return &sum },
			ingest:  func(now float64) { p.Ingest(&sum, now) },
			discard: func() {},
			reject:  p.RecordRejected,
			flush:   p.Flush,
			stats:   p.Stats,
		}
	}
	s := observatory.NewSharded(observatory.ShardedConfig{Config: engineConfig()}, aggs, onSnapshot)
	var cur *sie.Shared
	return &engine{
		borrow:  func() *sie.Summary { cur = s.Borrow(); return &cur.Summary },
		ingest:  func(now float64) { s.IngestShared(cur, now) },
		discard: func() { s.Discard(cur) },
		reject:  s.RecordRejected,
		flush:   s.Close,
		stats:   s.Stats,
	}
}

// source yields transactions: an sie.Reader, or a collector's channel.
type source interface {
	Read(tx *sie.Transaction) error
}

// jobOptions selects how one pass over a stream runs.
type jobOptions struct {
	serial bool
	dir    string     // columnar store directory
	tee    *tsv.Store // optional second store receiving the same snapshots
	want   int        // transactions the source will deliver
	heap   bool       // force a GC at each window boundary and sample the live heap
	// traced records the time spent inside each call into a layer: the
	// engine's ingest call, Put, and the collector's channel.
	traced bool
}

// jobResult is what one pass measured.
type jobResult struct {
	accepted    uint64
	ingest      time.Duration // first frame read until the final window's last Put returns
	cascade     time.Duration // CascadeAll plus Retention
	lagsMs      []float64
	windows     int
	puts        uint64
	putFailed   uint64
	failedTx    uint64
	stats       observatory.EngineStats
	peakHeap    uint64
	putNs       int64 // time inside Put
	store       *tsv.Store
	ingestCalls int64 // time inside engine ingest calls, minus serial Puts (traced passes)
	dumpNs      int64 // boundary ingest calls and the final flush, minus Put (serial traced passes)
}

// runJob drives one stream pass end to end: read, summarize, ingest,
// Put every snapshot into a columnar store, then cascade and apply
// retention, as dnsobs does.
func runJob(src source, o jobOptions) (*jobResult, error) {
	st, err := tsv.NewColumnarStore(o.dir)
	if err != nil {
		return nil, err
	}
	res := &jobResult{store: st}
	var mu sync.Mutex
	var lastStart int64 = -1
	var putErr error
	trig := map[int64]time.Time{}
	onSnapshot := func(s *tsv.Snapshot) {
		t0 := time.Now()
		err := st.Put(s)
		if err == nil && o.tee != nil {
			err = o.tee.Put(s)
		}
		done := time.Now()
		mu.Lock()
		defer mu.Unlock()
		res.puts++
		res.putNs += int64(done.Sub(t0))
		if err != nil {
			res.putFailed++
			if putErr == nil {
				putErr = err
			}
			return
		}
		if s.Start > lastStart {
			lastStart = s.Start
		}
		if t, ok := trig[s.Start]; ok {
			res.lagsMs = append(res.lagsMs, ms(done.Sub(t)))
		}
	}
	eng := newEngine(o.serial, onSnapshot)

	var summ sie.Summarizer
	summ.KeepUnparsableResponses = true
	var tx sie.Transaction
	var base time.Time
	var win float64 = -1 // start of the open window, in stream seconds
	var baseHeap uint64
	if o.heap {
		collect()
		baseHeap = liveHeap()
	}
	start := time.Now()
	for {
		err := src.Read(&tx)
		if err == io.EOF {
			break
		}
		if err != nil {
			var de *sie.DecodeError
			if errors.As(err, &de) {
				eng.reject()
				continue
			}
			eng.flush()
			return nil, err
		}
		if tx.QueryTime.IsZero() || (!base.IsZero() && tx.QueryTime.Before(base)) {
			eng.reject()
			continue
		}
		sum := eng.borrow()
		if err := summ.Summarize(&tx, sum); err != nil {
			eng.discard()
			eng.reject()
			continue
		}
		if base.IsZero() {
			base = tx.QueryTime.Truncate(time.Minute)
		}
		now := tx.QueryTime.Sub(base).Seconds()
		boundary := false
		if win < 0 {
			win = now - mod(now, windowSec)
			res.windows = 1
		}
		if now >= win+windowSec {
			if o.heap {
				runtime.GC()
				if h := liveHeap(); h > res.peakHeap {
					res.peakHeap = h
				}
			}
			t := time.Now()
			mu.Lock()
			for ; now >= win+windowSec; win += windowSec {
				trig[int64(win)] = t
				res.windows++
			}
			mu.Unlock()
			boundary = true
		}
		if !o.traced {
			eng.ingest(now)
			continue
		}
		// Traced: time the engine call. The serial engine Puts inside
		// it, on this goroutine; that time belongs to the store.
		var putBefore int64
		if o.serial {
			putBefore = res.putNsLocked(&mu)
		}
		t0 := time.Now()
		eng.ingest(now)
		d := int64(time.Since(t0))
		if o.serial {
			d -= res.putNsLocked(&mu) - putBefore
			if boundary {
				res.dumpNs += d
			}
		}
		res.ingestCalls += d
	}
	mu.Lock()
	if win >= 0 {
		trig[int64(win)] = time.Now()
	}
	mu.Unlock()
	putBefore := res.putNsLocked(&mu)
	t0 := time.Now()
	eng.flush()
	if o.serial && o.traced {
		res.dumpNs += int64(time.Since(t0)) - (res.putNsLocked(&mu) - putBefore)
	}
	res.ingest = time.Since(start)
	if o.heap {
		runtime.GC()
		if h := liveHeap(); h > res.peakHeap {
			res.peakHeap = h
		}
		res.peakHeap = sub(res.peakHeap, baseHeap)
	}
	res.stats = eng.stats()
	res.accepted = res.stats.Accepted
	res.failedTx = sub(uint64(o.want), res.stats.Accepted) + res.stats.Quarantined
	if putErr != nil {
		return res, fmt.Errorf("put: %w", putErr)
	}
	t0 = time.Now()
	err = st.CascadeAll(aggNames(), lastStart+windowSec)
	for _, name := range aggNames() {
		if err != nil {
			break
		}
		err = st.Retention(name)
	}
	if err == nil && o.tee != nil {
		err = o.tee.CascadeAll(aggNames(), lastStart+windowSec)
	}
	res.cascade = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("cascade: %w", err)
	}
	return res, nil
}

func (r *jobResult) putNsLocked(mu *sync.Mutex) int64 {
	mu.Lock()
	defer mu.Unlock()
	return r.putNs
}

// check verifies one pass: the engine's accounting identity, every
// generated transaction accepted, and (when ref is non-nil) a store
// byte-identical to the reference at every level.
func (r *jobResult) check(want int, ref digests) error {
	es := r.stats
	if es.Ingested != es.Accepted+es.Rejected+es.Shed {
		return fmt.Errorf("engine stats: ingested %d != accepted %d + rejected %d + shed %d",
			es.Ingested, es.Accepted, es.Rejected, es.Shed)
	}
	if es.Accepted != uint64(want) {
		return fmt.Errorf("engine accepted %d of %d generated transactions", es.Accepted, want)
	}
	if ref == nil {
		return nil
	}
	got, err := digestDir(r.store.Dir())
	if err != nil {
		return err
	}
	return ref.equal(got, nil)
}

// digests maps a store file name to the SHA-256 of its bytes.
type digests map[string][32]byte

func digestDir(dir string) (digests, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	d := digests{}
	for _, e := range ents {
		if e.IsDir() || e.Name()[0] == '.' {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		d[e.Name()] = sha256.Sum256(b)
	}
	return d, nil
}

// equal reports the first difference between the reference and got,
// restricted to files whose aggregation keep accepts (nil: all files).
func (ref digests) equal(got digests, keep func(agg string) bool) error {
	var diff []string
	n := 0
	for name, sum := range ref {
		agg, _, _, err := tsv.ParseFileName(name)
		if err != nil {
			return fmt.Errorf("reference store: %w", err)
		}
		if keep != nil && !keep(agg) {
			continue
		}
		n++
		if g, ok := got[name]; !ok || g != sum {
			diff = append(diff, name)
		}
	}
	for name := range got {
		agg, _, _, err := tsv.ParseFileName(name)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, ok := ref[name]; !ok && (keep == nil || keep(agg)) {
			diff = append(diff, name)
		}
	}
	if n == 0 {
		return errors.New("reference store is empty")
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("store differs from reference in %d of %d files, first %s", len(diff), n, diff[0])
	}
	return nil
}

// collect runs two full GC cycles. The first one only moves sync.Pool
// contents to the pools' victim caches; a pool that is a field of a
// finished sharded engine keeps that whole engine reachable until the
// second.
func collect() {
	runtime.GC()
	runtime.GC()
}

// liveHeap reads the runtime's live-heap figure after the last GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func mod(x, m float64) float64 {
	r := x - float64(int64(x/m))*m
	if r < 0 {
		r += m
	}
	return r
}

func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
