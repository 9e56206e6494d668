package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the metric list BENCHMARK.json declares.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tiny(t *testing.T, workload string, trace bool) *options {
	return &options{workload: workload, seed: 3, seconds: 0.01, trace: trace, scale: 0.1, dir: t.TempDir()}
}

// TestWorkloadsTiny runs every workload at a tiny scale, untraced and
// traced: every correctness check must pass, nothing may fail, and the
// run must report exactly the metrics BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range []string{"steady", "flood", "fleet", "query"} {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			name := wl
			if trace {
				want, name = bf.PerLayer, wl+"/trace"
			}
			t.Run(name, func(t *testing.T) {
				l := newLedger()
				if err := workloads[wl](tiny(t, wl, trace), l); err != nil {
					t.Fatal(err)
				}
				if l.wrong != nil {
					t.Fatalf("correctness check failed: %v", l.wrong)
				}
				if l.attempted == 0 || l.failed != 0 {
					t.Fatalf("attempted %d, failed %d", l.attempted, l.failed)
				}
				if len(l.metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(l.metrics), len(want))
				}
				if !trace {
					for _, n := range []string{"window_lag_p90_ms", "cascade_s", "query_p99_ms", "queries_per_s"} {
						if m, ok := l.noted[n]; !ok || m.Value <= 0 {
							t.Errorf("noted metric %s: %+v (present %v)", n, m, ok)
						}
					}
				}
				for _, m := range want {
					got, ok := l.metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestCheckCatchesStoreDigestMismatch changes one byte of one snapshot
// file after a pass: the pass must no longer match its reference.
func TestCheckCatchesStoreDigestMismatch(t *testing.T) {
	o := tiny(t, "steady", false)
	su, err := prepare(o, steadyConfig(o), false, filepath.Join(o.dir, "setup"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := su.pass(o, false, jobOptions{}, "pass")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.job.check(su.txs, su.shardedRef); err != nil {
		t.Fatalf("untouched pass: %v", err)
	}
	dir := p.job.store.Dir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "qname-min-") {
			victim = filepath.Join(dir, e.Name())
			break
		}
	}
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 1
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.job.check(su.txs, su.shardedRef); err == nil {
		t.Fatal("check passed on a store whose snapshot differs from the reference")
	}
}

// TestFleetCheckCatchesEarlyClose closes the collector as soon as it
// has read every frame, before spilled frames are replayed: transactions
// are lost and the fleet check must say so. At full scale the sender
// outruns the engine, so most frames take the spill path.
func TestFleetCheckCatchesEarlyClose(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale stream")
	}
	o := &options{workload: "fleet", seed: 1, seconds: 1, scale: 1, dir: t.TempDir()}
	s, err := generate(steadyConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	for _, early := range []bool{false, true} {
		name := "drained"
		if early {
			name = "early"
		}
		jo := jobOptions{dir: filepath.Join(o.dir, name), want: s.txs}
		p, err := runFleetPass(s.seqFrames(), s.txs, jo, filepath.Join(o.dir, name+"-wal"), early)
		if err != nil {
			t.Fatal(err)
		}
		err = p.check(s.txs)
		if early && err == nil {
			t.Fatalf("early close delivered %d of %d transactions and the check passed", p.job.accepted, s.txs)
		}
		if !early && err != nil {
			t.Fatalf("drained close: %v", err)
		}
		if early && p.job.failedTx == 0 {
			t.Fatal("early close: lost transactions not counted as failed")
		}
		t.Logf("%s: delivered %d of %d (spilled %d)", name, p.job.accepted, s.txs, p.stats.Spilled)
	}
}

// TestStageAllocsRepeat runs the stage-isolated passes twice over the
// same stream: every allocation count must repeat exactly.
func TestStageAllocsRepeat(t *testing.T) {
	o := tiny(t, "flood", true)
	s, err := generate(floodConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]map[string]float64
	for i := range runs {
		runs[i] = map[string]float64{}
		if _, err := stages(o, s, func(name string, v float64) { runs[i][name] = v }); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for name, v := range runs[0] {
		if !strings.Contains(name, "allocs_per_tx") && !strings.HasSuffix(name, "bytes_per_tx") {
			continue
		}
		n++
		if runs[1][name] != v {
			t.Errorf("%s: %v, then %v", name, v, runs[1][name])
		}
	}
	if n == 0 {
		t.Fatal("stages reported no allocation counts")
	}
}
