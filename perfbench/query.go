package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/webui"
)

// analystQuery is one /api/query request with the answer the reference
// TSV-backend store gives to the same query.
type analystQuery struct {
	kind string
	q    tsv.Query
	url  string // path and query string
	want *tsv.Result
}

// queryKinds is the fixed mix, in the order a seeded draw picks from:
// top-k over a minutely range (multi-window merge), top-k at the
// coarsest cascaded level, a projected request with a where predicate,
// and point lookups of present and of absent keys (bloom negatives).
var queryKinds = []string{"topk_range", "topk_coarse", "projected", "key_present", "key_absent"}

// rangeWindows is the span of every minutely-range query.
const rangeWindows = 5

// buildQueryMix builds rounds of the mix — every kind once per
// aggregation — and records the reference answers. The mix is fixed:
// round r reads the rangeWindows windows that end r windows before the
// newest one, looks up the top key of the range's newest non-empty
// window, and looks up a seeded absent key. Only the store contents
// and the absent keys vary with the seed. Several rounds spread the
// mix's latencies densely enough that its median does not jump between
// query kinds from one seed to the next.
func buildQueryMix(ref *tsv.Store, seed int64, rounds int) ([]analystQuery, error) {
	rng := rand.New(rand.NewSource(seed))
	var aggs []string
	for _, a := range observatory.StandardAggregations(kFactor) {
		aggs = append(aggs, a.Name)
	}
	mins, err := ref.List(aggs[0], tsv.Minutely)
	if err != nil {
		return nil, err
	}
	if len(mins) < rounds+rangeWindows {
		return nil, fmt.Errorf("query mix: reference store holds %d minutely windows", len(mins))
	}
	coarse := tsv.Minutely
	for l := tsv.Decaminutely; l <= tsv.MaxLevel; l++ {
		if s, err := ref.List(aggs[0], l); err == nil && len(s) > 0 {
			coarse = l
		}
	}
	var out []analystQuery
	for r := 0; r < rounds; r++ {
		first := len(mins) - rangeWindows - r
		from, to := mins[first], mins[first]+rangeWindows*windowSec
		for _, kind := range queryKinds {
			for _, agg := range aggs {
				q := tsv.Query{Agg: agg, Level: tsv.Minutely, From: from, To: to, K: 50}
				switch kind {
				case "topk_coarse":
					q.Level, q.From, q.To = coarse, 0, 0
				case "projected":
					q.Columns = []string{"hits", "nxd", "srvips"}
					q.OrderBy = "nxd"
					q.Where = []tsv.Pred{{Col: "hits", Min: 2, Max: math.Inf(1)}}
					q.K = 20
				case "key_present":
					// The first window of a store reports no fresh objects,
					// so walk back to a window with rows.
					for j := first + rangeWindows - 1; j >= 0 && q.Key == ""; j-- {
						snap, err := ref.Get(agg, tsv.Minutely, mins[j])
						if err != nil {
							return nil, err
						}
						if len(snap.Rows) > 0 {
							q.Key = snap.Rows[0].Key
						}
					}
					if q.Key == "" {
						return nil, fmt.Errorf("query mix: no %s window has rows", agg)
					}
				case "key_absent":
					q.Key = fmt.Sprintf("absent-%d.perfbench.invalid.", rng.Int63())
				}
				want, err := tsv.RunQuery(ref, q)
				if err != nil {
					return nil, fmt.Errorf("reference query %s: %w", kind, err)
				}
				out = append(out, analystQuery{kind: kind, q: q, url: queryURL(q), want: want})
			}
		}
	}
	return out, nil
}

// queryURL renders q as a GET /api/query request.
func queryURL(q tsv.Query) string {
	v := url.Values{}
	v.Set("agg", q.Agg)
	v.Set("level", q.Level.Name())
	v.Set("k", strconv.Itoa(q.K))
	if q.From != 0 {
		v.Set("from", strconv.FormatInt(q.From, 10))
	}
	if q.To != 0 {
		v.Set("to", strconv.FormatInt(q.To, 10))
	}
	if q.Key != "" {
		v.Set("key", q.Key)
	}
	if q.OrderBy != "" {
		v.Set("order", q.OrderBy)
	}
	if len(q.Columns) > 0 {
		cols := q.Columns[0]
		for _, c := range q.Columns[1:] {
			cols += "," + c
		}
		v.Set("cols", cols)
	}
	for _, p := range q.Where {
		lo, hi := "", ""
		if !math.IsInf(p.Min, -1) {
			lo = strconv.FormatFloat(p.Min, 'g', -1, 64)
		}
		if !math.IsInf(p.Max, 1) {
			hi = strconv.FormatFloat(p.Max, 'g', -1, 64)
		}
		v.Add("where", p.Col+":"+lo+":"+hi)
	}
	return "/api/query?" + v.Encode()
}

// answer is the /api/query response body.
type answer struct {
	Columns []string `json:"columns"`
	Rows    []struct {
		Key    string             `json:"key"`
		Values map[string]float64 `json:"values"`
	} `json:"rows"`
}

// matches reports how the response differs from the reference result.
func (a *answer) matches(want *tsv.Result) error {
	if len(a.Columns) != len(want.Columns) {
		return fmt.Errorf("columns %v, want %v", a.Columns, want.Columns)
	}
	for i, c := range want.Columns {
		if a.Columns[i] != c {
			return fmt.Errorf("columns %v, want %v", a.Columns, want.Columns)
		}
	}
	if len(a.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(a.Rows), len(want.Rows))
	}
	for i, r := range want.Rows {
		if a.Rows[i].Key != r.Key {
			return fmt.Errorf("row %d key %q, want %q", i, a.Rows[i].Key, r.Key)
		}
		for c, name := range want.Columns {
			if got := a.Rows[i].Values[name]; got != r.Values[c] {
				return fmt.Errorf("row %d %s = %v, want %v", i, name, got, r.Values[c])
			}
		}
	}
	return nil
}

// server serves webui over loopback for one store, with one client.
type server struct {
	reg    *metrics.Registry
	base   string
	hs     *http.Server
	done   chan error
	client *http.Client
}

func serve(st *tsv.Store) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	st.Instrument(reg)
	ui := webui.NewServer(st)
	ui.Registry = reg
	s := &server{
		reg:    reg,
		base:   "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: ui.Handler()},
		done:   make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for it to return.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// queryStats accumulates one client's queries.
type queryStats struct {
	rttMs    []float64
	runMs    []float64 // direct Engine.Run of the same query (traced)
	busy     time.Duration
	attempts uint64
	failed   uint64
	wrong    error
	files    float64
	decoded  float64
	skipped  float64
	bloom    float64
}

// do issues one query, times its round trip, and checks the answer.
func (s *server) do(aq *analystQuery, qs *queryStats) {
	qs.attempts++
	t0 := time.Now()
	resp, err := s.client.Get(s.base + aq.url)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rtt := time.Since(t0)
	qs.busy += rtt
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var a answer
	if err == nil {
		err = json.Unmarshal(body, &a)
	}
	if err == nil {
		err = a.matches(aq.want)
	}
	if err != nil {
		qs.failed++
		if qs.wrong == nil {
			qs.wrong = fmt.Errorf("query %s %s: %w", aq.kind, aq.url, err)
		}
		return
	}
	qs.rttMs = append(qs.rttMs, ms(rtt))
}

// counters snapshots the store read-path counters from the registry.
func (s *server) counters() [3]float64 {
	return [3]float64{
		s.reg.Sum("dnsobs_store_blocks_decoded_total"),
		s.reg.Sum("dnsobs_store_blocks_skipped_total"),
		s.reg.Sum("dnsobs_store_bloom_skips_total"),
	}
}

// traced runs one query directly through tsv.Engine, then over HTTP,
// recording the engine time, the store counters it moved and the round
// trip.
func (s *server) traced(eng *tsv.Engine, aq *analystQuery, qs *queryStats) {
	before := s.counters()
	t0 := time.Now()
	res, err := eng.Run(aq.q)
	d := time.Since(t0)
	after := s.counters()
	if err != nil {
		qs.attempts++
		qs.failed++
		if qs.wrong == nil {
			qs.wrong = fmt.Errorf("engine query %s: %w", aq.kind, err)
		}
		return
	}
	qs.runMs = append(qs.runMs, ms(d))
	qs.files += float64(res.Files)
	qs.decoded += after[0] - before[0]
	qs.skipped += after[1] - before[1]
	qs.bloom += after[2] - before[2]
	s.do(aq, qs)
}
