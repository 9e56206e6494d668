package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/transport"
)

// Input sizes at scale 1. Ingest streams span ten one-minute windows,
// so one pass yields 100 snapshots (8 aggregations + 2 detect streams
// per window) and a complete 10-minute cascade level. The query store
// spans two hours of minutely windows, so it has complete 10-minute and
// hourly levels, at a reduced rate.
const (
	windowSec   = 60
	ingestSpan  = 600
	ingestQPS   = 50
	querySpan   = 7200
	queryQPS    = 0.5
	sensorName  = "perfbench"
	sensorEpoch = 1
)

// steadyConfig is the paper-shaped default mix (simnet.DefaultConfig).
func steadyConfig(o *options) simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Seed = o.seed
	cfg.Duration = ingestSpan
	cfg.QPS = ingestQPS * o.scale
	return cfg
}

// floodConfig keeps the steady topology with an attack-heavy mix: DGA
// botnet, pseudo-random-subdomain, rare and exfiltration lookups make
// most names new, so the working set far exceeds Space-Saving capacity.
func floodConfig(o *options) simnet.Config {
	cfg := steadyConfig(o)
	cfg.Mix.Forward = 0.30
	cfg.Mix.Botnet = 0.20
	cfg.Mix.PRSD = 0.20
	cfg.Mix.Rare = 0.05
	cfg.Mix.Exfil = 0.01
	return cfg
}

// queryConfig is the steady generator at a reduced rate over two hours.
func queryConfig(o *options) simnet.Config {
	cfg := steadyConfig(o)
	cfg.Duration = querySpan
	cfg.QPS = queryQPS * o.scale
	return cfg
}

// stream is one generated input: the SIE byte stream the program reads,
// and the offsets of its frames' bodies for stage-isolated passes.
type stream struct {
	sie []byte
	txs int
	// bodies[i] is transaction i's serialized body within sie.
	bodies [][2]int
}

// generate runs the simulator and serializes its transactions.
func generate(cfg simnet.Config) (*stream, error) {
	var buf bytes.Buffer
	w := sie.NewWriter(&buf)
	var werr error
	simnet.New(cfg).Run(func(tx *sie.Transaction) {
		if werr == nil {
			werr = w.Write(tx)
		}
	})
	if werr != nil {
		return nil, fmt.Errorf("generate: %w", werr)
	}
	return newStream(buf.Bytes())
}

// newStream indexes the frames of an SIE byte stream.
func newStream(b []byte) (*stream, error) {
	s := &stream{sie: b}
	// Each frame is [uvarint length][body].
	for off := 0; off < len(b); {
		n, k := binary.Uvarint(b[off:])
		if k <= 0 || off+k+int(n) > len(b) {
			return nil, fmt.Errorf("stream: bad frame at offset %d", off)
		}
		s.bodies = append(s.bodies, [2]int{off + k, off + k + int(n)})
		off += k + int(n)
	}
	s.txs = len(s.bodies)
	if s.txs == 0 {
		return nil, fmt.Errorf("stream: no transactions")
	}
	return s, nil
}

// reader returns a fresh sie.Reader over the stream.
func (s *stream) reader() *sie.Reader { return sie.NewReader(bytes.NewReader(s.sie)) }

// body returns transaction i's serialized form.
func (s *stream) body(i int) []byte { return s.sie[s.bodies[i][0]:s.bodies[i][1]] }

// seqFrames pre-encodes the stream as one sensor connection: a hello
// and one sequenced data frame per transaction.
func (s *stream) seqFrames() []byte {
	out := transport.AppendHelloEpoch(nil, sensorName, sensorEpoch)
	for i := range s.bodies {
		out = transport.AppendSeqData(out, uint64(i+1), s.body(i))
	}
	return out
}

// transactions decodes every transaction, aliasing the stream bytes.
func (s *stream) transactions() ([]sie.Transaction, error) {
	txs := make([]sie.Transaction, s.txs)
	for i := range txs {
		if err := txs[i].Unmarshal(s.body(i)); err != nil {
			return nil, fmt.Errorf("transaction %d: %w", i, err)
		}
	}
	return txs, nil
}
