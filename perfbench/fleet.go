package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/transport"
	"dnsobservatory/internal/wal"
)

// drainTimeout bounds how long a fleet pass waits for the collector to
// deliver every frame it received before closing it anyway; whatever is
// not delivered by then counts as failed.
const drainTimeout = 60 * time.Second

// collectorSource reads the collector's ingest channel, as dnsobs does
// with -listen, and times how long the ingest loop waits on it.
type collectorSource struct {
	c      <-chan *sie.Transaction
	traced bool
	waitNs int64
}

func (s *collectorSource) Read(tx *sie.Transaction) error {
	var t0 time.Time
	if s.traced {
		t0 = time.Now()
	}
	rx, ok := <-s.c
	if s.traced {
		s.waitNs += int64(time.Since(t0))
	}
	if !ok {
		return io.EOF
	}
	*tx = *rx
	return nil
}

// fleetPass is one stream delivered from a generator connection over
// loopback TCP to a collector journaling to a WAL, and ingested from the
// collector's channel.
type fleetPass struct {
	job     *jobResult
	stats   transport.CollectorStats
	wal     transport.WALStatus
	appends float64
	waitNs  int64
	sendErr error
}

// runFleetPass sends frames (one hello, then want sequenced data
// frames) and ingests what the collector delivers. With closeEarly the
// collector is closed as soon as it has read every frame, without
// waiting for spilled frames to be replayed — the defect the drain wait
// exists to prevent; only tests set it.
func runFleetPass(frames []byte, want int, o jobOptions, walDir string, closeEarly bool) (*fleetPass, error) {
	reg := metrics.NewRegistry()
	coll := transport.NewCollector(transport.CollectorConfig{Metrics: reg})
	if err := coll.OpenWAL(walDir, wal.Options{}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coll.Close()
		coll.CloseWAL()
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- coll.Serve(ln) }()

	sent := make(chan error, 1)
	go func() { sent <- send(ln.Addr().String(), frames, uint64(want)) }()

	// The closer waits for the sender, then for every received frame to
	// reach the ingest channel, and only then closes the collector:
	// Close leaves spilled-but-unreplayed frames in the journal.
	closed := make(chan error, 1)
	go func() {
		err := <-sent
		deadline := time.Now().Add(drainTimeout)
		for time.Now().Before(deadline) {
			st := coll.Stats()
			if closeEarly && st.Frames >= uint64(want) {
				break
			}
			if st.Frames >= uint64(want) && st.Enqueued == st.Frames-st.Deduped-st.DecodeErrors-st.Shed {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		coll.Close()
		closed <- err
	}()

	src := &collectorSource{c: coll.C(), traced: o.traced}
	job, jobErr := runJob(src, o)
	sendErr := <-closed
	if jobErr != nil {
		// Drain so the collector's handlers can finish.
		for range coll.C() {
		}
	}
	<-serveDone
	p := &fleetPass{job: job, stats: coll.Stats(), appends: reg.Sum(transport.MetricWALAppends), waitNs: src.waitNs, sendErr: sendErr}
	p.wal, _ = coll.WALStatus()
	if err := coll.CloseWAL(); err != nil && jobErr == nil {
		jobErr = err
	}
	return p, jobErr
}

// send writes the pre-encoded frames on one connection, draining acks
// concurrently, and returns once the collector has acknowledged the
// last sequence number.
func send(addr string, frames []byte, last uint64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	acked := make(chan error, 1)
	go func() {
		fr := transport.NewFrameReader(conn)
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				acked <- fmt.Errorf("reading acks: %w", err)
				return
			}
			if typ != transport.FrameAck {
				continue
			}
			seq, err := transport.ParseAck(payload)
			if err != nil {
				acked <- err
				return
			}
			if seq >= last {
				acked <- nil
				return
			}
		}
	}()
	const chunk = 64 << 10
	for off := 0; off < len(frames); off += chunk {
		end := min(off+chunk, len(frames))
		if _, err := conn.Write(frames[off:end]); err != nil {
			return err
		}
	}
	return <-acked
}

// check verifies the collector's accounting identity and that every
// frame sent was delivered to the engine.
func (p *fleetPass) check(want int) error {
	if p.sendErr != nil {
		return fmt.Errorf("generator: %w", p.sendErr)
	}
	st := p.stats
	if st.Frames+st.Replayed != st.Deduped+st.DecodeErrors+st.Shed+st.Enqueued+st.Spilled {
		return fmt.Errorf("collector identity: frames %d + replayed %d != deduped %d + decode errors %d + shed %d + enqueued %d + spilled %d",
			st.Frames, st.Replayed, st.Deduped, st.DecodeErrors, st.Shed, st.Enqueued, st.Spilled)
	}
	if st.Frames != uint64(want) || st.Enqueued != uint64(want) {
		return fmt.Errorf("collector received %d and delivered %d of %d frames", st.Frames, st.Enqueued, want)
	}
	return nil
}
