package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nonexposure/internal/service"
)

// batchSize is how many uploads one upload_batch request carries.
const batchSize = 256

// tally counts the operations of one phase by outcome.
type tally struct {
	attempted, ok, unclusterable, failed int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.unclusterable += o.unclusterable
	t.failed += o.failed
}

func (t *tally) count(o outcome) {
	t.attempted++
	switch o {
	case outcomeOK:
		t.ok++
	case outcomeUnclusterable:
		t.unclusterable++
	default:
		t.failed++
	}
}

// transport reports whether a client error is a transport failure (the
// client wraps the network error) rather than the server's own answer.
func transport(err error) bool { return errors.Unwrap(err) != nil }

// uploadAll sends entries as upload_batch requests, split into one
// contiguous share per client, all shares in parallel. It returns when
// every share is acknowledged.
func uploadAll(clients []*service.Client, entries []service.UploadEntry) (tally, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	per := (len(entries) + len(clients) - 1) / len(clients)
	for i, c := range clients {
		lo, hi := i*per, (i+1)*per
		if hi > len(entries) {
			hi = len(entries)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(i int, c *service.Client, share []service.UploadEntry) {
			defer wg.Done()
			for len(share) > 0 {
				b := share
				if len(b) > batchSize {
					b = b[:batchSize]
				}
				share = share[len(b):]
				n, err := c.UploadBatch(b)
				if err == nil && n != len(b) {
					err = fmt.Errorf("upload_batch accepted %d of %d", n, len(b))
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c, entries[lo:hi])
	}
	wg.Wait()
	t := tally{attempted: int64(len(entries))}
	if err := errors.Join(errs...); err != nil {
		t.failed = t.attempted
		return t, err
	}
	t.ok = t.attempted
	return t, nil
}

// rotate asks the coordinator for a new epoch; the reply arrives when
// every shard serves it.
func rotate(c *service.Client) error {
	p, err := c.Rotate()
	if err != nil {
		return err
	}
	if !p.Published {
		return fmt.Errorf("rotate replied before every shard published (epoch %d)", p.Epoch)
	}
	return nil
}

// tickTiming is one upload-then-rotate round as the client saw it.
type tickTiming struct {
	upload  time.Duration // first upload sent -> last upload acknowledged
	refresh time.Duration // first upload sent -> rotate reply
	uploads int
}

// runTick uploads entries over uploaders, then rotates over rotator.
func runTick(uploaders []*service.Client, rotator *service.Client, entries []service.UploadEntry) (tickTiming, tally, error) {
	t0 := time.Now()
	t, err := uploadAll(uploaders, entries)
	up := time.Since(t0)
	if err != nil {
		return tickTiming{}, t, fmt.Errorf("upload: %w", err)
	}
	t.attempted++
	if err := rotate(rotator); err != nil {
		t.failed++
		return tickTiming{}, t, fmt.Errorf("rotate: %w", err)
	}
	t.ok++
	return tickTiming{upload: up, refresh: time.Since(t0), uploads: len(entries)}, t, nil
}

// setupTiming is one set-up of the system under test.
type setupTiming struct {
	total time.Duration // process start -> first epoch serving everywhere
	tick  tickTiming    // the initial upload of the population + rotate
}

// setUp starts a fresh child and loads the whole population into it.
func setUp(o options, in *inputs, k, conns int) (*sut, setupTiming, tally, error) {
	t0 := time.Now()
	s, err := startSUT(o.cloakd, o.sutCPUs, in.n, k, conns)
	if err != nil {
		return nil, setupTiming{}, tally{}, err
	}
	tt, t, err := runTick(s.clients, s.clients[0], in.initial)
	if err != nil {
		s.kill()
		return nil, setupTiming{}, t, fmt.Errorf("initial load: %w", err)
	}
	return s, setupTiming{total: time.Since(t0), tick: tt}, t, nil
}

// cloakLog is what one closed-loop cloak connection observed: each
// answered request's latency and its completion offset from the origin.
type cloakLog struct {
	lat, at []time.Duration
	tally
	err error
}

// cloakLoop sends hosts[i%len] over c, one request at a time, until stop
// is set. Each answer is judged against the reference epochs the request
// may have been served from: those between the rotations completed
// before it was sent and one past those completed when it returned.
func cloakLoop(c *service.Client, hosts []int32, ref *reference, rotations *atomic.Int64, stop *atomic.Bool, origin time.Time) cloakLog {
	log := cloakLog{lat: make([]time.Duration, 0, 1<<16), at: make([]time.Duration, 0, 1<<16)}
	for i := 0; !stop.Load(); i++ {
		h := hosts[i%len(hosts)]
		lo := int(rotations.Load())
		t0 := time.Now()
		p, err := c.CloakV1(h)
		end := time.Now()
		hi := int(rotations.Load()) + 1
		if err != nil && transport(err) {
			log.count(outcomeFailed)
			log.err = err
			return log
		}
		var members []int32
		if p != nil {
			members = p.Cluster
		}
		log.lat = append(log.lat, end.Sub(t0))
		log.at = append(log.at, end.Sub(origin))
		log.count(ref.classifyAny(lo, hi, h, members, err != nil))
	}
	return log
}

// sweepResult is the post-window correctness sweep over every user.
type sweepResult struct {
	tally
	lat, at  []time.Duration // latency and completion offset from the sweep's start
	elapsed  time.Duration
	sizeSum  float64
	areaSum  float64
	firstBad string
}

// sweep cloaks every user once through the coordinator, split across the
// clients, and compares each outcome with the reference's final epoch:
// the same member set, or a refusal on both sides.
func sweep(clients []*service.Client, in *inputs, st *refState, k int) sweepResult {
	var mu sync.Mutex
	var res sweepResult
	var wg sync.WaitGroup
	t0 := time.Now()
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *service.Client) {
			defer wg.Done()
			var part sweepResult
			broken := false // after a transport error the rest of the share is unserved
			for u := int32(w); u < int32(in.n); u += int32(len(clients)) {
				var members []int32
				var err error
				o := outcomeFailed
				if !broken {
					t1 := time.Now()
					var p *service.CloakPayload
					p, err = c.CloakV1(u)
					end := time.Now()
					if p != nil {
						members = p.Cluster
					}
					if broken = err != nil && transport(err); !broken {
						part.lat = append(part.lat, end.Sub(t1))
						part.at = append(part.at, end.Sub(t0))
						o = st.classify(u, members, err != nil, k)
					}
				}
				part.count(o)
				switch o {
				case outcomeOK:
					part.sizeSum += float64(len(members))
					part.areaSum += bboxArea(members, in.final)
				case outcomeFailed:
					if part.firstBad == "" {
						part.firstBad = fmt.Sprintf("user %d: got %v (err %v), reference cluster %d", u, members, err, st.cid[u])
					}
				}
			}
			mu.Lock()
			res.tally.add(part.tally)
			res.lat = append(res.lat, part.lat...)
			res.at = append(res.at, part.at...)
			res.sizeSum += part.sizeSum
			res.areaSum += part.areaSum
			if res.firstBad == "" {
				res.firstBad = part.firstBad
			}
			mu.Unlock()
		}(w, c)
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}
