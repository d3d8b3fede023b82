package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// windowResult is what the timed window observed.
type windowResult struct {
	cloaks  cloakLog
	ticks   []tickTiming
	tickOps tally
	late    []time.Duration // tick start minus its scheduled time
	elapsed time.Duration
	sutCPU  time.Duration
	genCPU  time.Duration
}

// runWindow runs the workload's timed window against s: closed-loop
// cloak readers on the first sp.readers connections and, on the rest,
// the pre-generated ticks (back to back or on sp.period). Without ticks
// the window lasts exactly window; with ticks it ends when the last
// rotate returns.
func runWindow(s *sut, sp spec, in *inputs, ref *reference, window time.Duration) (windowResult, error) {
	var (
		w         windowResult
		rotations atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return w, err
	}
	gen0 := selfCPU()
	t0 := time.Now()
	logs := make([]cloakLog, sp.readers)
	for i := 0; i < sp.readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = cloakLoop(s.clients[i], in.hosts[i], ref, &rotations, &stop, t0)
		}(i)
	}
	var tickErr error
	if len(in.ticks) == 0 {
		time.Sleep(window)
	}
	writers := s.clients[sp.readers:]
	for i, tick := range in.ticks {
		if sp.period > 0 {
			due := t0.Add(time.Duration(i) * sp.period)
			time.Sleep(time.Until(due))
			w.late = append(w.late, time.Since(due))
		}
		tt, ops, err := runTick(writers, writers[0], tick)
		w.tickOps.add(ops)
		if err != nil {
			tickErr = fmt.Errorf("tick %d: %w", i, err)
			break
		}
		rotations.Add(1)
		w.ticks = append(w.ticks, tt)
	}
	stop.Store(true)
	wg.Wait()
	w.elapsed = time.Since(t0)
	w.genCPU = selfCPU() - gen0
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return w, err
	}
	w.sutCPU = cpu1 - cpu0
	for _, l := range logs {
		w.cloaks.lat = append(w.cloaks.lat, l.lat...)
		w.cloaks.at = append(w.cloaks.at, l.at...)
		w.cloaks.add(l.tally)
		if l.err != nil && tickErr == nil {
			tickErr = fmt.Errorf("cloak: %w", l.err)
		}
	}
	return w, tickErr
}

// slot is the length of the slices a window's cloaks are cut into by
// completion time. In cloak_during_churn it equals the tick period, so
// every slot holds exactly one tick.
const slot = 500 * time.Millisecond

// slotStat summarizes the cloaks that completed in one slot.
type slotStat struct {
	p50, p99 time.Duration
	rps      float64
}

// slotStats cuts a latency log into slots by completion offset (at) and
// summarizes every slot that lies wholly inside span. A span shorter than
// one slot (a tiny self-test sweep) is summarized as a whole.
func slotStats(lat, at []time.Duration, span time.Duration) []slotStat {
	width := slot
	if span < slot {
		width = span
	}
	buckets := make([][]time.Duration, int(span/width))
	for i, a := range at {
		if j := int(a / width); j < len(buckets) {
			buckets[j] = append(buckets[j], lat[i])
		}
	}
	var out []slotStat
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, slotStat{median(b), quantile(b, 0.99), float64(len(b)) / width.Seconds()})
		}
	}
	return out
}

// pool gathers the observations of every replicate of a run.
type pool struct {
	setups, sizes, areas, rss []float64
	slots                     []slotStat
	ticks                     []tickTiming
	samples                   int
}

// runE2E is the untraced run: replicas independent replicates, each on a
// freshly started system fed the identical inputs. Every timing is the
// better quartile of its pooled per-slice values (slots, ticks, set-ups):
// interference from other tenants of the box only ever slows a slice
// down, and it comes in bursts that can cover half a run, so the better
// quartile tracks the program while a median or a pooled percentile
// tracks the neighbours.
func runE2E(o options, sp spec, in *inputs, ref *reference) (*result, error) {
	var ops tally
	var p pool
	for r := 0; r < replicas; r++ {
		_, t, err := runReplicate(o, sp, in, ref, &p)
		ops.add(t)
		if err != nil {
			return nil, err
		}
	}
	if len(p.slots) == 0 || len(p.ticks) == 0 {
		return nil, fmt.Errorf("window too short: %d full %v slots, %d ticks", len(p.slots), slot, len(p.ticks))
	}
	var p50, p99, rps, upRates, refreshes []float64
	for _, s := range p.slots {
		p50 = append(p50, us(s.p50))
		p99 = append(p99, us(s.p99))
		rps = append(rps, s.rps)
	}
	for _, t := range p.ticks {
		upRates = append(upRates, float64(t.uploads)/t.upload.Seconds())
		refreshes = append(refreshes, ms(t.refresh))
	}
	m := map[string]metric{
		"setup_s":           {quantileF(p.setups, 0.25), "s"},
		"cloak_rps":         {quantileF(rps, 0.75), "req/s"},
		"cloak_p50_us":      {quantileF(p50, 0.25), "us"},
		"cloak_p99_us":      {quantileF(p99, 0.25), "us"},
		"upload_rps":        {quantileF(upRates, 0.75), "1/s"},
		"refresh_p50_ms":    {quantileF(refreshes, 0.25), "ms"},
		"cluster_size_mean": {medianF(p.sizes), "users"},
		"cloak_area_mean":   {medianF(p.areas), "unit2"},
		"rss_peak_mb":       {medianF(p.rss), "MiB"},
	}
	fmt.Printf("# pooled: %d replicates, %d cloak samples in %d slots of %v, %d ticks\n",
		replicas, p.samples, len(p.slots), slot, len(p.ticks))
	fmt.Printf("# setup_s of each replicate: %.4g\n", p.setups)
	return &result{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: m}, nil
}

// runReplicate sets the system up, measures the window, sweeps every
// user, runs the probe ticks of a workload without window ticks, and
// tears down, adding its observations to p. It returns the window for
// its CPU figures.
func runReplicate(o options, sp spec, in *inputs, ref *reference, p *pool) (windowResult, tally, error) {
	s, st, ops, err := setUp(o, in, k, conns)
	if err != nil {
		return windowResult{}, ops, err
	}
	w, err := runWindow(s, sp, in, ref, windowOf(o))
	ops.add(w.cloaks.tally)
	ops.add(w.tickOps)
	if err != nil {
		s.kill()
		return w, ops, err
	}
	sw := sweep(s.clients, in, ref.final(), k)
	ops.add(sw.tally)
	ticks := w.ticks
	for i, tick := range in.probes {
		tt, t, err := runTick(s.clients, s.clients[0], tick)
		ops.add(t)
		if err != nil {
			s.kill()
			return w, ops, fmt.Errorf("probe tick %d: %w", i, err)
		}
		ticks = append(ticks, tt)
	}
	hwm, err := peakRSS(s.pid())
	if err != nil {
		s.kill()
		return w, ops, err
	}
	if err := s.stop(); err != nil {
		return w, ops, err
	}
	if sw.ok == 0 {
		return w, ops, fmt.Errorf("sweep served nobody")
	}

	p.setups = append(p.setups, st.total.Seconds())
	// Cloak figures come from the window's readers; churn_write has
	// none, so its cloaks are the sweep's, issued right after the churn.
	if sp.readers > 0 {
		p.slots = append(p.slots, slotStats(w.cloaks.lat, w.cloaks.at, w.elapsed)...)
		p.samples += len(w.cloaks.lat)
	} else {
		p.slots = append(p.slots, slotStats(sw.lat, sw.at, sw.elapsed)...)
		p.samples += len(sw.lat)
	}
	p.ticks = append(p.ticks, ticks...)
	p.sizes = append(p.sizes, sw.sizeSum/float64(sw.ok))
	p.areas = append(p.areas, sw.areaSum/float64(sw.ok))
	p.rss = append(p.rss, hwm)

	fmt.Printf("# replicate: window cloaks %d ok, %d unclusterable, %d failed; sweep %d ok, %d unclusterable, %d failed\n",
		w.cloaks.ok, w.cloaks.unclusterable, w.cloaks.failed, sw.ok, sw.unclusterable, sw.failed)
	if len(w.late) > 0 {
		fmt.Printf("# tick schedule lateness: p50 %.2f ms, max %.2f ms over %d ticks\n", ms(median(w.late)), ms(quantile(w.late, 1)), len(w.late))
	}
	if sw.firstBad != "" {
		fmt.Printf("# sweep mismatch: %s\n", sw.firstBad)
	}
	fmt.Printf("# cpu: cloakd %v, generator %v over a %v window\n", w.sutCPU, w.genCPU, w.elapsed.Round(time.Millisecond))
	return w, ops, nil
}
