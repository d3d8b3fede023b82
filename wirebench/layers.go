package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nonexposure/internal/cluster"
	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

const (
	// ladderHosts is how many requests of the host stream the cloak
	// ladder replays at every rung, in ladderRounds alternating passes.
	ladderHosts  = 4000
	ladderRounds = 3
	// layerTicks caps the ticks the in-process stack replays.
	layerTicks = 20
	// readerPace is the pause between the tick phase's reader cloaks.
	readerPace = time.Millisecond
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one request share req.
type span struct {
	Name  string `json:"name"`
	Req   int64  `json:"req"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans is an in-memory span log, written out when the run ends.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func (sl *spans) record(name string, req int64, start, end time.Time) span {
	s := span{Name: name, Req: req, Start: int64(start.Sub(sl.t0)), End: int64(end.Sub(sl.t0))}
	sl.mu.Lock()
	sl.list = append(sl.list, s)
	sl.mu.Unlock()
	return s
}

func (sl *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sl.list {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stack is the cluster tier rebuilt in-process from the constructors
// cloakd uses: two service.Server shards on loopback and a coordinator
// routing to them by address, without locality keys, as cloakd does.
type stack struct {
	shards     []*service.Server
	ems        []*metrics.EpochMetrics
	cm         *metrics.ClusterMetrics
	coord      *cluster.Coordinator
	addr       string
	shardAddrs []string
}

func newStack(ctx context.Context, n int) (*stack, error) {
	st := &stack{cm: metrics.NewClusterMetrics()}
	for i := 0; i < 2; i++ {
		em := metrics.NewEpochMetrics()
		srv, err := service.New(service.WithNumUsers(n), service.WithK(k), service.WithMetrics(em))
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, srv)
		st.ems = append(st.ems, em)
		a, err := srv.Listen(ctx, "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		st.shardAddrs = append(st.shardAddrs, a.String())
	}
	coord, err := cluster.New(cluster.WithNumUsers(n), cluster.WithK(k),
		cluster.WithShardAddrs(st.shardAddrs...), cluster.WithClusterMetrics(st.cm))
	if err != nil {
		st.close()
		return nil, err
	}
	st.coord = coord
	a, err := coord.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.addr = a.String()
	return st, nil
}

// close stops the coordinator, then the shards. Callers close their own
// client connections first (see sut.stop for why).
func (st *stack) close() {
	if st.coord != nil {
		st.coord.Close()
	}
	for _, s := range st.shards {
		s.Close()
	}
}

// homeOf is the shard serving host: users are stored on exactly one
// shard (their component's home), so only that shard clusters them.
func (st *stack) homeOf(ctx context.Context, host int32) int {
	for i, s := range st.shards {
		if _, err := s.Manager().Cloak(ctx, host); err == nil {
			return i
		}
	}
	return -1
}

// layerRun collects the traced run's figures.
type layerRun struct {
	sl      *spans
	m       map[string]metric
	uploads []time.Duration
}

func (lr *layerRun) set(name, unit string, v float64) { lr.m[name] = metric{v, unit} }

// runLayers is the traced run. Phase A runs one untraced replicate on a
// cloakd child, for the process figures and the correctness sweep; phase
// B rebuilds the stack in-process and times calls into each layer.
func runLayers(o options, sp spec, in *inputs, ref *reference) (*result, error) {
	lr := &layerRun{sl: &spans{t0: time.Now()}, m: map[string]metric{}}

	// Phase A: one replicate of the system as shipped.
	w, ops, err := runReplicate(o, sp, in, ref, &pool{})
	if err != nil {
		return nil, err
	}
	winOps := w.cloaks.attempted + w.tickOps.attempted
	lr.set("process.sut_cpu_us_per_op", "us", us(w.sutCPU)/float64(winOps))
	lr.set("process.gen_cpu_frac", "ratio", w.genCPU.Seconds()/(w.elapsed.Seconds()*float64(runtime.NumCPU())))

	// Phase B: in-process ladder.
	ticks := in.ticks
	if len(ticks) == 0 {
		ticks = in.probes
	}
	if len(ticks) > layerTicks {
		ticks = ticks[:layerTicks]
	}
	if err := lr.phaseB(in, ticks); err != nil {
		return nil, err
	}
	if err := lr.uploadRungs(in, ticks); err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := lr.sl.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(lr.sl.list), path)
	return &result{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: lr.m}, nil
}

// phaseB loads the population into a fresh in-process stack, runs the
// cloak ladder on it, then replays ticks beside a paced reader. Pacing
// samples cloaks evenly in time: a closed-loop reader blocked behind a
// rotation contributes one sample to the thousands it sends unblocked,
// which hides the stall from its p99.
func (lr *layerRun) phaseB(in *inputs, ticks [][]service.UploadEntry) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := newStack(ctx, in.n)
	if err != nil {
		return err
	}
	defer st.close()
	if err := lr.uploadTick(ctx, st, in.initial); err != nil {
		return err
	}
	if _, err := st.coord.Rotate(ctx); err != nil {
		return err
	}
	if err := lr.cloakLadder(ctx, st, in.hosts[0]); err != nil {
		return err
	}

	// Tick phase.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hosts := in.hosts[1]
		for i := 0; !stop.Load(); i++ {
			t0 := time.Now()
			st.coord.Cloak(ctx, hosts[i%len(hosts)]) //nolint:errcheck // classified by the e2e run; timed here
			lr.sl.record("cluster.cloak", int64(i), t0, time.Now())
			time.Sleep(readerPace)
		}
	}()
	em0 := []metrics.EpochSnapshot{st.ems[0].Snapshot(), st.ems[1].Snapshot()}
	cm0 := st.cm.Snapshot()
	var flushes, rotates, selfs, builds []float64
	moves := 0
	lr.uploads = lr.uploads[:0]
	var tickErr error
	for i, tick := range ticks {
		if tickErr = lr.uploadTick(ctx, st, tick); tickErr != nil {
			break
		}
		t0 := time.Now()
		if tickErr = st.coord.Flush(ctx); tickErr != nil {
			break
		}
		flushes = append(flushes, ms(time.Since(t0)))
		b0 := []uint64{st.shards[0].Manager().Status().Builds, st.shards[1].Manager().Status().Builds}
		t0 = time.Now()
		rs, err := st.coord.Rotate(ctx)
		if tickErr = err; err != nil {
			break
		}
		rsp := lr.sl.record("cluster.rotate", int64(i), t0, time.Now())
		var slowest time.Duration
		for j, sh := range st.shards {
			if s := sh.Manager().Status(); s.Builds > b0[j] && s.LastBuildDuration > slowest {
				slowest = s.LastBuildDuration
			}
		}
		rotates = append(rotates, ms(rsp.dur()))
		builds = append(builds, ms(slowest))
		selfs = append(selfs, ms(rsp.dur()-slowest))
		moves += rs.Moves
	}
	stop.Store(true)
	wg.Wait()
	if tickErr != nil {
		return fmt.Errorf("layer tick: %w", tickErr)
	}
	lr.set("cluster.upload_ns", "ns", float64(median(lr.uploads)))
	lr.set("cluster.flush_ms", "ms", medianF(flushes))
	lr.set("cluster.rotate_ms", "ms", medianF(rotates))
	lr.set("cluster.rotate_self_ms", "ms", medianF(selfs))
	lr.set("epoch.build_ms", "ms", medianF(builds))
	lr.set("cluster.border_replays_per_rotate", "count", float64(moves)/float64(len(ticks)))
	cm1 := st.cm.Snapshot()
	lr.set("cluster.batch_size_mean", "count", float64(cm1.BatchedOps-cm0.BatchedOps)/float64(cm1.Batches-cm0.Batches))

	// Build stages and shard reuse, summed over both shards' builds in
	// the tick phase.
	stage := map[string]time.Duration{}
	var nBuilds, total, rebuilt uint64
	for j, em := range st.ems {
		s1 := em.Snapshot()
		nBuilds += s1.Builds - em0[j].Builds
		total += s1.ShardsTotal - em0[j].ShardsTotal
		rebuilt += s1.ShardsRebuilt - em0[j].ShardsRebuilt
		for _, ss := range s1.BuildStages {
			stage[ss.Stage] += ss.Total
		}
		for _, ss := range em0[j].BuildStages {
			stage[ss.Stage] -= ss.Total
		}
	}
	for _, name := range []string{metrics.StageQueue, metrics.StageWPG, metrics.StageCluster, metrics.StagePublish} {
		lr.set("epoch.stage_"+name+"_ms", "ms", ms(stage[name])/float64(nBuilds))
	}
	lr.set("epoch.shard_reuse_ratio", "ratio", 1-float64(rebuilt)/float64(total))

	// Coordinator cloaks whose span overlaps a rotation.
	var rot []span
	var overlap []time.Duration
	for _, s := range lr.sl.list {
		if s.Name == "cluster.rotate" {
			rot = append(rot, s)
		}
	}
	for _, s := range lr.sl.list {
		if s.Name != "cluster.cloak" {
			continue
		}
		for _, r := range rot {
			if s.Start < r.End && r.Start < s.End {
				overlap = append(overlap, s.dur())
				break
			}
		}
	}
	lr.set("cluster.cloak_in_rotate_p99_us", "us", us(quantile(overlap, 0.99)))
	fmt.Printf("# phase B: %d ticks, %d cloaks overlapped a rotation\n", len(ticks), len(overlap))
	return nil
}

// uploadTick feeds entries to the coordinator in-process, timing each
// Upload call.
func (lr *layerRun) uploadTick(ctx context.Context, st *stack, entries []service.UploadEntry) error {
	for _, e := range entries {
		t0 := time.Now()
		if err := st.coord.Upload(ctx, cluster.UploadRequest{User: e.User, Peers: e.Peers}); err != nil {
			return err
		}
		lr.uploads = append(lr.uploads, time.Since(t0))
	}
	return nil
}

// cloakLadder replays the same served hosts at every layer boundary,
// outermost first: client -> coordinator listener, in-process
// Coordinator.Cloak, client -> home shard listener, the shard's
// HandleEnvelope without TCP, and the shard's epoch.Manager.Cloak. A
// layer's self time is its rung minus the next one in.
func (lr *layerRun) cloakLadder(ctx context.Context, st *stack, stream []int32) error {
	var hosts []int32
	var homes []int
	for _, h := range stream {
		if len(hosts) == ladderHosts {
			break
		}
		if home := st.homeOf(ctx, h); home >= 0 {
			hosts = append(hosts, h)
			homes = append(homes, home)
		}
	}
	if len(hosts) == 0 {
		return fmt.Errorf("ladder: no served host in the stream")
	}
	coordClient, err := service.Dial(st.addr, service.WithOpTimeout(opTimeout))
	if err != nil {
		return err
	}
	defer coordClient.Close()
	var shardClients []*service.Client
	defer func() {
		for _, c := range shardClients {
			c.Close()
		}
	}()
	for _, addr := range st.shardAddrs {
		c, err := service.Dial(addr, service.WithOpTimeout(opTimeout))
		if err != nil {
			return err
		}
		shardClients = append(shardClients, c)
	}

	type rung struct {
		name string
		call func(i int) error
	}
	rungs := []rung{
		{"service.client_coord_cloak", func(i int) error { _, err := coordClient.CloakV1(hosts[i]); return err }},
		{"cluster.coord_cloak", func(i int) error { _, err := st.coord.Cloak(ctx, hosts[i]); return err }},
		{"service.client_shard_cloak", func(i int) error { _, err := shardClients[homes[i]].CloakV1(hosts[i]); return err }},
		{"service.handle_cloak", func(i int) error {
			env := st.shards[homes[i]].HandleEnvelope(ctx, service.Request{V: service.ProtocolVersion, Op: service.OpCloak, User: hosts[i]})
			if !env.OK {
				return fmt.Errorf("%s", env.Error)
			}
			return nil
		}},
		{"epoch.cloak", func(i int) error { _, err := st.shards[homes[i]].Manager().Cloak(ctx, hosts[i]); return err }},
	}
	lat := make([][]time.Duration, len(rungs))
	pass := func(j int) (time.Duration, error) {
		t0 := time.Now()
		for i := range hosts {
			c0 := time.Now()
			if err := rungs[j].call(i); err != nil {
				return 0, fmt.Errorf("%s host %d: %w", rungs[j].name, hosts[i], err)
			}
			lat[j] = append(lat[j], lr.sl.record(rungs[j].name, int64(i), c0, time.Now()).dur())
		}
		return time.Since(t0), nil
	}
	// The untraced pass times the same full-path stream as a whole, to
	// price the per-call span recording of the traced passes.
	plainPass := func() (time.Duration, error) {
		t0 := time.Now()
		for i := range hosts {
			if err := rungs[0].call(i); err != nil {
				return 0, fmt.Errorf("%s host %d: %w", rungs[0].name, hosts[i], err)
			}
		}
		return time.Since(t0), nil
	}
	// One untimed pass warms connections, caches and the pool, so the
	// first timed pass is not the only cold one.
	if _, err := plainPass(); err != nil {
		return err
	}
	var plain, traced time.Duration
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for round := 0; round < ladderRounds; round++ {
		for step := range rungs {
			j := step
			if round%2 == 1 { // alternate the order so drift cancels
				j = len(rungs) - 1 - step
			}
			if j != 0 {
				if _, err := pass(j); err != nil {
					return err
				}
				continue
			}
			d, err := plainPass()
			if err != nil {
				return err
			}
			plain += d
			runtime.ReadMemStats(&ms0)
			if d, err = pass(0); err != nil {
				return err
			}
			traced += d
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
		}
	}
	p50 := make([]float64, len(rungs))
	for j := range rungs {
		p50[j] = us(median(lat[j]))
	}
	lr.set("service.client_coord_cloak_us", "us", p50[0])
	lr.set("cluster.coord_cloak_us", "us", p50[1])
	lr.set("service.client_shard_cloak_us", "us", p50[2])
	lr.set("service.handle_cloak_us", "us", p50[3])
	lr.set("epoch.cloak_ns", "ns", p50[4]*1000)
	lr.set("service.client_coord_self_us", "us", p50[0]-p50[1])
	lr.set("cluster.coord_cloak_self_us", "us", p50[1]-p50[2])
	lr.set("service.client_shard_self_us", "us", p50[2]-p50[3])
	lr.set("service.handle_cloak_self_us", "us", p50[3]-p50[4])
	lr.set("service.allocs_per_cloak", "count", float64(mallocs)/float64(ladderRounds*len(hosts)))
	lr.set("process.tracing_overhead_frac", "ratio", traced.Seconds()/plain.Seconds()-1)
	fmt.Printf("# ladder: %d hosts x %d rounds, rung p50s %.1f %.1f %.1f %.1f %.3f us\n",
		len(hosts), ladderRounds, p50[0], p50[1], p50[2], p50[3], p50[4])
	return lr.codecCloak(ctx, st, hosts, homes)
}

// codecCloak prices the wire codec of one cloak round trip on both
// sides: the client encodes the request, the server parses it and
// encodes the envelope, and the client decodes the envelope.
func (lr *layerRun) codecCloak(ctx context.Context, st *stack, hosts []int32, homes []int) error {
	envs := make([]service.Envelope, len(hosts))
	for i, h := range hosts {
		envs[i] = st.shards[homes[i]].HandleEnvelope(ctx, service.Request{V: service.ProtocolVersion, Op: service.OpCloak, User: h})
	}
	var buf bytes.Buffer
	var bytesTotal int
	var lat []time.Duration
	enc := json.NewEncoder(&buf)
	for i, h := range hosts {
		t0 := time.Now()
		buf.Reset()
		if err := enc.Encode(service.Request{V: service.ProtocolVersion, Op: service.OpCloak, User: h}); err != nil {
			return err
		}
		bytesTotal += buf.Len()
		if _, err := service.ParseRequest(buf.Bytes()); err != nil {
			return err
		}
		buf.Reset()
		if err := enc.Encode(envs[i]); err != nil {
			return err
		}
		bytesTotal += buf.Len()
		var back service.Envelope
		if err := json.NewDecoder(&buf).Decode(&back); err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
	}
	lr.set("service.codec_cloak_ns", "ns", float64(median(lat)))
	lr.set("service.codec_cloak_bytes", "bytes", float64(bytesTotal)/float64(len(hosts)))
	return nil
}

// uploadRungs times the tick stream entering below the coordinator: a
// client's upload_batch straight to a lone shard server, and
// epoch.Manager.UploadBatch on a lone manager. Each first receives the
// initial population untimed, so the ticks are re-uploads there too.
func (lr *layerRun) uploadRungs(in *inputs, ticks [][]service.UploadEntry) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := service.New(service.WithNumUsers(in.n), service.WithK(k))
	if err != nil {
		return err
	}
	defer srv.Close()
	addr, err := srv.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		return err
	}
	c, err := service.Dial(addr.String(), service.WithOpTimeout(opTimeout))
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := uploadAll([]*service.Client{c}, in.initial); err != nil {
		return err
	}
	mgr, err := epoch.New(in.n, epoch.WithK(k))
	if err != nil {
		return err
	}
	defer mgr.Close()
	toReqs := func(es []service.UploadEntry) []epoch.UploadRequest {
		reqs := make([]epoch.UploadRequest, len(es))
		for i, e := range es {
			reqs[i] = epoch.UploadRequest{User: e.User, Peers: e.Peers}
		}
		return reqs
	}
	if _, err := mgr.UploadBatch(ctx, toReqs(in.initial)); err != nil {
		return err
	}

	var wire, direct time.Duration
	var bytesTotal, n int
	for _, tick := range ticks {
		b, err := json.Marshal(service.Request{V: service.ProtocolVersion, Op: service.OpUploadBatch, Uploads: tick})
		if err != nil {
			return err
		}
		bytesTotal += len(b) + 1
		n += len(tick)
		t0 := time.Now()
		if _, err := uploadAll([]*service.Client{c}, tick); err != nil {
			return err
		}
		wire += time.Since(t0)
		reqs := toReqs(tick)
		t0 = time.Now()
		if _, err := mgr.UploadBatch(ctx, reqs); err != nil {
			return err
		}
		direct += time.Since(t0)
	}
	lr.set("service.codec_upload_bytes_per_upload", "bytes", float64(bytesTotal)/float64(n))
	lr.set("service.shard_upload_batch_us_per_upload", "us", us(wire)/float64(n))
	lr.set("epoch.upload_batch_ns_per_upload", "ns", float64(direct)/float64(n))
	return nil
}
