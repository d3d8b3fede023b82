package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
	"nonexposure/internal/trace"
)

// Server is the network-facing anonymizer, backed by the epoch
// re-clustering pipeline: clients upload proximity rankings at any time,
// rebuilds run in the background per the configured policy (or on
// explicit rotate/freeze), and cloak requests are answered from the
// current published generation on a lock-free read path. Safe for
// concurrent connections; every request is folded into the server's
// request metrics.
type Server struct {
	numUsers    int
	k           int
	workers     int
	idleTimeout time.Duration
	// epochOpts is passed through to epoch.New after the mirrored
	// service options, so pipeline knobs (rebuild policy, incremental
	// mode, area estimator, ...) need no per-field service option; see
	// WithEpochOptions.
	epochOpts []epoch.Option

	mgr        *epoch.Manager
	reqMetrics *metrics.RequestMetrics
	em         *metrics.EpochMetrics
	tracer     *trace.Recorder

	// ls runs the accept loop and the connections; its context governs
	// every request and is canceled by Close.
	ls *LineServer
}

// Option configures a Server.
type Option func(*Server)

// WithNumUsers sets the population size (required: the protocol
// validates user ids against it).
func WithNumUsers(n int) Option { return func(s *Server) { s.numUsers = n } }

// WithK sets the anonymity level (default 10, Table I).
func WithK(k int) Option { return func(s *Server) { s.k = k } }

// WithWorkers sets the clustering worker count per rebuild (<= 0
// selects GOMAXPROCS).
func WithWorkers(n int) Option { return func(s *Server) { s.workers = n } }

// WithEpochOptions passes epoch pipeline options straight through to
// the underlying epoch.New call (default none). They are applied after
// the options the server derives from its own configuration (k,
// workers, metrics, tracing), so an explicit epoch option always wins.
// This is the one extension point for pipeline knobs — rebuild policy,
// incremental mode, area estimator — so new epoch options never need a
// mirrored service option.
func WithEpochOptions(opts ...epoch.Option) Option {
	return func(s *Server) { s.epochOpts = append(s.epochOpts, opts...) }
}

// WithMetrics attaches epoch pipeline metrics (nil is fine; request
// metrics are always collected regardless).
func WithMetrics(em *metrics.EpochMetrics) Option { return func(s *Server) { s.em = em } }

// WithIdleTimeout sets the per-connection read deadline: a client that
// sends nothing for this long is disconnected (default 2m; <= 0
// disables).
func WithIdleTimeout(d time.Duration) Option { return func(s *Server) { s.idleTimeout = d } }

// WithTraceRecorder enables request tracing: every handled request gets
// a root span threaded down through the epoch pipeline, anonymizer, and
// core stages, and the finished span tree lands in r (newest first, for
// the admin /tracez view). The same recorder also receives epoch-build
// span trees. nil (the default) disables tracing entirely — the hot
// path then pays only nil checks.
func WithTraceRecorder(r *trace.Recorder) Option { return func(s *Server) { s.tracer = r } }

// New creates a server configured by options. WithNumUsers is required.
func New(opts ...Option) (*Server, error) {
	s := &Server{
		k:           10,
		idleTimeout: 2 * time.Minute,
		reqMetrics:  metrics.NewRequestMetrics(),
	}
	for _, opt := range opts {
		opt(s)
	}
	epochOpts := append([]epoch.Option{
		epoch.WithK(s.k),
		epoch.WithWorkers(s.workers),
		epoch.WithMetrics(s.em),
		epoch.WithTraceRecorder(s.tracer),
	}, s.epochOpts...)
	mgr, err := epoch.New(s.numUsers, epochOpts...)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.mgr = mgr
	s.ls = NewLineServer(s.handleLine, s.idleTimeout)
	return s, nil
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. The accept loop stops and open connections
// close when ctx is canceled or the server is closed, whichever comes
// first.
func (s *Server) Listen(ctx context.Context, addr string) (net.Addr, error) {
	a, err := s.ls.Listen(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	return a, nil
}

// Close stops accepting, closes open connections (a blocked read on an
// idle client must not stall shutdown), waits for the handler
// goroutines to finish, and shuts the epoch pipeline down. It is
// idempotent: repeated calls return the first call's error.
func (s *Server) Close() error {
	err := s.ls.Close()
	s.mgr.Close()
	return err
}

// Metrics returns the server's request metrics (counts, error counts,
// latency percentiles per operation).
func (s *Server) Metrics() *metrics.RequestMetrics { return s.reqMetrics }

// EpochMetrics returns the attached epoch pipeline metrics (nil unless
// WithMetrics was given).
func (s *Server) EpochMetrics() *metrics.EpochMetrics { return s.em }

// Manager exposes the epoch pipeline (read-only use: status,
// transcript).
func (s *Server) Manager() *epoch.Manager { return s.mgr }

// Tracer returns the configured trace recorder (nil when tracing is
// disabled). The admin endpoint reads recent span trees from it.
func (s *Server) Tracer() *trace.Recorder { return s.tracer }

// handleLine answers one request line. Malformed lines get an error
// envelope instead of a dropped connection, so one bad request does not
// kill a pipelined client.
func (s *Server) handleLine(ctx context.Context, line []byte) Envelope {
	req, err := ParseRequest(line)
	if err != nil {
		s.reqMetrics.Observe("malformed", 0, false)
		return errEnvelope(err.Error())
	}
	return s.HandleEnvelope(ctx, req)
}

// HandleEnvelope processes one request; exported so tests (and
// alternative transports) can bypass TCP. Every request is timed and
// counted in the server's metrics, a version-less one included.
func (s *Server) HandleEnvelope(ctx context.Context, req Request) Envelope {
	start := time.Now()
	ctx, sp := s.startRequestSpan(ctx, req.Op)
	env := s.dispatch(ctx, req)
	s.finishRequestSpan(sp)
	s.reqMetrics.Observe(string(req.Op), time.Since(start), env.Error == "")
	return env
}

// startRequestSpan opens the per-request root span when a trace recorder
// is configured. With tracing off it returns (ctx, nil) and the request
// path pays a single nil comparison.
func (s *Server) startRequestSpan(ctx context.Context, op Op) (context.Context, *trace.Span) {
	if s.tracer == nil {
		return ctx, nil
	}
	sp := trace.New("request." + string(op))
	return trace.NewContext(ctx, sp), sp
}

// finishRequestSpan freezes and records the request's root span (no-op
// with tracing off).
func (s *Server) finishRequestSpan(sp *trace.Span) {
	sp.End()
	s.tracer.Record(sp)
}

func (s *Server) dispatch(ctx context.Context, req Request) Envelope {
	if err := req.CheckVersion(); err != nil {
		return errEnvelope(err.Error())
	}
	ok := Envelope{V: ProtocolVersion, OK: true}
	switch req.Op {
	case OpPing:
		return ok
	case OpUpload:
		usp := trace.FromContext(ctx).Child("epoch.upload")
		err := s.mgr.Upload(ctx, epoch.UploadRequest{
			User:    req.User,
			Peers:   req.Peers,
			Profile: req.Profile.Core(),
		})
		usp.End()
		if err != nil {
			return errEnvelope(err.Error())
		}
		return ok
	case OpUploadBatch:
		reqs := make([]epoch.UploadRequest, len(req.Uploads))
		for i, e := range req.Uploads {
			reqs[i] = epoch.UploadRequest{User: e.User, Peers: e.Peers, Profile: e.Profile.Core()}
		}
		usp := trace.FromContext(ctx).Child("epoch.upload_batch")
		n, err := s.mgr.UploadBatch(ctx, reqs)
		usp.End()
		if err != nil {
			env := errEnvelope(err.Error())
			env.Batch = &BatchPayload{Accepted: n}
			return env
		}
		ok.Batch = &BatchPayload{Accepted: n}
		return ok
	case OpFreeze:
		gen, err := s.rotateAndWait(ctx)
		if err != nil {
			return errEnvelope(freezeErr(err).Error())
		}
		st := s.mgr.Status()
		st.Epoch, st.Edges, st.Clusters, st.Skipped = gen.Epoch, gen.Edges, gen.Clusters, gen.Skipped
		st.ShardsTotal, st.ShardsRebuilt = gen.ShardsTotal, gen.ShardsRebuilt
		ok.Epoch = epochPayload(st)
		return ok
	case OpRotate:
		ep, err := s.mgr.Rotate(ctx)
		if err != nil {
			return errEnvelope(err.Error())
		}
		p := epochPayload(s.mgr.Status())
		p.Epoch = ep // the freshly assigned generation, building in the background
		ok.Epoch = p
		return ok
	case OpCloak:
		res, err := s.mgr.Cloak(ctx, req.User)
		if err != nil {
			return errEnvelope(err.Error())
		}
		ok.Cloak = &CloakPayload{
			Cluster:    res.Cluster.Members,
			Cost:       res.Cost,
			Epoch:      res.Epoch,
			EffectiveK: res.EffectiveK,
			Degraded:   res.Degraded,
		}
		return ok
	case OpEpoch:
		ok.Epoch = epochPayload(s.mgr.Status())
		return ok
	case OpStats:
		ok.Stats = statsPayload(s.mgr.Status(), s.reqMetrics.Snapshot())
		return ok
	default:
		return errEnvelope(fmt.Sprintf("unknown op %q", req.Op))
	}
}

// rotateAndWait is the synchronous freeze: trigger a rotation and block
// until that generation (and anything queued before it) has published.
func (s *Server) rotateAndWait(ctx context.Context) (*epoch.Generation, error) {
	rsp := trace.FromContext(ctx).Child("epoch.rotate")
	ep, err := s.mgr.Rotate(ctx)
	rsp.End()
	if err != nil {
		return nil, err
	}
	ssp := trace.FromContext(ctx).Child("epoch.sync")
	err = s.mgr.Sync(ctx)
	ssp.End()
	if err != nil {
		return nil, err
	}
	for _, gen := range s.mgr.History() {
		if gen.Epoch == ep {
			if gen.BuildErr != nil {
				return nil, fmt.Errorf("build graph: %w", gen.BuildErr)
			}
			return gen, nil
		}
	}
	return nil, fmt.Errorf("service: epoch %d missing from history", ep)
}

// freezeErr maps ErrNoNewUploads onto the freeze wording "already
// frozen (no new uploads ...)": the coordinator matches on "no new
// uploads" to tell an idle shard from a failed one.
func freezeErr(err error) error {
	if errors.Is(err, epoch.ErrNoNewUploads) {
		return fmt.Errorf("already frozen (no new uploads since the last epoch)")
	}
	return err
}
