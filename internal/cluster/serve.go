package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"nonexposure/internal/service"
)

// Listen starts the coordinator's protocol listener on addr and returns
// the bound address. It speaks the same line-delimited JSON protocol as
// a single cloakd (v0 and v1), so existing clients work unchanged
// against a cluster. Canceling ctx stops the listener and closes its
// connections; Close does that too and then shuts the shard I/O down.
func (c *Coordinator) Listen(ctx context.Context, addr string) (net.Addr, error) {
	a, err := c.ls.Listen(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	return a, nil
}

// handleLine answers one request line and folds it into the
// coordinator's request metrics.
func (c *Coordinator) handleLine(ctx context.Context, line []byte) any {
	req, err := service.ParseRequest(line)
	if err != nil {
		return service.Response{Error: err.Error()}
	}
	start := time.Now()
	resp, ok := c.handle(ctx, req)
	c.rm.Observe(string(req.Op), time.Since(start), ok)
	return resp
}

// handle answers one request in the shape its protocol version expects.
func (c *Coordinator) handle(ctx context.Context, req service.Request) (any, bool) {
	v1 := req.V >= service.ProtocolVersion
	fail := func(err error) (any, bool) {
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, Error: err.Error()}, false
		}
		return service.Response{Error: err.Error()}, false
	}
	switch req.Op {
	case service.OpPing:
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true}, true
		}
		return service.Response{OK: true}, true

	case service.OpUpload:
		var prof *service.ProfileSpec
		if v1 {
			prof = req.Profile
		}
		if err := c.Upload(ctx, UploadRequest{User: req.User, Peers: req.Peers, Profile: prof}); err != nil {
			return fail(err)
		}
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true}, true
		}
		return service.Response{OK: true}, true

	case service.OpUploadBatch:
		if !v1 {
			return service.Response{Error: `upload_batch requires "v":1`}, false
		}
		for i, e := range req.Uploads {
			if err := c.Upload(ctx, UploadRequest{User: e.User, Peers: e.Peers, Profile: e.Profile}); err != nil {
				env := service.Envelope{V: service.ProtocolVersion, Error: err.Error()}
				env.Batch = &service.BatchPayload{Accepted: i}
				return env, false
			}
		}
		return service.Envelope{V: service.ProtocolVersion, OK: true, Batch: &service.BatchPayload{Accepted: len(req.Uploads)}}, true

	case service.OpCloak:
		p, err := c.Cloak(ctx, req.User)
		if err != nil {
			return fail(err)
		}
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true, Cloak: p}, true
		}
		return service.Response{OK: true, Cluster: p.Cluster, Cost: p.Cost, Epoch: p.Epoch}, true

	case service.OpFreeze, service.OpRotate:
		st, err := c.Rotate(ctx)
		if err != nil {
			return fail(err)
		}
		if v1 {
			ep, err := c.EpochStatus(ctx)
			if err != nil {
				return fail(err)
			}
			return service.Envelope{V: service.ProtocolVersion, OK: true, Epoch: ep}, true
		}
		return service.Response{OK: true, EdgeCount: st.Edges, Epoch: st.Epoch}, true

	case service.OpEpoch:
		ep, err := c.EpochStatus(ctx)
		if err != nil {
			return fail(err)
		}
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true, Epoch: ep}, true
		}
		return service.Response{OK: true, Epoch: ep.Epoch, Frozen: ep.Published, EdgeCount: ep.Edges, Clusters: ep.Clusters}, true

	case service.OpStats:
		sp, err := c.Stats(ctx)
		if err != nil {
			return fail(err)
		}
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true, Stats: sp}, true
		}
		return service.Response{
			OK: true, Users: sp.Users, Uploads: sp.Uploads, Frozen: sp.Frozen,
			Epoch: sp.Epoch, Clusters: sp.Clusters, EdgeCount: sp.Edges,
			Requests: sp.Requests, ReqErrors: sp.ReqErrors,
			LatP50us: sp.LatP50us, LatP95us: sp.LatP95us, LatP99us: sp.LatP99us,
			OpCounts: sp.OpCounts,
		}, true

	default:
		return fail(fmt.Errorf("cluster: unknown op %q", req.Op))
	}
}
