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
// a single cloakd, so existing clients work unchanged against a
// cluster. Canceling ctx stops the listener and closes its connections;
// Close does that too and then shuts the shard I/O down.
func (c *Coordinator) Listen(ctx context.Context, addr string) (net.Addr, error) {
	a, err := c.ls.Listen(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	return a, nil
}

// handleLine answers one request line and folds it into the
// coordinator's request metrics. A malformed line gets an error
// envelope, as from a single cloakd.
func (c *Coordinator) handleLine(ctx context.Context, line []byte) service.Envelope {
	req, err := service.ParseRequest(line)
	if err != nil {
		return errEnvelope(err)
	}
	start := time.Now()
	env := c.handle(ctx, req)
	c.rm.Observe(string(req.Op), time.Since(start), env.OK)
	return env
}

// errEnvelope wraps err in an error envelope.
func errEnvelope(err error) service.Envelope {
	return service.Envelope{V: service.ProtocolVersion, Error: err.Error()}
}

// handle answers one request.
func (c *Coordinator) handle(ctx context.Context, req service.Request) service.Envelope {
	if err := req.CheckVersion(); err != nil {
		return errEnvelope(err)
	}
	ok := service.Envelope{V: service.ProtocolVersion, OK: true}
	switch req.Op {
	case service.OpPing:
		return ok

	case service.OpUpload:
		if err := c.Upload(ctx, UploadRequest{User: req.User, Peers: req.Peers, Profile: req.Profile}); err != nil {
			return errEnvelope(err)
		}
		return ok

	case service.OpUploadBatch:
		for i, e := range req.Uploads {
			if err := c.Upload(ctx, UploadRequest{User: e.User, Peers: e.Peers, Profile: e.Profile}); err != nil {
				env := errEnvelope(err)
				env.Batch = &service.BatchPayload{Accepted: i}
				return env
			}
		}
		ok.Batch = &service.BatchPayload{Accepted: len(req.Uploads)}
		return ok

	case service.OpCloak:
		p, err := c.Cloak(ctx, req.User)
		if err != nil {
			return errEnvelope(err)
		}
		ok.Cloak = p
		return ok

	case service.OpFreeze, service.OpRotate:
		if _, err := c.Rotate(ctx); err != nil {
			return errEnvelope(err)
		}
		fallthrough

	case service.OpEpoch:
		ep, err := c.EpochStatus(ctx)
		if err != nil {
			return errEnvelope(err)
		}
		ok.Epoch = ep
		return ok

	case service.OpStats:
		sp, err := c.Stats(ctx)
		if err != nil {
			return errEnvelope(err)
		}
		ok.Stats = sp
		return ok

	default:
		return errEnvelope(fmt.Errorf("cluster: unknown op %q", req.Op))
	}
}
