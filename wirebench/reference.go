package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nonexposure/internal/core"
	"nonexposure/internal/epoch"
	"nonexposure/internal/geo"
	"nonexposure/internal/service"
)

// refState is what a single-process epoch.Manager serves after the same
// upload stream: per user the index of its cluster (-1 when its component
// is smaller than k), and per cluster its size and a member-set
// fingerprint.
type refState struct {
	cid  []int32
	size []int32
	fp   []uint64
}

// reference is the correctness oracle of a run. states[0] is the epoch
// after the initial upload; when perTick is set, states[t] is the epoch
// after tick t (the cloak_during_churn window may be answered from any of
// them), otherwise the last state covers every tick at once.
type reference struct {
	k      int
	states []*refState
}

func (r *reference) final() *refState { return r.states[len(r.states)-1] }

// buildReference feeds an in-process epoch.Manager the run's upload
// stream and snapshots the outcome of every user.
func buildReference(in *inputs, k int, perTick bool) (*reference, error) {
	ctx := context.Background()
	mgr, err := epoch.New(in.n, epoch.WithK(k))
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	apply := func(entries []service.UploadEntry) error {
		reqs := make([]epoch.UploadRequest, len(entries))
		for i, e := range entries {
			reqs[i] = epoch.UploadRequest{User: e.User, Peers: e.Peers}
		}
		_, err := mgr.UploadBatch(ctx, reqs)
		return err
	}
	rotate := func() error {
		if _, err := mgr.Rotate(ctx); err != nil && !errors.Is(err, epoch.ErrNoNewUploads) {
			return err
		}
		return mgr.Sync(ctx)
	}
	ref := &reference{k: k}
	snapshot := func() error {
		st, err := snapshotState(ctx, mgr, in.n)
		ref.states = append(ref.states, st)
		return err
	}
	if err := apply(in.initial); err != nil {
		return nil, fmt.Errorf("reference upload: %w", err)
	}
	if err := rotate(); err != nil {
		return nil, fmt.Errorf("reference rotate: %w", err)
	}
	if perTick || len(in.ticks) == 0 {
		if err := snapshot(); err != nil {
			return nil, err
		}
	}
	for _, tick := range in.ticks {
		if err := apply(tick); err != nil {
			return nil, fmt.Errorf("reference upload: %w", err)
		}
		if perTick {
			if err := rotate(); err != nil {
				return nil, fmt.Errorf("reference rotate: %w", err)
			}
			if err := snapshot(); err != nil {
				return nil, err
			}
		}
	}
	if !perTick && len(in.ticks) > 0 {
		if err := rotate(); err != nil {
			return nil, fmt.Errorf("reference rotate: %w", err)
		}
		if err := snapshot(); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

func snapshotState(ctx context.Context, mgr *epoch.Manager, n int) (*refState, error) {
	st := &refState{cid: make([]int32, n)}
	ids := make(map[*core.Cluster]int32)
	for u := int32(0); u < int32(n); u++ {
		res, err := mgr.Cloak(ctx, u)
		if err != nil {
			if !errors.Is(err, core.ErrInsufficientUsers) {
				return nil, fmt.Errorf("reference cloak %d: %w", u, err)
			}
			st.cid[u] = -1
			continue
		}
		id, ok := ids[res.Cluster]
		if !ok {
			id = int32(len(st.size))
			ids[res.Cluster] = id
			st.size = append(st.size, int32(len(res.Cluster.Members)))
			st.fp = append(st.fp, fingerprint(res.Cluster.Members))
		}
		st.cid[u] = id
	}
	return st, nil
}

// fingerprint is an order-independent hash of a member set.
func fingerprint(members []int32) uint64 {
	var s uint64
	for _, m := range members {
		x := uint64(m) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		s += x ^ (x >> 31)
	}
	return s
}

// outcome classes of one answer. The reference decides: an error reply
// is unclusterable only when the reference also refuses that user, and a
// served reply is ok only when it carries the reference's member set.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeUnclusterable
	outcomeFailed
)

// classify judges one served cluster (members) or application error
// (refused) for host against state st.
func (st *refState) classify(host int32, members []int32, refused bool, k int) outcome {
	cid := st.cid[host]
	if refused {
		if cid < 0 {
			return outcomeUnclusterable
		}
		return outcomeFailed
	}
	if cid < 0 || len(members) < k || !contains(members, host) ||
		int32(len(members)) != st.size[cid] || fingerprint(members) != st.fp[cid] {
		return outcomeFailed
	}
	return outcomeOK
}

// classifyAny accepts an answer that matches any of the states from lo
// to hi inclusive: a cloak that overlaps a rotation may be served from
// the epoch before or after it.
func (r *reference) classifyAny(lo, hi int, host int32, members []int32, refused bool) outcome {
	if hi >= len(r.states) {
		hi = len(r.states) - 1
	}
	best := outcomeFailed
	for i := lo; i <= hi; i++ {
		if o := r.states[i].classify(host, members, refused, r.k); o < best {
			best = o
		}
	}
	return best
}

func contains(members []int32, u int32) bool {
	for _, m := range members {
		if m == u {
			return true
		}
	}
	return false
}

// bboxArea is the area of the bounding box of members' true positions,
// the region a served cluster cloaks the host into.
func bboxArea(members []int32, pos []geo.Point) float64 {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, m := range members {
		p := pos[m]
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	return (maxX - minX) * (maxY - minY)
}

// perturb returns a copy of st that places the first served user in
// another cluster, so a sweep against it must report a mismatch. The
// self-test uses it to prove the sweep can fail.
func (st *refState) perturb() *refState {
	cp := &refState{
		cid:  append([]int32(nil), st.cid...),
		size: st.size,
		fp:   st.fp,
	}
	for u, c := range cp.cid {
		if c >= 0 && len(st.size) > 1 {
			cp.cid[u] = (c + 1) % int32(len(st.size))
			break
		}
	}
	return cp
}
