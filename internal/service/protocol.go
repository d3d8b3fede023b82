// Package service exposes the centralized anonymizer (Fig. 3, path ¬) as
// a real network service: devices upload their proximity rankings over
// TCP, and cloaking requests are answered with k-anonymous clusters. The
// wire protocol is line-delimited JSON — one request object per line, one
// response object per line — so it is trivially scriptable and
// inspectable. Every request carries "v":1 and every answer is a v1
// Envelope with a per-operation payload object (see PROTOCOL.md).
//
// Privacy note: exactly like the paper's anonymizer, the server only ever
// sees *proximity ranks*, never coordinates. Phase 2 (secure bounding)
// still runs peer-to-peer among the cluster members.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"nonexposure/internal/core"
	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
)

// Op names the request operations.
type Op string

// The protocol operations.
const (
	// OpUpload submits one user's ranked peer list. Uploads are accepted
	// at any time; after the first epoch they become next-epoch input.
	OpUpload Op = "upload"
	// OpFreeze forces an epoch rotation and waits for it to publish: a
	// synchronous rotate.
	OpFreeze Op = "freeze"
	// OpCloak asks for the k-anonymity cluster of a user.
	OpCloak Op = "cloak"
	// OpStats reports server state.
	OpStats Op = "stats"
	// OpPing is a liveness check.
	OpPing Op = "ping"
	// OpRotate forces an epoch rotation without waiting for the build.
	OpRotate Op = "rotate"
	// OpEpoch reports the re-clustering pipeline state.
	OpEpoch Op = "epoch"
	// OpUploadBatch submits several uploads in one request.
	// Entries apply strictly in array order and stop at the first
	// failure, so a batch is behaviorally identical to the same sequence
	// of single uploads on one connection.
	OpUploadBatch Op = "upload_batch"
)

// PeerRank is one entry of a device's proximity measurement: the peer's
// id and its RSS rank (1 = strongest signal). It is the epoch pipeline's
// RankedPeer under its wire-protocol name.
type PeerRank = epoch.RankedPeer

// Request is one protocol request. V is the protocol version and must
// be at least ProtocolVersion; see CheckVersion. Fields are used per Op:
// Upload: User + Peers + optional Profile; UploadBatch: Uploads; Cloak:
// User; Freeze/Rotate/Epoch/Stats/Ping: none.
type Request struct {
	V     int        `json:"v,omitempty"`
	Op    Op         `json:"op"`
	User  int32      `json:"user,omitempty"`
	Peers []PeerRank `json:"peers,omitempty"`
	// Profile carries the uploading user's personalized privacy demands.
	// Sticky per user with last-write-wins: omitting the object keeps any
	// stored profile untouched, an explicit zero object ("profile":{})
	// reverts a previously uploaded profile to the service defaults.
	Profile *ProfileSpec `json:"profile,omitempty"`
	// Uploads carries an OpUploadBatch request's entries, applied in
	// array order.
	Uploads []UploadEntry `json:"uploads,omitempty"`
}

// UploadEntry is one upload inside an OpUploadBatch request. Each entry
// carries exactly what a single upload request would: the user, the
// ranked peer list, and the optional profile with the same sticky
// semantics (nil keeps any stored profile, an explicit zero object
// reverts to the service defaults).
type UploadEntry struct {
	User    int32        `json:"user"`
	Peers   []PeerRank   `json:"peers,omitempty"`
	Profile *ProfileSpec `json:"profile,omitempty"`
}

// MaxLineBytes caps one protocol line. A single upload for the largest
// supported population fits comfortably; anything longer is a protocol
// violation, not a request.
const MaxLineBytes = 1 << 20

// ParseRequest decodes one protocol line into a Request. The line must
// hold exactly one JSON object — trailing non-whitespace data is
// rejected, as is an empty line — so a malformed client cannot smuggle a
// second request into the same line.
func ParseRequest(line []byte) (Request, error) {
	var req Request
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 {
		return req, fmt.Errorf("service: empty request line")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("service: malformed request: %w", err)
	}
	// Decode stops at the end of the first JSON value; with the
	// whitespace already trimmed, any unconsumed byte is trailing data.
	if dec.InputOffset() != int64(len(trimmed)) {
		return Request{}, fmt.Errorf("service: trailing data after request")
	}
	return req, nil
}

// CheckVersion rejects a request below ProtocolVersion, such as a line
// with no "v" field: both cloakd and the coordinator answer it with an
// error envelope naming the version to send, and keep the connection.
func (r Request) CheckVersion() error {
	if r.V < ProtocolVersion {
		return fmt.Errorf("unsupported protocol version %d (send \"v\":%d)", r.V, ProtocolVersion)
	}
	return nil
}

// ProtocolVersion is the wire format the server speaks. Every request
// must carry "v":1 (a higher version is answered in v1); every answer,
// including the rejection of a malformed or version-less line, is an
// Envelope.
const ProtocolVersion = 1

// Envelope is the protocol response: a version tag, the outcome, and at
// most one per-operation payload object on success. Each payload
// serializes its semantically meaningful zeros ("cost":0,
// "frozen":false) explicitly.
type Envelope struct {
	V     int    `json:"v"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Cloak *CloakPayload `json:"cloak,omitempty"`
	Stats *StatsPayload `json:"stats,omitempty"`
	Epoch *EpochPayload `json:"epoch,omitempty"`
	Batch *BatchPayload `json:"batch,omitempty"`
}

// BatchPayload answers OpUploadBatch. Entries apply strictly in request
// order and stop at the first failure, so on an error envelope Accepted
// doubles as the index of the entry that was rejected: entries
// [0, Accepted) are durably applied, entry Accepted failed, and
// everything after it was not attempted.
type BatchPayload struct {
	Accepted int `json:"accepted"`
}

// ProfileSpec is the optional "profile" object an upload may carry:
// the user's personalized privacy demands. Absent fields (and an absent
// object) mean the service defaults; sending an explicit zero object
// reverts a previously uploaded profile to the defaults. Durations ride
// the wire as integer milliseconds.
type ProfileSpec struct {
	// K is the user's personal anonymity floor; the effective level is
	// max(service k, K), so profiles strengthen, never weaken.
	K int32 `json:"k,omitempty"`
	// MaxArea is the largest cloak area the user finds useful (0 =
	// unbounded); exceeding it marks cloak responses degraded.
	MaxArea float64 `json:"max_area,omitempty"`
	// MaxStalenessMs bounds how long this user's uploads may wait
	// without a rebuild (0 = the service-wide policy).
	MaxStalenessMs int64 `json:"max_staleness_ms,omitempty"`
}

// Core converts the wire profile to the pipeline's pointer semantics:
// nil for an absent object (keep any stored profile untouched), the
// explicit zero &core.Profile{} for the empty object (revert to the
// service defaults).
func (p *ProfileSpec) Core() *core.Profile {
	if p == nil {
		return nil
	}
	return &core.Profile{
		K:            p.K,
		MaxArea:      p.MaxArea,
		MaxStaleness: time.Duration(p.MaxStalenessMs) * time.Millisecond,
	}
}

// CloakPayload answers OpCloak. Cost and Epoch are always present: a
// zero cost is a real answer (served from the generation cache), not an
// absent field.
type CloakPayload struct {
	Cluster []int32 `json:"cluster"`
	Cost    int     `json:"cost"`
	Epoch   uint64  `json:"epoch"`
	// EffectiveK is the anonymity level the cluster actually satisfies:
	// the service-wide k unless some member's profile demanded more.
	EffectiveK int `json:"effective_k"`
	// Degraded reports that the requesting user's own MaxArea bound was
	// exceeded — the cluster is still a valid anonymity set, it is just
	// larger than the user finds useful.
	Degraded bool `json:"degraded,omitempty"`
}

// EpochPayload answers OpEpoch and OpRotate: the state of the live
// re-clustering pipeline. For OpRotate, Epoch is the newly assigned
// generation number (its build completes in the background).
type EpochPayload struct {
	Epoch     uint64 `json:"epoch"`
	Published bool   `json:"published"`
	Pending   int    `json:"pending"`
	Builds    uint64 `json:"builds"`
	Swaps     uint64 `json:"swaps"`

	UploadsSeen  uint64 `json:"uploads_seen"`
	SinceTrigger int    `json:"since_trigger"`
	Changed      int    `json:"changed"`
	Policy       string `json:"policy"`

	Edges    int `json:"edges"`
	Clusters int `json:"clusters"`
	Skipped  int `json:"skipped"`

	// ShardsRebuilt/ShardsTotal are the serving generation's incremental
	// rebuild accounting: how many of the WPG's connected components
	// re-ran clustering vs. were spliced from the previous generation.
	ShardsRebuilt int `json:"shards_rebuilt"`
	ShardsTotal   int `json:"shards_total"`

	// Profiled counts users whose stored privacy profile is non-default;
	// KMax and Degraded are the serving generation's profile accounting
	// (largest effective k any cluster satisfies, and users served with
	// their MaxArea bound exceeded). All omitted while every user runs
	// the default profile.
	Profiled int `json:"profiled,omitempty"`
	KMax     int `json:"k_max,omitempty"`
	Degraded int `json:"degraded,omitempty"`

	LastBuildUs float64 `json:"last_build_us"`
}

// StatsPayload answers OpStats. Frozen is always present: an unfrozen
// server reports "frozen":false.
type StatsPayload struct {
	Users    int    `json:"users"`
	Uploads  int    `json:"uploads"`
	Frozen   bool   `json:"frozen"`
	Epoch    uint64 `json:"epoch"`
	Clusters int    `json:"clusters"`
	Edges    int    `json:"edges"`
	// Profiled counts users whose stored privacy profile is non-default
	// (omitted while every user runs the defaults).
	Profiled int `json:"profiled,omitempty"`

	Requests  uint64            `json:"requests"`
	ReqErrors uint64            `json:"req_errors"`
	LatP50us  float64           `json:"lat_p50_us"`
	LatP95us  float64           `json:"lat_p95_us"`
	LatP99us  float64           `json:"lat_p99_us"`
	OpCounts  map[string]uint64 `json:"op_counts,omitempty"`
}

// errEnvelope wraps an error message in a v1 envelope.
func errEnvelope(msg string) Envelope {
	return Envelope{V: ProtocolVersion, Error: msg}
}

// NewEpochPayload renders a pipeline status in the v1 wire shape. The
// admin /epochz endpoint uses it so HTTP observers and v1 clients see
// the same fields.
func NewEpochPayload(st epoch.Status) *EpochPayload { return epochPayload(st) }

// epochPayload renders a pipeline status.
func epochPayload(st epoch.Status) *EpochPayload {
	return &EpochPayload{
		Epoch:         st.Epoch,
		Published:     st.Published,
		Pending:       st.Pending,
		Builds:        st.Builds,
		Swaps:         st.Swaps,
		UploadsSeen:   st.UploadsSeen,
		SinceTrigger:  st.SinceTrigger,
		Changed:       st.ChangedSinceTrigger,
		Policy:        st.Policy.String(),
		Edges:         st.Edges,
		Clusters:      st.Clusters,
		Skipped:       st.Skipped,
		ShardsRebuilt: st.ShardsRebuilt,
		ShardsTotal:   st.ShardsTotal,
		Profiled:      st.Profiled,
		KMax:          st.KMax,
		Degraded:      st.Degraded,
		LastBuildUs:   float64(st.LastBuildDuration) / float64(time.Microsecond),
	}
}

// statsPayload renders server state plus request metrics.
func statsPayload(st epoch.Status, snap metrics.RequestSnapshot) *StatsPayload {
	p := &StatsPayload{
		Users:     st.Users,
		Uploads:   st.Uploads,
		Frozen:    st.Published,
		Epoch:     st.Epoch,
		Clusters:  st.Clusters,
		Edges:     st.Edges,
		Profiled:  st.Profiled,
		Requests:  snap.Total,
		ReqErrors: snap.Errors,
		LatP50us:  float64(snap.P50) / float64(time.Microsecond),
		LatP95us:  float64(snap.P95) / float64(time.Microsecond),
		LatP99us:  float64(snap.P99) / float64(time.Microsecond),
	}
	if len(snap.Ops) > 0 {
		p.OpCounts = make(map[string]uint64, len(snap.Ops))
		for _, op := range snap.Ops {
			p.OpCounts[op.Op] = op.Count
		}
	}
	return p
}
