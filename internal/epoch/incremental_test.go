package epoch

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// multiRing builds r rings of size sz each: user ringBase+i is ranked
// with its two ring neighbors. Each ring is one WPG component, so the
// incremental rebuild has real shards to splice.
func multiRing(rings, sz int) map[int32][]RankedPeer {
	out := make(map[int32][]RankedPeer, rings*sz)
	for r := 0; r < rings; r++ {
		base := int32(r * sz)
		for i := 0; i < sz; i++ {
			u := base + int32(i)
			out[u] = []RankedPeer{
				{Peer: base + int32((i+1)%sz), Rank: 1},
				{Peer: base + int32((i-1+sz)%sz), Rank: 2},
			}
		}
	}
	return out
}

// stripShards removes the shards=rebuilt/total suffix, the one
// transcript field that legitimately differs between an incremental and
// a full pipeline run over the same uploads.
func stripShards(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		if idx := strings.Index(l, " shards="); idx >= 0 {
			l = l[:idx]
		}
		out[i] = l
	}
	return out
}

// churnScenario mutates the current upload state for one tick and
// returns the users whose lists changed. Mutations: in-ring rank swaps
// (weight churn inside a component) and cross-ring mutual pair toggles
// (component merges and splits).
type churnScenario struct {
	rng   *rand.Rand
	rings int
	sz    int
	lists map[int32][]RankedPeer
	// crossActive tracks which cross-ring pairs currently exist so a
	// toggle can remove exactly what it added.
	crossActive map[[2]int32]bool
}

func newChurnScenario(seed int64, rings, sz int) *churnScenario {
	return &churnScenario{
		rng:         rand.New(rand.NewSource(seed)),
		rings:       rings,
		sz:          sz,
		lists:       multiRing(rings, sz),
		crossActive: make(map[[2]int32]bool),
	}
}

func (s *churnScenario) tick() []int32 {
	touched := make(map[int32]struct{})
	// One or two in-ring rank swaps.
	for j := 0; j < 1+s.rng.Intn(2); j++ {
		u := int32(s.rng.Intn(s.rings * s.sz))
		peers := append([]RankedPeer(nil), s.lists[u]...)
		peers[0].Rank, peers[1].Rank = peers[1].Rank, peers[0].Rank
		s.lists[u] = peers
		touched[u] = struct{}{}
	}
	// Occasionally toggle a mutual cross-ring pair: merges two
	// components when added, splits them again when removed.
	if s.rng.Intn(3) == 0 {
		r1 := s.rng.Intn(s.rings)
		r2 := (r1 + 1 + s.rng.Intn(s.rings-1)) % s.rings
		a := int32(r1*s.sz + s.rng.Intn(s.sz))
		b := int32(r2*s.sz + s.rng.Intn(s.sz))
		key := [2]int32{a, b}
		if a > b {
			key = [2]int32{b, a}
		}
		if s.crossActive[key] {
			s.lists[a] = removePeer(s.lists[a], b)
			s.lists[b] = removePeer(s.lists[b], a)
			delete(s.crossActive, key)
		} else {
			s.lists[a] = append(append([]RankedPeer(nil), s.lists[a]...), RankedPeer{Peer: b, Rank: 3})
			s.lists[b] = append(append([]RankedPeer(nil), s.lists[b]...), RankedPeer{Peer: a, Rank: 3})
			s.crossActive[key] = true
		}
		touched[a] = struct{}{}
		touched[b] = struct{}{}
	}
	users := make([]int32, 0, len(touched))
	for u := range touched {
		users = append(users, u)
	}
	return users
}

func removePeer(peers []RankedPeer, peer int32) []RankedPeer {
	out := make([]RankedPeer, 0, len(peers))
	for _, pr := range peers {
		if pr.Peer != peer {
			out = append(out, pr)
		}
	}
	return out
}

// TestIncrementalMatchesFullDifferential is the tentpole acceptance
// gate: across 100 seeded churn scenarios (in-ring weight churn plus
// component merges and splits), the incremental pipeline must publish
// generations bit-identical to a from-scratch pipeline fed the same
// uploads — same graphs, same clusters with the same IDs, same skipped
// counts, same transcript up to the shards accounting.
func TestIncrementalMatchesFullDifferential(t *testing.T) {
	const (
		seeds = 100
		rings = 8
		sz    = 12
		n     = rings * sz
		ticks = 4
	)
	reusedSomewhere := false
	for seed := int64(0); seed < seeds; seed++ {
		inc, err := New(n, WithK(3), WithHistoryLimit(ticks+2), WithIncremental(true))
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(n, WithK(3), WithHistoryLimit(ticks+2), WithIncremental(false))
		if err != nil {
			t.Fatal(err)
		}
		sc := newChurnScenario(seed, rings, sz)
		feed := func(users []int32) {
			t.Helper()
			for _, u := range users {
				if err := inc.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u]}); err != nil {
					t.Fatal(err)
				}
				if err := full.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u]}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := inc.Rotate(bg); err != nil {
				t.Fatal(err)
			}
			if _, err := full.Rotate(bg); err != nil {
				t.Fatal(err)
			}
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		feed(all)
		for tick := 0; tick < ticks; tick++ {
			feed(sc.tick())
		}
		if err := inc.Sync(bg); err != nil {
			t.Fatal(err)
		}
		if err := full.Sync(bg); err != nil {
			t.Fatal(err)
		}

		ih, fh := inc.History(), full.History()
		if len(ih) != len(fh) {
			t.Fatalf("seed %d: %d incremental generations vs %d full", seed, len(ih), len(fh))
		}
		for i := range ih {
			if msg := diffGenerations(ih[i], fh[i]); msg != "" {
				t.Fatalf("seed %d epoch %d: %s", seed, ih[i].Epoch, msg)
			}
			if ih[i].ShardsRebuilt < ih[i].ShardsTotal {
				reusedSomewhere = true
			}
		}
		it, ft := stripShards(inc.Transcript()), stripShards(full.Transcript())
		if strings.Join(it, "\n") != strings.Join(ft, "\n") {
			t.Fatalf("seed %d: transcripts differ (shards field stripped):\nincremental:\n%s\nfull:\n%s",
				seed, strings.Join(it, "\n"), strings.Join(ft, "\n"))
		}
		inc.Close()
		full.Close()
	}
	if !reusedSomewhere {
		t.Fatal("no generation spliced a single shard across 100 scenarios — the incremental path never engaged")
	}
}

// diffGenerations compares two published generations field by field,
// including every registered cluster. Empty string = identical.
func diffGenerations(a, b *Generation) string {
	if (a.BuildErr == nil) != (b.BuildErr == nil) {
		return fmt.Sprintf("build errors differ: %v vs %v", a.BuildErr, b.BuildErr)
	}
	if a.BuildErr != nil {
		return ""
	}
	if a.Edges != b.Edges || a.Clusters != b.Clusters || a.Skipped != b.Skipped {
		return fmt.Sprintf("bookkeeping differs: edges %d/%d clusters %d/%d skipped %d/%d",
			a.Edges, b.Edges, a.Clusters, b.Clusters, a.Skipped, b.Skipped)
	}
	if a.Profiled != b.Profiled || a.KMax != b.KMax || a.Degraded != b.Degraded {
		return fmt.Sprintf("profile accounting differs: profiled %d/%d kmax %d/%d degraded %d/%d",
			a.Profiled, b.Profiled, a.KMax, b.KMax, a.Degraded, b.Degraded)
	}
	if len(a.Meta) != len(b.Meta) {
		return fmt.Sprintf("cluster meta lengths differ: %d vs %d", len(a.Meta), len(b.Meta))
	}
	for i := range a.Meta {
		if a.Meta[i] != b.Meta[i] {
			return fmt.Sprintf("cluster meta %d differs: %+v vs %+v", i, a.Meta[i], b.Meta[i])
		}
	}
	ae, be := a.Graph.Edges(), b.Graph.Edges()
	if len(ae) != len(be) {
		return fmt.Sprintf("edge counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			return fmt.Sprintf("edge %d differs: %+v vs %+v", i, ae[i], be[i])
		}
	}
	ac, bc := a.Anon.Registry().Clusters(), b.Anon.Registry().Clusters()
	if len(ac) != len(bc) {
		return fmt.Sprintf("cluster counts differ: %d vs %d", len(ac), len(bc))
	}
	for i := range ac {
		if ac[i].ID != bc[i].ID || ac[i].T != bc[i].T {
			return fmt.Sprintf("cluster %d: id/T %d/%d vs %d/%d", i, ac[i].ID, ac[i].T, bc[i].ID, bc[i].T)
		}
		if len(ac[i].Members) != len(bc[i].Members) {
			return fmt.Sprintf("cluster %d: %d members vs %d", i, len(ac[i].Members), len(bc[i].Members))
		}
		for j := range ac[i].Members {
			if ac[i].Members[j] != bc[i].Members[j] {
				return fmt.Sprintf("cluster %d member %d: %d vs %d", i, j, ac[i].Members[j], bc[i].Members[j])
			}
		}
	}
	return ""
}

// TestIncrementalShardAccounting pins the shards=rebuilt/total numbers
// on a hand-checkable population: 4 separate rings, churn in exactly
// one of them, so one shard rebuilds and three splice.
func TestIncrementalShardAccounting(t *testing.T) {
	const rings, sz = 4, 8
	m, err := New(rings*sz, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lists := multiRing(rings, sz)
	for u, peers := range lists {
		if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	gen := m.Current()
	if gen.ShardsTotal != rings || gen.ShardsRebuilt != rings {
		t.Fatalf("first build shards = %d/%d, want %d/%d", gen.ShardsRebuilt, gen.ShardsTotal, rings, rings)
	}

	// Swap ranks for one user of ring 2: only that component is dirty.
	u := int32(2 * sz)
	peers := append([]RankedPeer(nil), lists[u]...)
	peers[0].Rank, peers[1].Rank = peers[1].Rank, peers[0].Rank
	if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	gen = m.Current()
	if gen.ShardsTotal != rings || gen.ShardsRebuilt != 1 {
		t.Fatalf("churned build shards = %d/%d, want 1/%d", gen.ShardsRebuilt, gen.ShardsTotal, rings)
	}
	if !strings.Contains(gen.transcriptLine(), fmt.Sprintf("shards=1/%d", rings)) {
		t.Errorf("transcript line %q lacks the shard accounting", gen.transcriptLine())
	}
	if st := m.Status(); st.ShardsTotal != rings || st.ShardsRebuilt != 1 {
		t.Errorf("status shards = %d/%d, want 1/%d", st.ShardsRebuilt, st.ShardsTotal, rings)
	}
}

func TestEqualRanks(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []RankedPeer
		want bool
	}{
		{"nil vs nil", nil, nil, true},
		{"nil vs empty", nil, []RankedPeer{}, true},
		{"identical", []RankedPeer{{1, 1}, {2, 2}}, []RankedPeer{{1, 1}, {2, 2}}, true},
		{"permuted", []RankedPeer{{1, 1}, {2, 2}}, []RankedPeer{{2, 2}, {1, 1}}, false},
		{"truncated", []RankedPeer{{1, 1}, {2, 2}}, []RankedPeer{{1, 1}}, false},
		{"rank differs", []RankedPeer{{1, 1}}, []RankedPeer{{1, 2}}, false},
		{"peer differs", []RankedPeer{{1, 1}}, []RankedPeer{{3, 1}}, false},
	} {
		if got := equalRanks(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: equalRanks = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBuildGraphEdgeCases(t *testing.T) {
	// Self-ranks never form an edge, even when "mutual" with itself.
	g, err := BuildGraph(2, map[int32][]RankedPeer{
		0: {{Peer: 0, Rank: 1}},
		1: {{Peer: 1, Rank: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("self-ranks: %d edges, want 0", g.NumEdges())
	}
	// An out-of-range peer id that survives into a mutual pair must fail
	// graph construction instead of corrupting it.
	if _, err := BuildGraph(2, map[int32][]RankedPeer{
		0: {{Peer: 5, Rank: 1}},
		5: {{Peer: 0, Rank: 1}},
	}); err == nil {
		t.Error("out-of-range mutual pair built a graph")
	}
	// Duplicate entries for the same peer: the minimum rank wins, in
	// either direction.
	g, err = BuildGraph(2, map[int32][]RankedPeer{
		0: {{Peer: 1, Rank: 5}, {Peer: 1, Rank: 2}},
		1: {{Peer: 0, Rank: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.Weight(0, 1); !ok || w != 2 {
		t.Errorf("duplicate entries: weight(0,1) = %d,%v, want 2,true", w, ok)
	}
}

// TestBuildGraphIncrementalFallsBack: a nil previous graph or a
// population mismatch must silently take the full-build path.
func TestBuildGraphIncrementalFallsBack(t *testing.T) {
	uploads := ringUploads(6)
	want, err := BuildGraph(6, uploads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildGraphIncremental(6, uploads, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Errorf("nil prev: %d edges, want %d", got.NumEdges(), want.NumEdges())
	}
	smaller, err := BuildGraph(4, ringUploads(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err = BuildGraphIncremental(6, uploads, smaller, map[int32]struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Errorf("mismatched prev: %d edges, want %d", got.NumEdges(), want.NumEdges())
	}
}

// TestConcurrentChurnIncremental races uploaders, a rotator, and
// cloakers against the incremental build path (run under -race); see
// runConcurrentChurn for the invariants.
func TestConcurrentChurnIncremental(t *testing.T) {
	runConcurrentChurn(t, WithIncremental(true))
}
