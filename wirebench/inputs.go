package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nonexposure/internal/dataset"
	"nonexposure/internal/geo"
	"nonexposure/internal/mobility"
	"nonexposure/internal/rss"
	"nonexposure/internal/service"
	"nonexposure/internal/workload"
	"nonexposure/internal/wpg"
)

// maxPeers is the per-device connection cap M (Table I).
const maxPeers = 10

// inputs is everything the system under test will receive, derived from
// the seed before any clock starts: the initial upload of every user, the
// per-tick uploads of the users that move — in the window (ticks) or
// after the sweep (probes) — and the cloak host streams.
type inputs struct {
	n       int
	delta   float64
	initial []service.UploadEntry
	ticks   [][]service.UploadEntry
	probes  [][]service.UploadEntry
	hosts   [][]int32   // one closed-loop host stream per reader connection
	start   []geo.Point // true positions before the first tick
	final   []geo.Point // true positions after the last tick
}

// deltaFor scales the paper's radio range δ = 2×10⁻³ (tuned for the
// 104,770-user California set) so a smaller population keeps the same
// expected number of peers in range, exactly as cmd/cloaksim does.
func deltaFor(n int) float64 {
	return 2e-3 * math.Sqrt(float64(dataset.CaliforniaPOISize)/float64(n))
}

// genInputs builds the seeded inputs of one run: n users of the
// CaliforniaLike dataset, nTicks ticks each moving frac of them with
// LocalWander, and one Zipf(0.8) host stream of hostsPerReader requests
// per reader.
func genInputs(n int, frac float64, nTicks, readers, hostsPerReader int, seed int64) (*inputs, error) {
	pts := dataset.CaliforniaLike(n, seed)
	in := &inputs{n: n, delta: deltaFor(n), start: pts}
	g := wpg.Build(pts, wpg.BuildParams{Delta: in.delta, MaxPeers: maxPeers})
	in.initial = make([]service.UploadEntry, n)
	for v := int32(0); v < int32(n); v++ {
		in.initial[v] = service.UploadEntry{User: v, Peers: peersOf(g, v)}
	}

	pos := append([]geo.Point(nil), pts...)
	if nTicks > 0 {
		model, err := mobility.NewLocalWander(pts, in.delta, in.delta/4, in.delta/2, seed)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		per := int(frac * float64(n))
		if per < 1 {
			per = 1
		}
		for t := 0; t < nTicks; t++ {
			model.Step(1)
			movers := rng.Perm(n)[:per]
			for _, u := range movers {
				pos[u] = model.Positions()[u]
			}
			nb := newNeighborhood(pos, in.delta)
			tick := make([]service.UploadEntry, per)
			for i, u := range movers {
				tick[i] = service.UploadEntry{User: int32(u), Peers: nb.mutualPeers(int32(u))}
			}
			in.ticks = append(in.ticks, tick)
		}
	}
	in.final = pos

	for r := 0; r < readers; r++ {
		hs, err := workload.ZipfHosts(n, hostsPerReader, 0.8, seed+int64(r)+1)
		if err != nil {
			return nil, err
		}
		in.hosts = append(in.hosts, hs)
	}
	return in, nil
}

// peersOf is a user's upload as cmd/cloaksim forms it: its
// mutual WPG neighbors, each with the symmetric rank weight.
func peersOf(g *wpg.Graph, v int32) []service.PeerRank {
	var peers []service.PeerRank
	for _, e := range g.Neighbors(v) {
		peers = append(peers, service.PeerRank{Peer: e.To, Rank: e.W})
	}
	return peers
}

// neighborhood answers "what would user u upload now" for a few users
// without rebuilding the WPG of the whole population: a mover's mutual
// edges depend only on the top-M lists of itself and its peers in range,
// which a grid over the current positions gives in O(peers²). The result
// is exactly wpg.Build's adjacency for those users (the self-test checks
// this), at a small fraction of its cost per tick.
type neighborhood struct {
	pts   []geo.Point
	cell  float64
	cols  int
	grid  map[int][]int32
	ranks map[int32]map[int32]int
}

func newNeighborhood(pts []geo.Point, delta float64) *neighborhood {
	nb := &neighborhood{
		pts:   pts,
		cell:  delta,
		cols:  int(1/delta) + 3,
		grid:  make(map[int][]int32),
		ranks: make(map[int32]map[int32]int),
	}
	for i, p := range pts {
		k := nb.key(nb.cellOf(p))
		nb.grid[k] = append(nb.grid[k], int32(i))
	}
	return nb
}

func (nb *neighborhood) cellOf(p geo.Point) (int, int) {
	return int(math.Floor(p.X/nb.cell)) + 1, int(math.Floor(p.Y/nb.cell)) + 1
}

func (nb *neighborhood) key(cx, cy int) int { return cy*nb.cols + cx }

// rankOf is u's top-M peer ranking (1 = strongest), as a device measures
// it: every peer within δ, strongest signal first, ties by id.
func (nb *neighborhood) rankOf(u int32) map[int32]int {
	if r, ok := nb.ranks[u]; ok {
		return r
	}
	p := nb.pts[u]
	deltaSq := nb.cell * nb.cell
	var model rss.InverseModel
	var meas []rss.Measurement
	cx, cy := nb.cellOf(p)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			for _, v := range nb.grid[nb.key(cx+dx, cy+dy)] {
				if v != u && p.DistSq(nb.pts[v]) <= deltaSq {
					meas = append(meas, rss.Measurement{Peer: v, RSS: model.Signal(p.Dist(nb.pts[v]))})
				}
			}
		}
	}
	r := rss.Rank(rss.TopM(meas, maxPeers))
	nb.ranks[u] = r
	return r
}

// mutualPeers is u's upload: the peers that keep u in their top M while u
// keeps them, weighted by the smaller of the two ranks, sorted like
// wpg.Graph adjacency (weight, then id).
func (nb *neighborhood) mutualPeers(u int32) []service.PeerRank {
	var peers []service.PeerRank
	for v, ru := range nb.rankOf(u) {
		if rv, ok := nb.rankOf(v)[u]; ok {
			w := ru
			if rv < w {
				w = rv
			}
			peers = append(peers, service.PeerRank{Peer: v, Rank: int32(w)})
		}
	}
	sort.Slice(peers, func(i, j int) bool {
		if peers[i].Rank != peers[j].Rank {
			return peers[i].Rank < peers[j].Rank
		}
		return peers[i].Peer < peers[j].Peer
	})
	return peers
}

// checkTicksAgainstWPG recomputes every tick's uploads with a full
// wpg.Build over the positions of that tick and reports the first
// difference. Quadratic in ticks × population, so only the self-test
// calls it, on a small population.
func checkTicksAgainstWPG(n int, frac float64, nTicks int, seed int64) error {
	in, err := genInputs(n, frac, nTicks, 0, 0, seed)
	if err != nil {
		return err
	}
	pts := dataset.CaliforniaLike(n, seed)
	model, err := mobility.NewLocalWander(pts, in.delta, in.delta/4, in.delta/2, seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pos := append([]geo.Point(nil), pts...)
	for t, tick := range in.ticks {
		model.Step(1)
		movers := rng.Perm(n)[:len(tick)]
		for _, u := range movers {
			pos[u] = model.Positions()[u]
		}
		g := wpg.Build(pos, wpg.BuildParams{Delta: in.delta, MaxPeers: maxPeers})
		for _, e := range tick {
			want := peersOf(g, e.User)
			if fmt.Sprint(want) != fmt.Sprint(e.Peers) {
				return fmt.Errorf("tick %d user %d: generated %v, wpg.Build gives %v", t, e.User, e.Peers, want)
			}
		}
	}
	return nil
}
