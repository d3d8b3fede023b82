package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// TestCoordinatorWireProtocol drives the coordinator through its TCP
// front-end with a stock service.Client: a cluster must be a drop-in
// replacement for one cloakd.
func TestCoordinatorWireProtocol(t *testing.T) {
	n, k := 30, 2
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	cm := metrics.NewClusterMetrics()
	coord := startCluster(t, n, k, 2, keys, cm)
	addr, err := coord.Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := service.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// A straddling triangle (14,15,16) plus a shard-local pair (2,3).
	mutual := func(u int32, vs ...int32) {
		var peers []service.PeerRank
		for i, v := range vs {
			peers = append(peers, service.PeerRank{Peer: v, Rank: int32(i + 1)})
		}
		if err := c.Upload(u, peers); err != nil {
			t.Fatalf("upload %d: %v", u, err)
		}
	}
	mutual(14, 15, 16)
	mutual(15, 14, 16)
	mutual(16, 14, 15)
	mutual(2, 3)
	mutual(3, 2)

	edges, err := c.Freeze()
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	if edges != 4 {
		t.Fatalf("freeze reported %d edges, want 4 (triangle 3 + pair 1)", edges)
	}

	cp, err := c.CloakV1(15)
	if err != nil {
		t.Fatalf("cloak: %v", err)
	}
	if len(cp.Cluster) != 3 {
		t.Fatalf("cloak(15) = %v, want the triangle", cp.Cluster)
	}
	// Cloak for a user in no component.
	if _, err := c.CloakV1(9); err == nil {
		t.Fatal("cloak of an unknown user succeeded")
	}

	// Epoch + stats aggregates.
	ep, err := c.EpochStatus()
	if err != nil {
		t.Fatalf("epoch: %v", err)
	}
	if ep.Epoch != 1 || !ep.Published {
		t.Fatalf("epoch payload = %+v, want cluster epoch 1 published", ep)
	}
	st, err := c.StatsV1()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Users != n || st.Uploads != 5 || !st.Frozen {
		t.Fatalf("stats payload = %+v, want users=%d uploads=5 frozen", st, n)
	}
	// Rotate with nothing new: shards answer "no new uploads", the
	// coordinator still advances its rotation count.
	ep2, err := c.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if ep2.Epoch != 2 {
		t.Fatalf("rotate epoch = %d, want 2", ep2.Epoch)
	}

	snap := cm.Snapshot()
	if snap.Shards != 2 || snap.RoutedTotal == 0 || snap.Rotations != 2 {
		t.Fatalf("cluster metrics %s: want 2 shards, routed ops, 2 rotations", snap)
	}
	if snap.BorderReplays == 0 {
		t.Fatal("the straddling triangle produced no border replays")
	}
	if snap.Batches == 0 || snap.BatchedOps == 0 {
		t.Fatalf("cluster metrics %s: ordered forwards never batched", snap)
	}

	// The coordinator front-end also accepts upload_batch and
	// relays the per-entry routing, including mid-batch rejection.
	accepted, err := c.UploadBatch([]service.UploadEntry{
		{User: 20, Peers: []service.PeerRank{{Peer: 21, Rank: 1}}},
		{User: 21, Peers: []service.PeerRank{{Peer: 20, Rank: 1}}},
	})
	if err != nil || accepted != 2 {
		t.Fatalf("front-end batch = %d, %v", accepted, err)
	}
	accepted, err = c.UploadBatch([]service.UploadEntry{
		{User: 22, Peers: []service.PeerRank{{Peer: 20, Rank: 1}}},
		{User: 99}, // out of range at the coordinator
	})
	if err == nil || accepted != 1 {
		t.Fatalf("front-end partial batch = %d, %v; want 1 with an error", accepted, err)
	}
	if _, err := c.Rotate(); err != nil {
		t.Fatal(err)
	}
	cl, err := c.CloakV1(20)
	if err != nil {
		t.Fatalf("cloak after front-end batch: %v", err)
	}
	if len(cl.Cluster) != 2 {
		t.Fatalf("cloak(20) = %v, want the batched pair", cl.Cluster)
	}
}

// TestCoordinatorCloseWithIdleClient: a client that stays connected
// without sending anything must not stall Close — the coordinator closes
// its tracked connections instead of waiting for clients to hang up.
func TestCoordinatorCloseWithIdleClient(t *testing.T) {
	coord := startCluster(t, 10, 2, 1, make([]uint64, 10), nil)
	addr, err := coord.Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := service.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		c.Close() // let the stuck Close finish so cleanup does not hang too
		<-done
		t.Fatal("Close blocked for 5s on an idle connected client")
	}
}

// TestCoordinatorCloseAfterListenCtxCanceled: canceling Listen's ctx
// stops the listener, and a later Close must not report the already
// closed listener as an error (cloakd -coordinator does exactly this on
// SIGINT).
func TestCoordinatorCloseAfterListenCtxCanceled(t *testing.T) {
	coord := startCluster(t, 10, 2, 1, make([]uint64, 10), nil)
	ctx, cancel := context.WithCancel(bg)
	addr, err := coord.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// Wait until the cancellation has really closed the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 5s after its ctx was canceled")
		}
		time.Sleep(time.Millisecond)
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("Close after ctx cancel = %v, want nil", err)
	}
}

// TestVersionlessLineGetsVersionError sends a line without "v" and then
// a v1 line on one TCP connection, to a single cloakd and to a
// coordinator: the first gets a v1 error envelope naming the version to
// send, and the connection survives to serve the second.
func TestVersionlessLineGetsVersionError(t *testing.T) {
	srv, err := service.New(service.WithNumUsers(10), service.WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srvAddr, err := srv.Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := startCluster(t, 10, 2, 2, make([]uint64, 10), nil)
	coordAddr, err := coord.Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	for name, addr := range map[string]net.Addr{"cloakd": srvAddr, "coordinator": coordAddr} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			rd := bufio.NewReader(conn)
			send := func(line string) service.Envelope {
				t.Helper()
				if _, err := conn.Write([]byte(line + "\n")); err != nil {
					t.Fatalf("write %q: %v", line, err)
				}
				raw, err := rd.ReadBytes('\n')
				if err != nil {
					t.Fatalf("read answer to %q: %v", line, err)
				}
				var env service.Envelope
				if err := json.Unmarshal(raw, &env); err != nil {
					t.Fatalf("answer %q to %q: %v", raw, line, err)
				}
				return env
			}

			env := send(`{"op":"stats"}`)
			if env.V != service.ProtocolVersion || env.OK || env.Stats != nil ||
				!strings.Contains(env.Error, `unsupported protocol version 0 (send "v":1)`) {
				t.Fatalf("version-less stats = %+v, want a v1 version error", env)
			}
			env = send(`{"v":1,"op":"stats"}`)
			if !env.OK || env.Stats == nil || env.Stats.Users != 10 {
				t.Fatalf("v1 stats after the version error = %+v", env)
			}
		})
	}
}
