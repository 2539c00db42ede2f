// Filesharing: a decentralised P2P deployment. Three peers — each a
// reputation server plus an anti-entropy reconciler — gossip their feedback
// stores; feedback about a file server lands on one peer but every peer
// converges to the same history and its own server reaches the same
// two-phase verdict — no central collector needed.
package main

import (
	"fmt"
	"log"
	"time"

	"honestplayer"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tester, err := honestplayer.NewMultiTester(honestplayer.TesterConfig{})
	if err != nil {
		return err
	}
	assessor, err := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
	if err != nil {
		return err
	}

	// Three peers in a chain, n1 <-> n2 <-> n3: each is the server its
	// clients talk to plus the reconciler that keeps that server's store in
	// step with its neighbours' serving addresses.
	var srvs []*honestplayer.Server
	var nodes []*honestplayer.GossipNode
	for i := 1; i <= 3; i++ {
		srv, err := honestplayer.NewServer("127.0.0.1:0", honestplayer.ServerConfig{Assessor: assessor})
		if err != nil {
			return err
		}
		srv.Start()
		defer closeOrLog("server", srv)
		node, err := honestplayer.NewGossipNode(honestplayer.GossipConfig{
			Name: fmt.Sprintf("n%d", i), Node: srv, Interval: 50 * time.Millisecond, Seed: uint64(i),
		})
		if err != nil {
			return err
		}
		defer closeOrLog("gossip node", node)
		srvs, nodes = append(srvs, srv), append(nodes, node)
	}
	nodes[0].AddPeer(srvs[1].Addr())
	nodes[1].AddPeer(srvs[0].Addr())
	nodes[1].AddPeer(srvs[2].Addr())
	nodes[2].AddPeer(srvs[1].Addr())
	for _, node := range nodes {
		node.Start()
	}

	// Clients of node n1 record their experience with a file server that
	// runs a periodic attack: one corrupted download per ten.
	rng := honestplayer.NewRNG(99)
	h, err := honestplayer.GenPeriodic("file-server", 400, 10, 0.1, rng)
	if err != nil {
		return err
	}
	if _, err := srvs[0].Seed(h.Records()); err != nil {
		return err
	}
	fmt.Printf("node n1 ingested %d feedback records about %q\n", srvs[0].Store().Len(), "file-server")

	// Wait for anti-entropy to converge across the chain.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srvs[1].Store().Len() == h.Len() && srvs[2].Store().Len() == h.Len() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("after gossip: n1=%d n2=%d n3=%d records\n",
		srvs[0].Store().Len(), srvs[1].Store().Len(), srvs[2].Store().Len())

	// Every peer's own server assesses and reaches the same verdict.
	for _, srv := range srvs {
		client, err := honestplayer.DialServer(srv.Addr())
		if err != nil {
			return err
		}
		resp, err := client.Assess("file-server", 0.8)
		_ = client.Close()
		if err != nil {
			return err
		}
		fmt.Printf("node verdict: suspicious=%v accept=%v (history %d txns)\n",
			resp.Assessment.Suspicious, resp.Accept, srv.Store().ServerLen("file-server"))
	}
	fmt.Println("a periodic attacker at 90% good keeps its ratio above the threshold, but")
	fmt.Println("every peer's behaviour test flags the non-binomial pattern locally.")
	return nil
}

func closeOrLog(what string, c interface{ Close() error }) {
	if err := c.Close(); err != nil {
		log.Printf("close %s: %v", what, err)
	}
}
