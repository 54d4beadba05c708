package rate_test

import (
	"math/rand"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// TestProtocolUsesWideTier runs B-Neck on the paper's transit-stub LAN to
// quiescence and checks the allocation against the oracle. It also pins
// that the 128-bit tier carries part of that run: the LAN's link sums and
// max-min rates outgrow int64, and if a change stopped routing them through
// the tier (say, by promoting straight to big.Rat again) the tier would go
// untested by every protocol suite.
func TestProtocolUsesWideTier(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 400
	hosts := topo.AddHosts(2 * sessions)
	g := topo.Graph
	net := network.NewSharded(g, sim.NewSharded(1), network.DefaultConfig())
	res := graph.NewResolver(g, 256)
	rng := rand.New(rand.NewSource(3))
	all := make([]*network.Session, sessions)
	for i := range all {
		src, dst := hosts[i], hosts[sessions+rng.Intn(sessions)]
		path, err := res.HostPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if all[i], err = net.NewSession(src, dst, path); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range trace.Joins(0, sessions, 0, time.Millisecond, trace.MixedDemands(0.25, 1, 100), rng) {
		net.ScheduleJoin(all[ev.Session], ev.At, ev.Demand)
	}
	net.Run()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}

	tiers := map[string]int{}
	oracle, err := net.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range oracle {
		tiers[rate.Tier(r)]++
	}
	for _, r := range net.AppendLinkLoad(nil) {
		tiers[rate.Tier(r)]++
	}
	t.Logf("oracle rates and link sums by tier: %v", tiers)
	if tiers["wide"] == 0 {
		t.Fatalf("no oracle rate or link sum is in the 128-bit tier: %v", tiers)
	}
}
