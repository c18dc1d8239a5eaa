// Fiberoptic: the paper's motivating scenario. Internet providers at
// city locations build a fiber network selfishly: each provider buys
// links at alpha times their geographic length and pays its total
// distance to every other city. The example sweeps alpha to show the
// regimes the theory predicts — dense networks when links are cheap,
// sparse near-trees when links dominate — and measures the price of
// anarchy against a heuristic optimum, including the decentralization
// penalty of Thm 15 ((alpha+2)/2 in the worst case).
package main

import (
	"fmt"
	"log"

	"gncg"
)

// Synthetic city grid: three metro clusters with suburbs, in km.
var cities = [][]float64{
	{0, 0}, {2, 1}, {1, 3}, // west metro
	{40, 5}, {42, 4}, {41, 8}, // central metro
	{80, 0}, {78, 3}, {81, 2}, // east metro
	{40, 40}, // northern hub
}

func main() {
	host, err := gncg.HostFromPoints(cities, 2)
	if err != nil {
		log.Fatal(err)
	}
	n := len(cities)

	fmt.Println("ISP fiber build-out: equilibria across the link-price parameter alpha")
	fmt.Printf("%8s  %8s  %8s  %10s  %10s  %8s  %s\n",
		"alpha", "edges", "diameter", "NE cost", "OPT cand.", "ratio", "bound (a+2)/2")
	for _, alpha := range []float64{0.25, 1, 4, 16, 64} {
		g := gncg.NewGame(host, alpha)
		// Exact best responses bootstrap from the empty network (an agent
		// buys a whole link set at once); single-edge greedy moves cannot
		// make any one purchase pay off while the network is disconnected.
		s := gncg.NewState(g, gncg.EmptyProfile(n))
		res := gncg.RunBestResponseDynamics(s, 5000)
		if res.Outcome != gncg.Converged {
			// Dynamics can cycle (no FIP, Thm 14/17); retry with a random
			// activation order until they settle.
			s = gncg.NewState(g, gncg.EmptyProfile(n))
			gncg.RunDynamics(s, gncg.BestResponseMover, gncg.RandomScheduler(7), 5000)
		}
		opt := gncg.SocialOptimumHeuristic(g)
		neCost := s.SocialCost()
		fmt.Printf("%8.2f  %8d  %8.1f  %10.1f  %10.1f  %8.4f  %.2f\n",
			alpha, s.P.EdgeCount(), s.Network().Diameter(),
			neCost, opt.Cost, neCost/opt.Cost, (alpha+2)/2)
	}

	// At high alpha the equilibrium approaches a spanning tree: the MST
	// is the alpha -> infinity optimum.
	g := gncg.NewGame(host, 64)
	s := gncg.NewState(g, gncg.EmptyProfile(n))
	gncg.RunBestResponseDynamics(s, 5000)
	fmt.Printf("\nat alpha=64 the equilibrium has %d edges (a spanning tree has %d)\n",
		s.P.EdgeCount(), n-1)
	fmt.Println("links owned by each provider at alpha=64:")
	for u := 0; u < n; u++ {
		fmt.Printf("  city %d buys %v\n", u, s.P.S[u].Elems())
	}
}
