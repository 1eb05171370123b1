// Command summit-topo explores the fat-tree fabric model: topology sizes,
// routing paths, and congestion under the collective traffic patterns of
// §VI-B (neighbour rings vs incast), with adaptive vs static routing.
//
// Usage:
//
//	summit-topo -radix 16                 # topology summary + traffic study
//	summit-topo -radix 8 -route 0,100     # show the path between two hosts
//	summit-topo -platform frontier        # fluid model at another machine's rates
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"summitscale/internal/netsim"
	"summitscale/internal/platform"
	"summitscale/internal/stats"
	"summitscale/internal/topology"
	"summitscale/internal/units"
)

// bwLabel renders a link rate compactly ("25 GB/s", not "25.00 GB/s").
func bwLabel(bw units.BytesPerSecond) string {
	return strings.Replace(bw.String(), ".00 ", " ", 1)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the study to stdout
// and diagnostics to stderr, and returns the exit code. Bad arguments
// (an odd or too small radix, a host outside the tree) exit 2 before
// anything is printed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-topo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	radix := fs.Int("radix", 16, "fat-tree switch radix (even)")
	route := fs.String("route", "", "src,dst host pair to trace")
	plat := fs.String("platform", "summit", "machine whose link rates drive the fluid model ("+strings.Join(platform.Names(), ", ")+")")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "summit-topo: "+format+"\n", a...)
		return 2
	}

	p, err := platform.Lookup(*plat)
	if err != nil {
		return fail("%v", err)
	}
	if *radix < 2 || *radix%2 != 0 {
		return fail("-radix must be even and at least 2, got %d", *radix)
	}
	ft := topology.NewFatTree(*radix)
	var src, dst int
	if *route != "" {
		parts := strings.Split(*route, ",")
		if len(parts) != 2 {
			return fail("-route wants src,dst")
		}
		var err1, err2 error
		src, err1 = strconv.Atoi(parts[0])
		dst, err2 = strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return fail("bad -route hosts")
		}
		for _, h := range []int{src, dst} {
			if h < 0 || h >= ft.HostCount {
				return fail("-route host %d outside the %d hosts of a k=%d fat tree", h, ft.HostCount, ft.Radix)
			}
		}
	}

	fmt.Fprintf(stdout, "k=%d fat tree: %d hosts, %d pods, %d edge+%d agg per pod, %d core switches\n",
		ft.Radix, ft.HostCount, ft.PodCount, ft.EdgePerPod, ft.AggPerPod, ft.CoreCount)
	if *route != "" {
		path := ft.Route(src, dst, true)
		fmt.Fprintf(stdout, "adaptive route %d -> %d (%d links):", src, dst, len(path)-1)
		for _, v := range path {
			fmt.Fprintf(stdout, " %v", v)
		}
		fmt.Fprintln(stdout)
		return 0
	}

	// Traffic study: ring vs permutation vs incast, adaptive vs static.
	fmt.Fprintln(stdout, "\nmax link load under collective traffic patterns:")
	fmt.Fprintln(stdout, "  pattern           static  adaptive")
	ringS := ft.RingNeighborTraffic(ft.HostCount, false)
	ringA := ft.RingNeighborTraffic(ft.HostCount, true)
	fmt.Fprintf(stdout, "  neighbour ring   %7d  %8d\n", ringS, ringA)

	rng := stats.NewRNG(1)
	perm := rng.Perm(ft.HostCount)
	measure := func(adaptive bool) int {
		ft.ResetLoad()
		for s, d := range perm {
			if s != d {
				ft.AddFlow(s, d, adaptive)
			}
		}
		return ft.MaxLinkLoad()
	}
	fmt.Fprintf(stdout, "  permutation      %7d  %8d\n", measure(false), measure(true))

	ft.ResetLoad()
	for s := 1; s < ft.HostCount; s++ {
		ft.AddFlow(s, 0, true)
	}
	fmt.Fprintf(stdout, "  incast to host 0 %7d  (inherent)\n", ft.MaxLinkLoad())

	// Fluid-model timings for a ring allreduce step at the selected
	// machine's injection rate and network latency.
	chunk := units.Bytes(10 * units.MB)
	tm := netsim.RingStepTime(topology.NewFatTree(*radix), ft.HostCount, chunk,
		p.Node.InjectionBW, p.NetworkLatency)
	fmt.Fprintf(stdout, "\nring step of %v/host on %s links: %v\n", chunk, bwLabel(p.Node.InjectionBW), tm)
	return 0
}
