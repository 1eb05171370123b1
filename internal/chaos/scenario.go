// Package chaos is the adversarial-scenario engine: seeded, declarative
// failure campaigns — cascading node failures with spatial and temporal
// correlation, link flap and brownout windows, storage-bandwidth
// degradation, straggler storms, facility-wide outages — compiled into
// deterministic event schedules and applied across every simulator
// (netsim, storage, ddl, faults, workflow). The independent renewal
// processes of internal/faults model the machine on an average day; the
// chaos scenarios model its worst week, the correlated regimes (a rack
// losing cooling, GPFS under an I/O storm, a center-wide maintenance
// overrun) that §IV-B full-machine campaigns actually died to. After
// every scenario an invariant checker proves the composition stayed
// physical: byte-identical replay at any worker count, non-negative
// times, byte conservation through degraded collectives, and monotone
// degradation as the scenario intensifies.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"summitscale/internal/units"
)

// Background is an uncorrelated failure process running underneath the
// scenario's correlated events — internal/faults' renewal model.
type Background struct {
	NodeMTBF units.Seconds
	Shape    float64 // Weibull shape; 1 is memoryless
}

// Cascade is a correlated node-failure burst: Count failures starting at
// At, spaced Spacing apart (with seeded jitter), striking nodes clustered
// inside a window of Spread consecutive indices — a rack or cooling zone
// going down, not independent crashes.
type Cascade struct {
	At      units.Seconds
	Count   int
	Spacing units.Seconds
	Spread  int
}

// Flap is a link-degradation window: between From and To the fabric's
// worst link oscillates, spending Duty of every Period at Factor of its
// bandwidth.
type Flap struct {
	From, To units.Seconds
	Period   units.Seconds
	Duty     float64
	Factor   float64
}

// Brownout scales the shared filesystem's aggregate bandwidth by Factor
// over [From, To) — the I/O-storm regime of a multi-tenant GPFS.
type Brownout struct {
	From, To units.Seconds
	Factor   float64
}

// Storm is a straggler storm: Count nodes slow down by Factor for the
// window [At, At+For).
type Storm struct {
	At, For units.Seconds
	Count   int
	Factor  float64
}

// Outage takes a whole facility offline over [From, To) — the input to
// the workflow failover policy.
type Outage struct {
	Facility string
	From, To units.Seconds
}

// Repair returns Count failed nodes to service at time At; the elastic
// grow-back policy folds them in at the next checkpoint boundary.
type Repair struct {
	At    units.Seconds
	Count int
}

// SDCBurst is a silent-data-corruption burst: Count corruption events of
// the given kind scattered (seeded) over [At, At+For). Kind "flip" lowers
// to gradient/parameter bit flips, "torn" to torn checkpoint drains,
// "stale" to lost drains leaving deeper tiers serving stale replicas.
type SDCBurst struct {
	At, For units.Seconds
	Count   int
	Kind    string
}

// Scenario is one parsed adversarial campaign.
type Scenario struct {
	Name    string
	Nodes   int
	Horizon units.Seconds

	Background *Background
	Cascades   []Cascade
	Flaps      []Flap
	Brownouts  []Brownout
	Storms     []Storm
	Outages    []Outage
	Repairs    []Repair
	SDCs       []SDCBurst
}

// Parse reads the scenario DSL: one directive per line, `#` comments,
// key/value pairs in `key value` pairs after the directive word.
//
//	name rack-cascade
//	nodes 512
//	horizon 24h
//	background mtbf 2y shape 0.7
//	cascade at 2h count 32 spacing 30s spread 64
//	flap from 4h to 6h period 10m duty 0.5 factor 0.25
//	brownout from 8h to 10h factor 0.4
//	storm at 12h for 1h count 48 factor 2.5
//	outage facility summit from 16h to 20h
//	repair at 20h count 16
//
// Durations accept s/m/h/d/y suffixes (bare numbers are seconds).
func Parse(text string) (*Scenario, error) {
	sc := &Scenario{}
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if err := sc.apply(fields[0], fields[1:]); err != nil {
			return nil, fmt.Errorf("chaos: line %d: %v", ln+1, err)
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// MustParse is Parse for static scenario definitions.
func MustParse(text string) *Scenario {
	sc, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return sc
}

func pairs(fields []string) (map[string]string, error) {
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("directive arguments must come in key value pairs, got %v", fields)
	}
	kv := make(map[string]string, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		if _, dup := kv[fields[i]]; dup {
			return nil, fmt.Errorf("duplicate key %q", fields[i])
		}
		kv[fields[i]] = fields[i+1]
	}
	return kv, nil
}

func (sc *Scenario) apply(directive string, rest []string) error {
	var kv map[string]string
	var err error
	need := func(keys ...string) error {
		kv, err = pairs(rest)
		if err != nil {
			return err
		}
		for _, k := range keys {
			if _, ok := kv[k]; !ok {
				return fmt.Errorf("%s needs %q", directive, k)
			}
		}
		if len(kv) != len(keys) {
			return fmt.Errorf("%s takes exactly %v, got %v", directive, keys, rest)
		}
		return nil
	}
	dur := func(key string) units.Seconds {
		if err != nil {
			return 0
		}
		var d units.Seconds
		d, err = parseDur(kv[key])
		return d
	}
	num := func(key string) float64 {
		if err != nil {
			return 0
		}
		var v float64
		v, err = strconv.ParseFloat(kv[key], 64)
		return v
	}
	count := func(key string) int {
		if err != nil {
			return 0
		}
		var n int
		n, err = strconv.Atoi(kv[key])
		return n
	}

	switch directive {
	case "name":
		if len(rest) != 1 {
			return fmt.Errorf("name takes one word")
		}
		sc.Name = rest[0]
		return nil
	case "nodes":
		if len(rest) != 1 {
			return fmt.Errorf("nodes takes one count")
		}
		sc.Nodes, err = strconv.Atoi(rest[0])
		return err
	case "horizon":
		if len(rest) != 1 {
			return fmt.Errorf("horizon takes one duration")
		}
		sc.Horizon, err = parseDur(rest[0])
		return err
	case "background":
		if e := need("mtbf", "shape"); e != nil {
			return e
		}
		sc.Background = &Background{NodeMTBF: dur("mtbf"), Shape: num("shape")}
	case "cascade":
		if e := need("at", "count", "spacing", "spread"); e != nil {
			return e
		}
		sc.Cascades = append(sc.Cascades, Cascade{
			At: dur("at"), Count: count("count"),
			Spacing: dur("spacing"), Spread: count("spread")})
	case "flap":
		if e := need("from", "to", "period", "duty", "factor"); e != nil {
			return e
		}
		sc.Flaps = append(sc.Flaps, Flap{From: dur("from"), To: dur("to"),
			Period: dur("period"), Duty: num("duty"), Factor: num("factor")})
	case "brownout":
		if e := need("from", "to", "factor"); e != nil {
			return e
		}
		sc.Brownouts = append(sc.Brownouts, Brownout{
			From: dur("from"), To: dur("to"), Factor: num("factor")})
	case "storm":
		if e := need("at", "for", "count", "factor"); e != nil {
			return e
		}
		sc.Storms = append(sc.Storms, Storm{At: dur("at"), For: dur("for"),
			Count: count("count"), Factor: num("factor")})
	case "outage":
		if e := need("facility", "from", "to"); e != nil {
			return e
		}
		sc.Outages = append(sc.Outages, Outage{Facility: kv["facility"],
			From: dur("from"), To: dur("to")})
	case "repair":
		if e := need("at", "count"); e != nil {
			return e
		}
		sc.Repairs = append(sc.Repairs, Repair{At: dur("at"), Count: count("count")})
	case "sdc":
		if e := need("at", "for", "count", "kind"); e != nil {
			return e
		}
		sc.SDCs = append(sc.SDCs, SDCBurst{At: dur("at"), For: dur("for"),
			Count: count("count"), Kind: kv["kind"]})
	default:
		return fmt.Errorf("unknown directive %q", directive)
	}
	return err
}

// parseDur reads a duration with an s/m/h/d/y suffix; a bare number is
// seconds.
func parseDur(s string) (units.Seconds, error) {
	mult := units.Seconds(1)
	switch {
	case strings.HasSuffix(s, "y"):
		mult, s = units.Year, s[:len(s)-1]
	case strings.HasSuffix(s, "d"):
		mult, s = units.Day, s[:len(s)-1]
	case strings.HasSuffix(s, "h"):
		mult, s = units.Hour, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = units.Minute, s[:len(s)-1]
	case strings.HasSuffix(s, "s"):
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("duration %q out of range", s)
	}
	return mult * units.Seconds(v), nil
}

// Validate rejects scenarios the compiler cannot schedule: missing name,
// node count, or horizon; windows outside the horizon or inverted;
// factors on the wrong side of 1; counts that are not positive.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("chaos: scenario needs a name")
	}
	if sc.Nodes < 1 {
		return fmt.Errorf("chaos: scenario %q needs a positive node count, got %d", sc.Name, sc.Nodes)
	}
	if !(sc.Horizon > 0) {
		return fmt.Errorf("chaos: scenario %q needs a positive horizon", sc.Name)
	}
	window := func(what string, from, to units.Seconds) error {
		if !(from >= 0 && to > from && to <= sc.Horizon) {
			return fmt.Errorf("chaos: scenario %q: %s window [%v, %v) outside [0, %v]",
				sc.Name, what, float64(from), float64(to), float64(sc.Horizon))
		}
		return nil
	}
	if b := sc.Background; b != nil {
		if !(b.NodeMTBF > 0) || !(b.Shape > 0) {
			return fmt.Errorf("chaos: scenario %q: background needs positive mtbf and shape", sc.Name)
		}
	}
	for _, c := range sc.Cascades {
		if c.Count < 1 || c.Spread < 1 || !(c.Spacing >= 0) || c.At < 0 || c.At >= sc.Horizon {
			return fmt.Errorf("chaos: scenario %q: bad cascade %+v", sc.Name, c)
		}
		if c.Spread > sc.Nodes {
			return fmt.Errorf("chaos: scenario %q: cascade spread %d exceeds %d nodes",
				sc.Name, c.Spread, sc.Nodes)
		}
	}
	for _, f := range sc.Flaps {
		if err := window("flap", f.From, f.To); err != nil {
			return err
		}
		if !(f.Period > 0) || !(f.Duty > 0 && f.Duty <= 1) || !(f.Factor > 0 && f.Factor < 1) {
			return fmt.Errorf("chaos: scenario %q: bad flap %+v", sc.Name, f)
		}
	}
	for _, b := range sc.Brownouts {
		if err := window("brownout", b.From, b.To); err != nil {
			return err
		}
		if !(b.Factor > 0 && b.Factor < 1) {
			return fmt.Errorf("chaos: scenario %q: brownout factor %v must be in (0,1)", sc.Name, b.Factor)
		}
	}
	for _, s := range sc.Storms {
		if err := window("storm", s.At, s.At+s.For); err != nil {
			return err
		}
		if s.Count < 1 || !(s.Factor > 1) {
			return fmt.Errorf("chaos: scenario %q: bad storm %+v", sc.Name, s)
		}
	}
	for _, o := range sc.Outages {
		if o.Facility == "" {
			return fmt.Errorf("chaos: scenario %q: outage without a facility", sc.Name)
		}
		if err := window("outage", o.From, o.To); err != nil {
			return err
		}
	}
	for _, r := range sc.Repairs {
		if r.Count < 1 || r.At < 0 || r.At > sc.Horizon {
			return fmt.Errorf("chaos: scenario %q: bad repair %+v", sc.Name, r)
		}
	}
	for _, s := range sc.SDCs {
		if err := window("sdc", s.At, s.At+s.For); err != nil {
			return err
		}
		if s.Count < 1 {
			return fmt.Errorf("chaos: scenario %q: bad sdc burst %+v", sc.Name, s)
		}
		switch s.Kind {
		case "flip", "torn", "stale":
		default:
			return fmt.Errorf("chaos: scenario %q: sdc kind %q not in flip/torn/stale", sc.Name, s.Kind)
		}
	}
	return nil
}

// Scaled returns a copy of the scenario with its correlated-event
// intensity multiplied by k >= 1: cascade and storm populations grow,
// brownouts and flaps bite deeper (factors move toward zero), storms
// slow further. The invariant checker uses it to assert monotone
// degradation — a strictly harsher scenario must never finish faster.
func (sc *Scenario) Scaled(k float64) *Scenario {
	if !(k >= 1) {
		panic(fmt.Sprintf("chaos: intensity scale must be >= 1, got %v", k))
	}
	out := *sc
	out.Name = fmt.Sprintf("%s-x%g", sc.Name, k)
	out.Cascades = append([]Cascade(nil), sc.Cascades...)
	for i := range out.Cascades {
		out.Cascades[i].Count = int(math.Ceil(float64(out.Cascades[i].Count) * k))
	}
	out.Storms = append([]Storm(nil), sc.Storms...)
	for i := range out.Storms {
		out.Storms[i].Count = int(math.Ceil(float64(out.Storms[i].Count) * k))
		out.Storms[i].Factor = 1 + (out.Storms[i].Factor-1)*k
	}
	out.Brownouts = append([]Brownout(nil), sc.Brownouts...)
	for i := range out.Brownouts {
		out.Brownouts[i].Factor /= k
	}
	out.Flaps = append([]Flap(nil), sc.Flaps...)
	for i := range out.Flaps {
		out.Flaps[i].Factor /= k
	}
	out.SDCs = append([]SDCBurst(nil), sc.SDCs...)
	for i := range out.SDCs {
		out.SDCs[i].Count = int(math.Ceil(float64(out.SDCs[i].Count) * k))
	}
	return &out
}

// builtins are the named scenarios shipped with the engine; RS3 sweeps
// them and `summit-chaos -list` prints them.
var builtins = map[string]string{
	"rack-cascade": `
name rack-cascade
nodes 512
horizon 24h
background mtbf 2y shape 1
cascade at 1h count 40 spacing 20m spread 64
repair at 16h count 40
`,
	"gpfs-brownout": `
name gpfs-brownout
nodes 512
horizon 24h
background mtbf 2y shape 1
brownout from 4h to 9h factor 0.3
brownout from 16h to 18h factor 0.6
`,
	"link-flap": `
name link-flap
nodes 512
horizon 24h
background mtbf 2y shape 1
flap from 3h to 7h period 10m duty 0.5 factor 0.25
flap from 12h to 13h period 2m duty 0.8 factor 0.5
`,
	"straggler-storm": `
name straggler-storm
nodes 512
horizon 24h
background mtbf 2y shape 1
storm at 6h for 90m count 48 factor 2.5
storm at 18h for 30m count 96 factor 1.8
`,
	"facility-outage": `
name facility-outage
nodes 512
horizon 24h
background mtbf 2y shape 1
outage facility summit from 8h to 14h
`,
	"sdc-storm": `
name sdc-storm
nodes 64
horizon 24h
background mtbf 2y shape 1
sdc at 2h for 4h count 3 kind flip
sdc at 9h for 2h count 1 kind torn
sdc at 14h for 3h count 1 kind stale
sdc at 19h for 2h count 2 kind flip
`,
	"perfect-storm": `
name perfect-storm
nodes 512
horizon 24h
background mtbf 1y shape 0.7
cascade at 1h count 24 spacing 15m spread 32
flap from 2h to 5h period 5m duty 0.6 factor 0.3
brownout from 4h to 8h factor 0.35
storm at 6h for 1h count 64 factor 2.2
outage facility summit from 10h to 13h
repair at 14h count 24
`,
}

// Builtin returns a shipped scenario by name.
func Builtin(name string) (*Scenario, error) {
	text, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown builtin scenario %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return Parse(text)
}

// Names lists the builtin scenarios, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
