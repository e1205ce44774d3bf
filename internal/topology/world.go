package topology

import (
	"fmt"
	"math/rand"
	"net/netip"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/geoloc"
	"countryrank/internal/netx"
	"countryrank/internal/vp"
)

// Scenario selects the snapshot date the generator models. The 2023 scenario
// applies the geopolitical rewirings of §6 (Russia sanctions, Taiwan/China
// de-peering) on top of the 2021 base world.
type Scenario string

// Scenarios corresponding to the paper's two measurement dates.
const (
	Apr2021 Scenario = "20210401"
	Mar2023 Scenario = "20230301"
)

// Config parameterizes world generation. The zero value is completed by
// Build: seed 1, scenario Apr2021, scales 1.0.
type Config struct {
	Seed     int64
	Scenario Scenario
	// StubScale multiplies per-country stub AS counts (tests use < 1).
	StubScale float64
	// VPScale multiplies per-country VP counts.
	VPScale float64
	// IPv6 additionally originates IPv6 prefixes (dual stack). Off by
	// default so the paper-calibrated IPv4 experiments stay untouched.
	IPv6 bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scenario == "" {
		c.Scenario = Apr2021
	}
	if c.StubScale == 0 {
		c.StubScale = 1
	}
	if c.VPScale == 0 {
		c.VPScale = 1
	}
	return c
}

// World is a complete synthetic measurement environment: the AS graph with
// ground truth, the vantage points, and the address geolocation database.
type World struct {
	Config Config
	Graph  *Graph
	VPs    *vp.Set
	Geo    *geoloc.DB
	// Clique is the ground-truth transit-free clique.
	Clique []asn.ASN
}

// pool carves prefixes out of a country's address allocation using first-fit
// across its /8s to limit alignment waste.
type pool struct {
	bases []uint32 // /8 network addresses
	offs  []uint32 // next free offset within each /8
}

func (p *pool) carve(bits int) (netip.Prefix, bool) {
	size := uint32(1) << (32 - bits)
	for i := range p.bases {
		// Align offset up to the prefix size.
		off := (p.offs[i] + size - 1) &^ (size - 1)
		if off+size <= 1<<24 && off+size > off {
			p.offs[i] = off + size
			base := p.bases[i] + off
			return netip.PrefixFrom(netip.AddrFrom4([4]byte{
				byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base),
			}), bits), true
		}
	}
	return netip.Prefix{}, false
}

// pool6 carves IPv6 prefixes from a country's /32, first-fit in units of
// the requested size within the 2001:xxxx::/32 synthetic allocation.
type pool6 struct {
	base [4]byte // first 4 address bytes (the /32)
	off  uint32  // next free offset in /64 units... tracked in /48 granules
}

// carve6 allocates an aligned prefix of the given length (33..48 supported).
func (p *pool6) carve(bits int) (netip.Prefix, bool) {
	if bits < 33 {
		bits = 33
	}
	if bits > 48 {
		bits = 48
	}
	size := uint32(1) << (48 - bits) // in /48 units
	off := (p.off + size - 1) &^ (size - 1)
	if off+size > 1<<16 || off+size < off {
		return netip.Prefix{}, false
	}
	p.off = off + size
	var a [16]byte
	copy(a[:4], p.base[:])
	a[4] = byte(off >> 8)
	a[5] = byte(off)
	return netip.PrefixFrom(netip.AddrFrom16(a), bits).Masked(), true
}

type builder struct {
	cfg      Config
	rng      *rand.Rand
	g        *Graph
	geo      *geoloc.DB
	pools    map[countries.Code]*pool
	pools6   map[countries.Code]*pool6
	next6    uint16 // next v6 /32 index
	nextStub asn.ASN
	nextOct  byte // next /8 first octet to hand out

	collectors []vp.Collector
	vps        []vp.VP

	// stubsByCountry records generated stub ASNs for VP placement.
	stubsByCountry map[countries.Code][]asn.ASN
}

// Build generates the world for cfg. Identical configs produce identical
// worlds.
func Build(cfg Config) *World {
	cfg = cfg.withDefaults()
	b := &builder{
		cfg:            cfg,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		g:              NewGraph(),
		geo:            &geoloc.DB{},
		pools:          map[countries.Code]*pool{},
		pools6:         map[countries.Code]*pool6{},
		next6:          1,
		nextStub:       100000,
		nextOct:        1,
		stubsByCountry: map[countries.Code][]asn.ASN{},
	}

	profiles := worldProfiles()

	// Pass 1: address pools and geolocation base entries.
	for _, p := range profiles {
		b.allocPool(p.Code, p.Slash8s)
	}

	// Pass 2: create all anchor ASes (edges need both endpoints to exist).
	for _, rs := range routeServers() {
		b.g.MustAddAS(rs)
	}
	for _, p := range profiles {
		for _, a := range p.Anchors {
			reg := a.Reg
			if reg == "" {
				reg = p.Code
			}
			b.g.MustAddAS(AS{
				ASN: a.ASN, Name: a.Name, Registered: reg, Class: a.Class,
				Prepend: a.Prepend, Users: usersFor(a.Class, a.AddrShare),
			})
		}
	}

	// Pass 3: clique full mesh, then anchor provider/peer edges.
	cl := clique()
	for i := 0; i < len(cl); i++ {
		for j := i + 1; j < len(cl); j++ {
			b.addPeerOnce(cl[i], cl[j], 0)
		}
	}
	for _, p := range profiles {
		rs := routeServerFor(p.Code)
		for _, a := range p.Anchors {
			for _, prov := range a.Providers {
				b.addP2COnce(prov, a.ASN)
			}
			for _, peer := range a.Peers {
				// Domestic peerings in route-server countries run through
				// the IXP route server, leaking its ASN into paths.
				edgeRS := asn.ASN(0)
				if rs != 0 {
					if pa, ok := b.g.ByASN(peer); ok && pa.Registered == p.Code {
						edgeRS = rs
					}
				}
				b.addPeerOnce(a.ASN, peer, edgeRS)
			}
		}
	}

	// Hurricane Electric peers with every transit-class anchor it does not
	// already have a relationship with (its famously open peering policy).
	he := asn.ASN(6939)
	for _, p := range profiles {
		for _, a := range p.Anchors {
			if a.Class == ClassTransit && a.ASN != he {
				b.addPeerOnce(he, a.ASN, 0)
			}
		}
	}

	// Pass 4: stub ASes, per country.
	for _, p := range profiles {
		b.buildStubs(p)
	}

	// Pass 5: prefix origination and geolocation overrides. Anchors carve
	// first (their large allocations need alignment), then foreign
	// originations, then stubs fill the tail.
	for _, p := range profiles {
		b.originateAnchors(p)
	}
	for _, p := range profiles {
		b.originateExtras(p)
	}
	for _, p := range profiles {
		b.originateStubs(p)
	}
	if cfg.IPv6 {
		for _, p := range profiles {
			b.originateV6(p)
		}
	}

	// Pass 6: vantage points and collectors.
	b.placeVPs(profiles)

	// Pass 7: scenario mutations.
	if cfg.Scenario == Mar2023 {
		applyMar2023(b.g)
	}

	set, err := vp.NewSet(b.collectors, b.vps)
	if err != nil {
		panic(fmt.Sprintf("topology: vp set: %v", err))
	}
	return &World{Config: cfg, Graph: b.g, VPs: set, Geo: b.geo, Clique: cl}
}

func (b *builder) allocPool(c countries.Code, slash8s int) {
	if slash8s <= 0 {
		slash8s = 1
	}
	p := &pool{}
	for i := 0; i < slash8s; i++ {
		oct := b.nextOct
		b.nextOct++
		if b.nextOct == 10 { // skip RFC1918 10/8 for realism
			b.nextOct++
		}
		if b.nextOct >= 224 {
			panic("topology: out of /8 pools")
		}
		base := uint32(oct) << 24
		p.bases = append(p.bases, base)
		p.offs = append(p.offs, 0)
		b.geo.Add(netip.PrefixFrom(netip.AddrFrom4([4]byte{oct, 0, 0, 0}), 8), c)
	}
	b.pools[c] = p
	if b.cfg.IPv6 {
		idx := b.next6
		b.next6++
		p6 := &pool6{base: [4]byte{0x20, 0x01, byte(idx >> 8), byte(idx)}}
		b.pools6[c] = p6
		var a [16]byte
		copy(a[:4], p6.base[:])
		b.geo.Add(netip.PrefixFrom(netip.AddrFrom16(a), 32), c)
	}
}

func (b *builder) addP2COnce(provider, customer asn.ASN) {
	if b.g.Rel(provider, customer) != RelNone {
		return
	}
	if err := b.g.AddP2C(provider, customer); err != nil {
		panic(err)
	}
}

func (b *builder) addPeerOnce(a, c asn.ASN, rs asn.ASN) {
	if a == c || b.g.Rel(a, c) != RelNone {
		return
	}
	if err := b.g.AddP2P(a, c, rs); err != nil {
		panic(err)
	}
}

// buildStubs creates the country's stub edge networks and homes them on the
// profile's weighted providers.
func (b *builder) buildStubs(p profile) {
	n := int(float64(p.Stubs)*b.cfg.StubScale + 0.5)
	if n < 2 {
		n = 2
	}
	var totalW float64
	for _, w := range p.StubProviders {
		totalW += w.Weight
	}
	pick := func() asn.ASN {
		r := b.rng.Float64() * totalW
		for _, w := range p.StubProviders {
			r -= w.Weight
			if r <= 0 {
				return w.ASN
			}
		}
		return p.StubProviders[len(p.StubProviders)-1].ASN
	}
	rsASN := routeServerFor(p.Code)
	var created []asn.ASN
	for i := 0; i < n; i++ {
		a := b.nextStub
		b.nextStub++
		b.g.MustAddAS(AS{
			ASN:        a,
			Name:       fmt.Sprintf("%s-Edge-%d", p.Code, i+1),
			Registered: p.Code,
			Class:      ClassStub,
			Prepend:    pickPrepend(b.rng),
			Users:      1000 + b.rng.Intn(50000),
		})
		p1 := pick()
		b.addP2COnce(p1, a)
		mh := p.MultihomeProb
		if mh == 0 {
			mh = 0.30
		}
		// Hurricane's bargain-transit customers are famously single-homed;
		// everyone else multihomes with the profile's probability.
		if p1 != 6939 && b.rng.Float64() < mh {
			p2 := pick()
			if p2 != p1 && p2 != 6939 {
				b.addP2COnce(p2, a)
			}
		}
		// Occasional stub-to-stub peering at the local IXP, sometimes through
		// the route server (exercises RS removal in the sanitizer).
		if len(created) > 0 && b.rng.Float64() < 0.08 {
			other := created[b.rng.Intn(len(created))]
			rs := asn.ASN(0)
			if rsASN != 0 && b.rng.Float64() < 0.5 {
				rs = rsASN
			}
			b.addPeerOnce(a, other, rs)
		}
		created = append(created, a)
	}
	b.stubsByCountry[p.Code] = created
}

// usersFor sizes an anchor's user base from its role: eyeball networks
// carry populations proportional to their address share, transit and
// content networks carry few direct users.
func usersFor(c Class, addrShare float64) int {
	switch c {
	case ClassAccess:
		return int(addrShare * 20e6)
	case ClassTier1:
		return 1_000_000
	case ClassTransit:
		return 100_000
	case ClassContent:
		return 10_000
	}
	return 5_000
}

func pickPrepend(rng *rand.Rand) int {
	r := rng.Float64()
	switch {
	case r < 0.85:
		return 0
	case r < 0.95:
		return 1
	default:
		return 2
	}
}

// originateAnchors carves the profile's anchor allocations.
func (b *builder) originateAnchors(p profile) {
	pl := b.pools[p.Code]
	poolSize := float64(len(pl.bases)) * float64(1<<24)
	for _, a := range p.Anchors {
		if a.AddrShare > 0 {
			// 0.85 fill factor absorbs alignment waste in the carver.
			b.carveShare(pl, a.ASN, a.AddrShare*poolSize*0.85)
		}
		if a.CoveredPair {
			// Originate a /15 plus both /16 halves: the /15 is entirely
			// covered by more specifics and must be filtered (§3.2.1).
			parent, ok := pl.carve(15)
			if !ok {
				continue
			}
			b.g.Originate(a.ASN, parent)
			lo, hi := netx.Halves(parent)
			b.g.Originate(a.ASN, lo)
			b.g.Originate(a.ASN, hi)
		}
	}
}

// originateV6 gives dual-stack allocations: anchors sized by share, and
// a majority of stubs a /48 each.
func (b *builder) originateV6(p profile) {
	pl6 := b.pools6[p.Code]
	if pl6 == nil {
		return
	}
	for _, a := range p.Anchors {
		if a.AddrShare <= 0 {
			continue
		}
		bits := 48
		switch {
		case a.AddrShare >= 0.15:
			bits = 44
		case a.AddrShare >= 0.05:
			bits = 46
		}
		if pfx, ok := pl6.carve(bits); ok {
			b.g.Originate(a.ASN, pfx)
		}
	}
	for _, s := range b.stubsByCountry[p.Code] {
		if b.rng.Float64() < 0.6 {
			if pfx, ok := pl6.carve(48); ok {
				b.g.Originate(s, pfx)
			}
		}
	}
}

// originateExtras carves anchors' foreign originations: the prefix
// geolocates in the foreign pool's country while the AS stays registered at
// home (the paper's Amazon-in-Australia case).
func (b *builder) originateExtras(p profile) {
	for _, a := range p.Anchors {
		for _, eo := range a.ExtraOrigins {
			fp := b.pools[eo.Country]
			if fp == nil {
				panic(fmt.Sprintf("topology: no pool for %s", eo.Country))
			}
			fpSize := float64(len(fp.bases)) * float64(1<<24)
			b.carveShare(fp, a.ASN, eo.Share*fpSize)
		}
	}
}

// originateStubs gives each stub one prefix from the pool's remaining share.
func (b *builder) originateStubs(p profile) {
	pl := b.pools[p.Code]
	poolSize := float64(len(pl.bases)) * float64(1<<24)
	var anchorShare float64
	for _, a := range p.Anchors {
		anchorShare += a.AddrShare
	}
	stubs := b.stubsByCountry[p.Code]
	if len(stubs) == 0 {
		return
	}
	remaining := (1 - anchorShare) * poolSize * 0.70 // leave headroom
	if remaining < 0 {
		remaining = float64(len(stubs)) * 256
	}
	per := remaining / float64(len(stubs))
	for _, s := range stubs {
		bits := bitsForTarget(per)
		if bits < 12 {
			bits = 12
		}
		if bits > 24 {
			bits = 24
		}
		pfx, ok := pl.carve(bits)
		if !ok {
			if pfx, ok = pl.carve(24); !ok {
				continue // pool full; stub stays prefix-less
			}
		}
		b.g.Originate(s, pfx)
		// Some stubs also announce both halves of their block (traffic
		// engineering de-aggregation), leaving the parent entirely covered
		// by more specifics: the dominant filter class of Figure 9.
		if pfx.Bits() <= 23 && b.rng.Float64() < 0.16 {
			lo, hi := netx.Halves(pfx)
			b.g.Originate(s, lo)
			b.g.Originate(s, hi)
		}
		// Geolocation stress: some stub prefixes straddle a border.
		if p.SplitFrac > 0 && b.rng.Float64() < p.SplitFrac && pfx.Bits() <= 23 {
			b.splitPrefixGeo(pfx, p)
		}
	}
}

// splitPrefixGeo overrides part of pfx's geolocation to the profile's
// neighbor. Most splits keep a home majority (pass the 50% threshold); a
// profile-controlled fraction fail it by splitting 50/25/25.
func (b *builder) splitPrefixGeo(pfx netip.Prefix, p profile) {
	neighbor := p.Neighbor
	if neighbor == "" {
		return
	}
	lo, hi := netx.Halves(pfx)
	if b.rng.Float64() < p.SplitFailFrac {
		// 50% home, 25% neighbor, 25% second neighbor: no country reaches
		// the 50% majority threshold, so the prefix is filtered.
		h1, h2 := netx.Halves(hi)
		b.geo.Add(h1, neighbor)
		second := p.Neighbor2
		if second == "" || second == neighbor {
			second = "FR"
			if neighbor == "FR" {
				second = "DE"
			}
		}
		b.geo.Add(h2, second)
		_ = lo // home keeps exactly half: not *above* the 50% threshold
	} else {
		// Passing splits vary the foreign share (1/8, 1/4 or 3/8 of the
		// prefix) so the Figure 8 threshold sweep declines gradually.
		h1, h2 := netx.Halves(hi)
		switch b.rng.Intn(3) {
		case 0: // 1/8 foreign
			if q, _ := netx.Halves(h1); q.Bits() <= 32 {
				b.geo.Add(q, neighbor)
			}
		case 1: // 1/4 foreign
			b.geo.Add(h1, neighbor)
		default: // 3/8 foreign
			b.geo.Add(h1, neighbor)
			if q, _ := netx.Halves(h2); q.Bits() <= 32 {
				b.geo.Add(q, neighbor)
			}
		}
	}
}

// carveShare originates prefixes for a totaling ~target addresses, split
// across up to 5 power-of-two prefixes.
func (b *builder) carveShare(pl *pool, a asn.ASN, target float64) {
	remaining := target
	for i := 0; i < 5 && remaining >= 256; i++ {
		bits := bitsForTarget(remaining)
		if bits < 9 {
			bits = 9 // nothing bigger than a /9 from a single carve
		}
		if bits > 24 {
			bits = 24
		}
		pfx, ok := pl.carve(bits)
		if !ok {
			// Pool exhausted by alignment waste: accept the shortfall.
			return
		}
		b.g.Originate(a, pfx)
		remaining -= float64(uint64(1) << (32 - bits))
	}
}

// bitsForTarget returns the prefix length whose size is the largest power of
// two not exceeding target (at least one address).
func bitsForTarget(target float64) int {
	bits := 32
	size := 1.0
	for bits > 0 && size*2 <= target {
		size *= 2
		bits--
	}
	return bits
}

// placeVPs creates collectors and vantage points per profile counts.
// Every country with VPs gets a local single-hop collector; a global share
// of VPs is rehomed onto multi-hop collectors, losing their geolocation.
func (b *builder) placeVPs(profiles []profile) {
	b.collectors = append(b.collectors,
		vp.Collector{Name: "mh-ams", ID: netip.AddrFrom4([4]byte{198, 51, 100, 1}), Country: "NL", MultiHop: true},
		vp.Collector{Name: "mh-iad", ID: netip.AddrFrom4([4]byte{198, 51, 100, 2}), Country: "US", MultiHop: true},
	)
	collID := byte(10)
	vpIdx := 0
	for _, p := range profiles {
		n := int(float64(p.VPs)*b.cfg.VPScale + 0.5)
		if p.VPs > 0 && n < 1 {
			n = 1
		}
		if n == 0 {
			continue
		}
		cname := "rc-" + string(p.Code)
		b.collectors = append(b.collectors, vp.Collector{
			Name:    cname,
			ID:      netip.AddrFrom4([4]byte{198, 51, collID, 0}),
			Country: p.Code,
		})
		collID++

		hosts := b.vpHostASes(p, n)
		for _, h := range hosts {
			coll := cname
			if b.rng.Float64() < 0.12 { // remote peer at a multi-hop collector
				coll = []string{"mh-ams", "mh-iad"}[b.rng.Intn(2)]
			}
			feed := vp.FullFeed
			if coll == cname && b.rng.Float64() < 0.25 {
				feed = vp.CustomerFeed
			}
			b.vps = append(b.vps, vp.VP{
				Index:     vpIdx,
				Addr:      netip.AddrFrom4([4]byte{100, byte(vpIdx >> 16), byte(vpIdx >> 8), byte(vpIdx)}),
				AS:        h,
				Collector: coll,
				Feed:      feed,
			})
			vpIdx++
		}
	}
}

// vpHostASes picks n host ASes in the country: anchors first (one VP each),
// then stubs, mostly one VP per AS (Figure 10's dispersion), with a small
// doubled-up tail.
func (b *builder) vpHostASes(p profile, n int) []asn.ASN {
	var hosts []asn.ASN
	for _, a := range p.Anchors {
		reg := a.Reg
		if reg == "" {
			reg = p.Code
		}
		if reg == p.Code && a.Class != ClassRouteServer {
			hosts = append(hosts, a.ASN)
		}
	}
	stubs := append([]asn.ASN(nil), b.stubsByCountry[p.Code]...)
	b.rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	hosts = append(hosts, stubs...)
	if len(hosts) == 0 {
		return nil
	}
	out := make([]asn.ASN, 0, n)
	used := 0
	for i := 0; i < n; i++ {
		// A minority of VPs share an AS with an earlier VP (Figure 10
		// reports ~81% of VPs alone in their AS).
		if used > 0 && (used >= len(hosts) || b.rng.Float64() < 0.10) {
			out = append(out, out[b.rng.Intn(len(out))])
			continue
		}
		out = append(out, hosts[used])
		used++
	}
	return out
}
