package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over backend URLs. Each backend owns
// vnodes points on the ring; a session key is hashed onto the ring and
// walks clockwise to the first backend its health filter accepts. The
// ring only decides placement for NEW sessions — live sessions keep
// their affinity regardless of how the ring would place them today — so
// a backend joining or recovering shifts only 1/N of future placements.
type ring struct {
	points   []ringPoint // sorted by hash
	backends []string
}

type ringPoint struct {
	hash uint64
	url  string
}

// newRing builds a ring with vnodes points per backend (minimum 1).
func newRing(backends []string, vnodes int) *ring {
	if vnodes < 1 {
		vnodes = 64
	}
	r := &ring{backends: append([]string(nil), backends...)}
	for _, b := range backends {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(b + "#" + strconv.Itoa(i)), url: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// ringHash is FNV-1a finished with the splitmix64 mix. Raw FNV-1a only
// multiplies a key's last bytes in once, so the gateway's sequential
// session ids ("g0000002a") hashed to within ~2^44 of each other on a
// ring whose arcs average 2^57, and a whole run's sessions were placed
// on one backend; the finaliser avalanches those low bits over the ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// pick returns the backend owning key: the first point clockwise from
// the key's hash whose backend passes the healthy filter (nil = accept
// all). Unhealthy owners are skipped — health-aware rebalancing for new
// sessions — and if every backend is unhealthy the true owner is
// returned anyway so recovery probes have somewhere to go.
func (r *ring) pick(key string, healthy func(url string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	owner := r.points[start].url
	if healthy == nil {
		return owner
	}
	seen := make(map[string]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(seen) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.url] {
			continue
		}
		seen[p.url] = true
		if healthy(p.url) {
			return p.url
		}
	}
	return owner
}

// successor returns the next distinct backend clockwise from url on the
// ring that passes the healthy filter — the deterministic promotion
// target when url's primary dies. Returns "" when no other backend is
// healthy.
func (r *ring) successor(url string, healthy func(url string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(url + "#0")
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash > h })
	seen := make(map[string]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(seen) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if p.url == url || seen[p.url] {
			continue
		}
		seen[p.url] = true
		if healthy == nil || healthy(p.url) {
			return p.url
		}
	}
	return ""
}
