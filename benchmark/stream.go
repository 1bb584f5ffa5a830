package main

import (
	"math/rand"
	"strconv"

	keydist "repro/internal/workload"
)

// opStream is one client's request sequence: which target it touches
// and whether it reads or writes. It is a pure function of the seed,
// the client index and the workload's mix, and knows nothing about
// the system under test.
type opStream struct {
	rng      *rand.Rand
	pick     func() int
	writePct int
	targets  int
	client   int
	clients  int
	seq      uint64
}

func newOpStream(seed int64, client int, wl *workload, targets int) *opStream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	var dist keydist.KeyDist = keydist.Uniform{}
	if wl.zipf {
		dist = keydist.Zipfian{S: 1.1}
	}
	return &opStream{
		rng:      rng,
		pick:     dist.Picker(rng, targets),
		writePct: wl.writePct,
		targets:  targets,
		client:   client,
		clients:  wl.clients,
	}
}

// next returns the next operation. A write lands on the drawn key's
// neighbour owned by this client (target ≡ client mod clients): two
// clients never write one key, so "the last value written" is defined
// without a clock, and a Zipfian draw keeps its rank to within the
// client count.
func (s *opStream) next() (target int, write bool) {
	s.seq++
	target = s.pick()
	write = s.writePct > 0 && s.rng.Intn(100) < s.writePct
	if write && s.targets >= s.clients {
		target = target - target%s.clients + s.client
		if target >= s.targets {
			target -= s.clients
		}
	}
	return target, write
}

// areaValue is the attribute value a client's seq-th operation writes;
// the read-back check regenerates it from the recorded sequence number.
func areaValue(client int, seq uint64) string {
	b := make([]byte, 0, 24)
	b = append(b, 'a')
	b = strconv.AppendInt(b, int64(client), 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, seq, 10)
	return string(b)
}
