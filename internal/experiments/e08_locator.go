package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/locator"
	"repro/internal/subscriber"
)

func init() {
	register("E8", "Location stage: state-full maps vs consistent hashing — placement, not lookup cost",
		"§3.3.1, §3.5", runE8)
}

// runE8 reproduces the §3.5 discussion of the data location stage. The
// paper keeps state-full identity-location maps although consistent
// hashing "grows as O(1)", because the UDR must support multiple
// indexes and selective placement: a hash dictates placement and
// indexes every identity independently. The maps here are compact
// hash tables, so lookup cost no longer separates the two designs;
// E8 shows the per-identity cost stays bounded as the base grows and
// that placement is what hashing gives up.
func runE8(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E8", "Location stage: state-full maps vs consistent hashing — placement, not lookup cost")

	populations := []int{1_000, 10_000, 100_000}
	if opts.Quick {
		populations = []int{1_000, 10_000}
	}
	const lookups = 20_000
	partitions := []string{"p-0", "p-1", "p-2", "p-3"}

	rep.AddRow("subscribers", "map lookup", "map B/identity", "map probes/hit", "hash lookup")
	var mapTimes []time.Duration
	var maxBytes, maxProbes float64
	for _, n := range populations {
		stage := locator.NewStage("x", locator.Provisioned, true)
		hash := locator.NewHashLocator(partitions)
		ids := make([]subscriber.Identity, n)
		for i := 0; i < n; i++ {
			id := subscriber.Identity{Type: subscriber.IMSI, Value: fmt.Sprintf("21401%09d", i)}
			ids[i] = id
			pl := locator.Placement{SubscriberID: fmt.Sprintf("sub-%d", i), Partition: partitions[i%4]}
			stage.PutProfile([]subscriber.Identity{id}, pl)
			hash.PutProfile([]subscriber.Identity{id}, pl)
		}

		measure := func(l locator.Locator) time.Duration {
			// Warm-up pass so cold caches don't skew the first row,
			// then min of three trials to shed scheduler noise from
			// concurrently running suites.
			for i := 0; i < 2000; i++ {
				l.Lookup(ctx, ids[i%n])
			}
			best := time.Duration(1<<62 - 1)
			for trial := 0; trial < 3; trial++ {
				start := time.Now()
				for i := 0; i < lookups; i++ {
					if _, err := l.Lookup(ctx, ids[i%n]); err != nil {
						return 0
					}
				}
				if d := time.Since(start) / lookups; d < best {
					best = d
				}
			}
			return best
		}
		mt := measure(stage)
		ht := measure(hash)
		mapTimes = append(mapTimes, mt)
		st := stage.MapStats()
		perID := float64(st.Bytes) / float64(st.Entries)
		maxBytes, maxProbes = max(maxBytes, perID), max(maxProbes, st.MeanProbes)
		rep.AddRow(fmt.Sprint(n), mt.String(), fmt.Sprintf("%.1f", perID),
			fmt.Sprintf("%.2f", st.MeanProbes), ht.String())
	}

	// The bounds follow from the layout, not from a measurement: a
	// 16-byte slot at a load factor of at least 3/8 (≤ 43 B) plus a
	// 20-byte subscriber handle, and linear probing at a load factor of
	// at most 3/4 (≤ 2.5 probes per hit expected). The fixed hash makes
	// both figures exact for a given population, so the check is
	// deterministic; the wall-clock rows only illustrate.
	rep.Check("map state per identity stays bounded as N grows (≤ 80 B and ≤ 2.5 probes per hit)",
		maxBytes <= 80 && maxProbes <= 2.5)
	// "Negligible" is relative to the 10ms query budget (§2.3 req 4);
	// 10µs leaves three orders of magnitude of headroom.
	last := len(populations) - 1
	rep.Check("map lookup negligible vs the 10ms budget (the paper's 'can be neglected')",
		mapTimes[last] < 10*time.Microsecond)

	// Functional contrast (the reason the paper keeps the maps).
	stage := locator.NewStage("x", locator.Provisioned, true)
	hash := locator.NewHashLocator(partitions)
	rep.AddRow("selective placement", fmt.Sprintf("maps=%v", stage.SupportsSelectivePlacement()),
		fmt.Sprintf("hash=%v", hash.SupportsSelectivePlacement()))
	rep.Check("maps support selective placement, hashing does not",
		stage.SupportsSelectivePlacement() && !hash.SupportsSelectivePlacement())

	// Identity co-placement: hashing scatters one subscription's
	// identities across partitions.
	split := 0
	const sample = 200
	for i := 0; i < sample; i++ {
		imsi := subscriber.Identity{Type: subscriber.IMSI, Value: fmt.Sprintf("21401%09d", i)}
		msisdn := subscriber.Identity{Type: subscriber.MSISDN, Value: fmt.Sprintf("346%08d", i)}
		if hash.PlacementFor(imsi) != hash.PlacementFor(msisdn) {
			split++
		}
	}
	rep.AddRow("hash identity split", fmt.Sprintf("%d/%d subscriptions' identities land on different partitions", split, sample))
	rep.Check("hashing scatters a subscription's identities", split > sample/2)
	rep.Note("paper: the location stage 'has not been realized by means of hashing, which grows as O(1) ... since the UDR must support multiple indexes ... and selective placement'")
	rep.Note("the paper's maps grow as O(log N); these are open-addressing tables with O(1) expected lookups, so only the placement argument separates them from hashing")
	return rep, nil
}
