package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/subscriber"
)

// verifyReadBack reads the last value each client wrote back from the
// stores: up to params.verifyKeys written keys, spread evenly, first on
// the partition master and then — once replication has caught up — on
// a slave. Each comparison counts as one attempted operation and each
// mismatch as a failed one.
func verifyReadBack(fx *fixture, clients []client) (attempted, failed uint64, err error) {
	type expect struct {
		target int
		value  string
	}
	var all []expect
	for ci, c := range clients {
		for target, seq := range c.written() {
			if seq != 0 {
				all = append(all, expect{target, areaValue(ci, seq)})
			}
		}
	}
	if len(all) == 0 {
		return 0, 0, nil
	}
	step := 1
	if len(all) > fx.p.verifyKeys {
		step = len(all) / fx.p.verifyKeys
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stage := fx.u.Stage(clientSite)
	check := func(replica int) error {
		for i := 0; i < len(all); i += step {
			sub := fx.target(all[i].target)
			pl, err := stage.Lookup(ctx, subscriber.Identity{Type: subscriber.UID, Value: sub.id})
			if err != nil {
				return fmt.Errorf("read-back: locating %s: %w", sub.id, err)
			}
			part, ok := fx.u.Partition(pl.Partition)
			if !ok || replica >= len(part.Replicas) {
				return fmt.Errorf("read-back: partition %s has no replica %d", pl.Partition, replica)
			}
			st := fx.u.Element(part.Replicas[replica].Element).Replica(part.ID).Store
			entry, _, found := st.GetCommitted(sub.id)
			attempted++
			if !found || entry.First(subscriber.AttrArea) != all[i].value {
				failed++
			}
		}
		return nil
	}
	if err := check(0); err != nil {
		return attempted, failed, err
	}
	if err := fx.u.WaitReplication(ctx); err != nil {
		return attempted, failed, fmt.Errorf("read-back: waiting for replication: %w", err)
	}
	return attempted, failed, check(1)
}
