package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/rebalance"
	"repro/internal/se"
	"repro/internal/store"
)

// MigrateOption tunes one migration (tests inject phase hooks).
type MigrateOption func(*rebalance.Migrator)

// WithMigrateHooks installs phase-boundary hooks on the move.
func WithMigrateHooks(h rebalance.Hooks) MigrateOption {
	return func(m *rebalance.Migrator) { m.Hooks = h }
}

// newMigrator builds a migrator with the UDR's tuning.
func (u *UDR) newMigrator() *rebalance.Migrator {
	return &rebalance.Migrator{
		Net:            u.net,
		CatchUpTimeout: u.cfg.MigrateCatchUpTimeout,
		FreezeTimeout:  u.cfg.MigrateFreezeTimeout,
	}
}

// MigratePartition moves a partition's master replica onto the target
// storage element — same site or cross-site — while client traffic
// keeps flowing: bulk copy, stream catch-up, bounded write-freeze
// cutover with a placement-epoch bump, then source demotion (or
// retirement when release is true). The source stays authoritative
// until the cutover commits; any earlier failure rolls the target
// back and returns an error wrapping rebalance.ErrAborted. The report
// is non-nil whenever the move got past validation.
func (u *UDR) MigratePartition(ctx context.Context, partID, targetID string, release bool, opts ...MigrateOption) (*rebalance.Report, error) {
	u.mu.Lock()
	part, ok := u.parts[partID]
	if !ok {
		u.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownPartition, partID)
	}
	tgtEl := u.elements[targetID]
	if tgtEl == nil {
		u.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownElement, targetID)
	}
	srcEl := u.elements[part.Master().Element]
	if srcEl == nil {
		u.mu.Unlock()
		return nil, fmt.Errorf("core: master element of %q unavailable", partID)
	}
	if srcEl.ID() == targetID {
		u.mu.Unlock()
		return nil, fmt.Errorf("%w: partition %q is already mastered on %s",
			rebalance.ErrConflict, partID, targetID)
	}
	for _, ref := range part.Replicas {
		if ref.Element == targetID {
			u.mu.Unlock()
			return nil, fmt.Errorf("%w: %s on %s", rebalance.ErrConflict, partID, targetID)
		}
	}
	if _, inflight := u.migrating[partID]; inflight {
		u.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrMigrationInFlight, partID)
	}
	u.migrating[partID] = rebalance.PhaseCopy
	u.mu.Unlock()
	defer func() {
		u.mu.Lock()
		delete(u.migrating, partID)
		u.mu.Unlock()
	}()

	mig := u.newMigrator()
	for _, opt := range opts {
		opt(mig)
	}
	// Chain phase tracking in front of any caller-installed hooks so
	// the /status and metrics views see how far an in-flight move got.
	user := mig.Hooks
	mig.Hooks = rebalance.Hooks{
		AfterCopy: func() {
			u.setMigrationPhase(partID, rebalance.PhaseCatchUp)
			if user.AfterCopy != nil {
				user.AfterCopy()
			}
		},
		BeforeCutover: func() {
			u.setMigrationPhase(partID, rebalance.PhaseCutover)
			if user.BeforeCutover != nil {
				user.BeforeCutover()
			}
		},
	}
	mv := rebalance.Move{
		Partition:  partID,
		Source:     srcEl,
		Target:     tgtEl,
		Durability: u.cfg.Durability,
		Release:    release,
		Commit: func(frozenCSN uint64) error {
			return u.commitMigration(partID, srcEl, tgtEl, release)
		},
	}
	return mig.Run(ctx, mv)
}

// setMigrationPhase records how far an in-flight move progressed.
func (u *UDR) setMigrationPhase(partID string, ph rebalance.Phase) {
	u.mu.Lock()
	if _, ok := u.migrating[partID]; ok {
		u.migrating[partID] = ph
	}
	u.mu.Unlock()
}

// MigrationsInFlight snapshots the partitions with a move in flight
// and the phase each last reported — the OaM migration-progress view.
func (u *UDR) MigrationsInFlight() map[string]rebalance.Phase {
	u.mu.RLock()
	defer u.mu.RUnlock()
	out := make(map[string]rebalance.Phase, len(u.migrating))
	for p, ph := range u.migrating {
		out[p] = ph
	}
	return out
}

// commitMigration flips the partition table at the cutover point: the
// target becomes the master entry, the source demotes to a slave
// entry (or leaves the table when released), the home site follows
// the master, and the placement epoch advances on every hosting
// element — all atomically under the topology lock, so a PoA reads
// either the old placement (and gets referred by the demoted source)
// or the new one.
func (u *UDR) commitMigration(partID string, srcEl, tgtEl *se.Element, release bool) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	part, ok := u.parts[partID]
	if !ok {
		return fmt.Errorf("%w: partition %q vanished mid-migration", rebalance.ErrSourceLost, partID)
	}
	srcID := part.Master().Element
	if srcID != srcEl.ID() {
		return fmt.Errorf("%w: partition %q master is %s, not %s",
			rebalance.ErrSourceLost, partID, srcID, srcEl.ID())
	}
	replicas := make([]ReplicaRef, 0, len(part.Replicas)+1)
	replicas = append(replicas, ReplicaRef{
		Element: tgtEl.ID(), Site: tgtEl.Site(), Addr: tgtEl.Addr(),
	})
	replicas = append(replicas, part.Replicas[1:]...)
	if !release {
		replicas = append(replicas, ReplicaRef{
			Element: srcEl.ID(), Site: srcEl.Site(), Addr: srcEl.Addr(),
		})
	}
	part.Replicas = replicas
	part.HomeSite = tgtEl.Site()
	part.Epoch++
	u.pushEpochLocked(part)
	if release {
		srcEl.SetPartitionEpoch(partID, 0) // no longer hosts the partition
	}
	return nil
}

// ElementLoads snapshots every element's load for the rebalancing
// planner: master partition row counts plus recent commit shipping
// rates from the replication sender metrics.
func (u *UDR) ElementLoads() []rebalance.ElementLoad {
	u.mu.RLock()
	els := make([]*se.Element, 0, len(u.elements))
	for _, el := range u.elements {
		els = append(els, el)
	}
	u.mu.RUnlock()
	sort.Slice(els, func(i, j int) bool { return els[i].ID() < els[j].ID() })

	out := make([]rebalance.ElementLoad, 0, len(els))
	for _, el := range els {
		if el.Down() {
			continue
		}
		load := rebalance.ElementLoad{
			Element: el.ID(),
			Site:    el.Site(),
			Hosted:  make(map[string]bool),
		}
		for _, partID := range el.Partitions() {
			pr := el.Replica(partID)
			if pr == nil {
				continue
			}
			load.Hosted[partID] = true
			if pr.Store.Role() != store.Master {
				continue
			}
			var rate int64
			for _, s := range pr.Repl.SenderStats() {
				rate += s.Records
			}
			load.Masters = append(load.Masters, rebalance.PartitionLoad{
				Partition:  partID,
				Rows:       pr.Store.Len(),
				CommitRate: rate,
			})
		}
		out = append(out, load)
	}
	return out
}

// RebalanceResult is one rebalancing pass: the computed plan and the
// per-move outcomes (parallel to Plan; a nil report marks a move that
// failed validation).
type RebalanceResult struct {
	Plan    []rebalance.MoveSpec
	Reports []*rebalance.Report
	// Failed counts moves that aborted or failed validation.
	Failed int
}

// String renders the pass for operator output.
func (r *RebalanceResult) String() string {
	var b strings.Builder
	b.WriteString(rebalance.PlanString(r.Plan))
	for i, rep := range r.Reports {
		if rep == nil {
			fmt.Fprintf(&b, "move %s: rejected\n", r.Plan[i].Partition)
			continue
		}
		b.WriteString(rep.String())
		b.WriteByte('\n')
	}
	if len(r.Plan) > 0 {
		fmt.Fprintf(&b, "rebalance total: %d moves planned, %d failed\n", len(r.Plan), r.Failed)
	}
	return b.String()
}

// rebalanceConcurrency caps concurrently executing moves in a
// rebalancing pass: each move streams a partition over the backbone.
const rebalanceConcurrency = 2

// Rebalance computes a move plan from the current per-element load
// and executes it, at most rebalanceConcurrency moves at a time.
// Sources demote to slaves (moves never shrink the replica set).
// Partial failure is reported, not fatal: an aborted move leaves its
// partition where it was, and the next pass replans from the actual
// state.
func (u *UDR) Rebalance(ctx context.Context) (*RebalanceResult, error) {
	plan := rebalance.Plan(u.ElementLoads(), rebalance.PlanOpts{})
	res := &RebalanceResult{Plan: plan, Reports: make([]*rebalance.Report, len(plan))}
	if len(plan) == 0 {
		return res, nil
	}

	sem := make(chan struct{}, rebalanceConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, mvSpec := range plan {
		wg.Add(1)
		go func(i int, spec rebalance.MoveSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rep, err := u.MigratePartition(ctx, spec.Partition, spec.To, false)
			mu.Lock()
			defer mu.Unlock()
			res.Reports[i] = rep
			if err != nil {
				res.Failed++
				if firstErr == nil && !errors.Is(err, rebalance.ErrAborted) {
					firstErr = err
				}
			}
		}(i, mvSpec)
	}
	wg.Wait()
	return res, firstErr
}
