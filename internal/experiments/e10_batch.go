package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ps"
	"repro/internal/subscriber"
)

func init() {
	register("E10", "Batch provisioning vs a 30-second backbone glitch",
		"§3.3, §4.1", runE10)
}

// runE10 reproduces §4.1's batch-provisioning hazard: "when using
// batched provisioning, a network glitch as short as 30 seconds may
// cause a batch that's been running for hours to fail", leaving
// failed items for manual re-application. The batch runs as three
// slices and the glitch cuts the PS site off for the middle one, so
// which items fall inside it is fixed by index, not by a timer.
func runE10(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E10", "Batch provisioning vs a 30-second backbone glitch")
	batchSize := 120
	interval := time.Millisecond
	if opts.Quick {
		batchSize = 60
		interval = 500 * time.Microsecond
	}
	third := batchSize / 3

	// remote counts the middle slice's items whose partition is
	// mastered across the cut: provisioning places a profile on the
	// partition homed in its region.
	var remote int
	run := func(withGlitch, stopOnError bool) (ps.BatchResult, error) {
		net, u, _, err := buildUDR(opts, 0)
		if err != nil {
			return ps.BatchResult{}, err
		}
		defer u.Stop()
		site := u.Sites()[0]
		system := ps.NewWithSession(site, psSession(net, site))

		masterSite := map[string]string{}
		for _, id := range u.Partitions() {
			part, _ := u.Partition(id)
			masterSite[part.HomeSite] = part.Master().Site
		}
		gen := subscriber.NewGenerator(u.Sites()...)
		profiles := make([]*subscriber.Profile, batchSize)
		remote = 0
		for i := range profiles {
			profiles[i] = gen.Profile(i)
			if i >= third && i < 2*third && masterSite[profiles[i].HomeRegion] != site {
				remote++
			}
		}

		total := ps.BatchResult{Total: batchSize}
		for k, slice := range [][]*subscriber.Profile{profiles[:third], profiles[third : 2*third], profiles[2*third:]} {
			if withGlitch && k == 1 {
				net.Partition([]string{site})
			}
			res := system.RunBatch(ctx, slice, interval, stopOnError)
			net.Heal()
			total.Succeeded += res.Succeeded
			total.Failed += res.Failed
			total.Aborted = res.Aborted
			if res.Aborted {
				break
			}
		}
		return total, nil
	}

	rep.AddRow("scenario", "completed", "failed", "aborted", "manual interventions")
	report := func(name string, r ps.BatchResult) {
		rep.AddRow(name, fmt.Sprintf("%d/%d", r.Succeeded, r.Total),
			fmt.Sprint(r.Failed), fmt.Sprint(r.Aborted), fmt.Sprint(r.Failed))
	}

	baseline, err := run(false, true)
	if err != nil {
		return nil, err
	}
	report("no glitch, stop-on-error", baseline)
	rep.Check("baseline batch completes fully", baseline.Succeeded == baseline.Total && !baseline.Aborted)

	strict, err := run(true, true)
	if err != nil {
		return nil, err
	}
	report("glitch, stop-on-error", strict)
	rep.Check("glitch aborts the strict batch", strict.Aborted && strict.Succeeded < strict.Total)

	lenient, err := run(true, false)
	if err != nil {
		return nil, err
	}
	report("glitch, continue-on-error", lenient)
	// A remote item cannot commit while its master is cut off, so
	// equal counts mean each item failed exactly when it was remote.
	rep.Check("during the cut, exactly the items mastered across it fail",
		remote > 0 && remote < third && lenient.Failed == remote && lenient.Succeeded == batchSize-remote && !lenient.Aborted)

	rep.Note("glitch covers the middle third of the batch (%d of %d items, %d of them mastered across the cut); during it only locally-mastered regions accept provisioning writes", third, batchSize, remote)
	rep.Note("paper §4.1: 'at the very best, if the batch is able to finish the provider needs to send someone to check what parts of the batch failed and apply those parts manually'")
	return rep, nil
}
