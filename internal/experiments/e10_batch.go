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
// failed items for manual re-application. Time is compressed: the
// batch paces one transaction per interval and the glitch covers a
// middle slice of the run.
func runE10(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E10", "Batch provisioning vs a 30-second backbone glitch")
	batchSize := 120
	interval := time.Millisecond
	if opts.Quick {
		batchSize = 60
		interval = 500 * time.Microsecond
	}
	// Provisioning items include remote locator updates, so each
	// takes several backbone round trips; the glitch is sized in
	// wall-clock terms generous enough to cover a run of items.
	glitchStart := time.Duration(batchSize/3) * interval
	glitchLen := time.Duration(batchSize/2) * interval

	run := func(withGlitch, stopOnError bool) (ps.BatchResult, error) {
		net, u, _, err := buildUDR(opts, 0)
		if err != nil {
			return ps.BatchResult{}, err
		}
		defer u.Stop()
		site := u.Sites()[0]
		system := ps.NewWithSession(site, psSession(net, site))

		gen := subscriber.NewGenerator(u.Sites()...)
		profiles := make([]*subscriber.Profile, batchSize)
		for i := range profiles {
			profiles[i] = gen.Profile(i)
		}

		var glitchDone chan struct{}
		if withGlitch {
			glitchDone = make(chan struct{})
			time.AfterFunc(glitchStart, func() {
				defer close(glitchDone)
				net.Glitch(ctx, []string{site}, glitchLen)
			})
		}
		res := system.RunBatch(ctx, profiles, interval, stopOnError)
		if glitchDone != nil {
			<-glitchDone
		}
		// Give the network a moment to heal before teardown.
		net.Heal()
		return res, nil
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
	rep.Check("lenient batch loses the glitch window's remote items",
		lenient.Failed > 0 && lenient.Succeeded > 0 && !lenient.Aborted)
	rep.Check("every failed item is a manual intervention", lenient.Failed > 0)

	rep.Note("glitch covers ~%d%% of the batch window; during it only locally-mastered regions accept provisioning writes", int(100*float64(glitchLen)/(float64(batchSize)*float64(interval))))
	rep.Note("paper §4.1: 'at the very best, if the batch is able to finish the provider needs to send someone to check what parts of the batch failed and apply those parts manually'")
	return rep, nil
}
