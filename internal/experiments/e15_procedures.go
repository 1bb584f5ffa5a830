package experiments

import (
	"context"
	"fmt"

	"repro/internal/fe"
)

func init() {
	register("E15", "LDAP operations per network procedure",
		"§3.5 fn 8", runE15)
}

// runE15 reproduces §3.5 footnote 8: "typical mobile network
// procedures cause between 1 and 3 LDAP operations ... a single
// typical IMS network procedure may cause 5 or 6 LDAP read/write
// operations."
func runE15(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E15", "LDAP operations per network procedure")
	subs, _ := sizes(opts)
	net, u, profiles, err := buildUDR(opts, subs)
	if err != nil {
		return nil, err
	}
	defer u.Stop()

	site := u.Sites()[0]
	front := fe.NewWithSession(fe.HSS, site, feSession(net, site))

	reps := 10
	for i := 0; i < reps; i++ {
		p := profiles[i%len(profiles)]
		if err := front.LocationUpdate(ctx, p.IMSIVal, "mme-x", "area-x", false); err != nil {
			return nil, err
		}
		if _, err := front.Authenticate(ctx, p.IMSIVal); err != nil {
			return nil, err
		}
		if err := front.MOCall(ctx, p.MSISDNVal, false); err != nil && err != fe.ErrBarred {
			return nil, err
		}
		if _, err := front.MTCall(ctx, p.MSISDNVal); err != nil {
			return nil, err
		}
		if _, err := front.SMSDeliver(ctx, p.MSISDNVal); err != nil && err != fe.ErrBarred {
			return nil, err
		}
	}
	// IMS registration needs IMS-enabled subscriptions.
	imsRuns := 0
	for _, p := range profiles {
		if p.Services.IMSEnabled && len(p.IMPUVals) > 0 {
			if err := front.IMSRegister(ctx, p.IMPUVals[0], "scscf-x"); err != nil {
				return nil, err
			}
			imsRuns++
			if imsRuns == reps {
				break
			}
		}
	}

	rep.AddRow("procedure", "ops/invocation (measured)", "paper range")
	type row struct {
		name  string
		stats *fe.ProcStats
		lo    float64
		hi    float64
	}
	rows := []row{
		{"LocationUpdate", &front.LocationUpdateStats, 1, 3},
		{"Authenticate", &front.AuthenticateStats, 1, 3},
		{"MOCall", &front.MOCallStats, 1, 3},
		{"MTCall", &front.MTCallStats, 1, 3},
		{"SMSDeliver", &front.SMSStats, 1, 3},
		{"IMSRegister", &front.IMSRegisterStats, 5, 6},
	}
	for _, r := range rows {
		got := r.stats.OpsPerInvocation()
		rep.AddRow(r.name, fmt.Sprintf("%.1f", got), fmt.Sprintf("%.0f-%.0f", r.lo, r.hi))
		rep.Check(fmt.Sprintf("%s within paper range", r.name), got >= r.lo && got <= r.hi)
	}
	rep.Note("paper fn 8: mobile procedures 1-3 LDAP ops; IMS procedures 5-6")
	return rep, nil
}
