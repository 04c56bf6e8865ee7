package harness

import (
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/sim"
)

// simRig replays a workload through the discrete-event engine.
type simRig struct{ in *Inputs }

func (r *simRig) close() {}

// rep implements rig.
func (r *simRig) rep() (repOutcome, error) { return r.in.runEngine(r.in.engineOptions(), nil, 0) }

// engineOptions are the DynamicOptions every rep of the workload runs
// under: one station, so outcomes are a pure function of the seed.
func (in *Inputs) engineOptions() sim.DynamicOptions {
	return sim.DynamicOptions{
		Workers:  1,
		Seed:     in.Seed,
		Retries:  in.Spec.Retries,
		Service:  in.Spec.Service,
		Deadline: in.Spec.Deadline,
	}
}

// newRouter builds the workload's router with empty tables, as every
// flashsim run starts.
func (in *Inputs) newRouter() (route.Router, error) {
	return sim.BuildRouter(sim.RouterSpec{
		Scheme:    in.Spec.Scheme,
		Threshold: in.Threshold,
		TableCap:  in.Spec.TableCap,
		Seed:      in.Seed,
	})
}

// runEngine is one checked engine replay: a fresh network and router
// outside the timer, then the sim.RunDynamic call alone inside it.
// router nil means the workload's own; payments is the length of the
// prefix to replay, ≤ 0 or beyond the end meaning all of them.
func (in *Inputs) runEngine(opts sim.DynamicOptions, router route.Router, payments int) (repOutcome, error) {
	if payments <= 0 || payments > len(in.Payments) {
		payments = len(in.Payments)
	}
	if router == nil {
		var err error
		if router, err = in.newRouter(); err != nil {
			return repOutcome{}, err
		}
	}
	net := in.NewNetwork()
	src := in.Source(payments)
	fundsBefore := net.TotalFunds()

	var o repOutcome
	var err error
	o.wall, o.mallocs, o.bytes, err = measured(func() error {
		var err error
		o.res, err = sim.RunDynamic(net, router, src, in.Horizon, in.Churn, in.Threshold, opts)
		return err
	})
	if err != nil {
		return o, err
	}
	if fl, ok := router.(*core.Flash); ok {
		o.flash = fl.Stats()
	}
	o.holds = [3]int64{net.HoldsPlaced(), net.HoldsCommitted(), net.HoldsAborted()}
	return o, checkRep(payments, &o, fundsBefore, net.TotalFunds())
}
