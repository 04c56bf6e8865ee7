package control

import (
	"math"

	"repro/internal/stats"
	"repro/internal/topo"
)

// The per-sender policy's dead-band and cap; its observation gate is
// the shared minSamples, counted per sender.
const (
	// senderBand is the relative dead-band: a sender's estimate must
	// move more than senderBand·current before its override swaps.
	// Wider than the global policy's band because per-sender streams
	// are thinner and noisier.
	senderBand = 0.1
	// maxSenders bounds the tracked sender set: estimators are O(1)
	// each but a snapshot-scale run has millions of senders, so
	// arrivals from senders beyond the cap fall through to the global
	// threshold. First-come, first-tracked — deterministic, since
	// arrivals are observed in event order.
	maxSenders = 4096
)

// senderState is one tracked sender's estimator and last-applied
// override.
type senderState struct {
	est *stats.QuantileEstimator
	cur float64 // last applied override value
	has bool    // whether an override has been applied
}

// PerSenderThreshold shards the threshold estimator per sender,
// mirroring how the router shards its mice routing tables: each
// sender's payment sizes drift independently (one node streams large
// transfers while another pays micro-fees), so classifying every
// sender against the network-wide quantile misclassifies both tails.
// Each tracked sender runs its own P² estimator over its own arrival
// stream; when a window gives that sender alone at least minSamples
// arrivals and its estimate has moved outside the dead-band, the
// controller emits a KnobSenderThreshold decision for that sender.
//
// Decisions are emitted in first-seen sender order — a slice, not map
// iteration — so the decision sequence is a pure function of the
// arrival sequence.
type PerSenderThreshold struct {
	frac    float64 // tracked quantile per sender
	senders map[topo.NodeID]*senderState
	order   []topo.NodeID // first-seen order, for deterministic iteration
}

// NewPerSenderThreshold returns the sharded per-sender policy, each
// sender tracking its own miceFraction-quantile (0 < miceFraction < 1).
func NewPerSenderThreshold(miceFraction float64) *PerSenderThreshold {
	return &PerSenderThreshold{
		frac:    miceFraction,
		senders: make(map[topo.NodeID]*senderState),
	}
}

// ObserveArrival implements ArrivalObserver.
func (c *PerSenderThreshold) ObserveArrival(sender topo.NodeID, amount float64) {
	st := c.senders[sender]
	if st == nil {
		if len(c.order) >= maxSenders {
			return
		}
		st = &senderState{est: stats.NewQuantileEstimator(c.frac)}
		c.senders[sender] = st
		c.order = append(c.order, sender)
	}
	st.est.Add(amount)
}

// Observe implements Controller.
func (c *PerSenderThreshold) Observe(w Metrics) []Decision {
	var ds []Decision
	for _, sender := range c.order {
		st := c.senders[sender]
		if st.est.Count() < minSamples {
			continue
		}
		q := st.est.Quantile()
		st.est.Reset()
		cur := w.Threshold
		if st.has {
			cur = st.cur
		}
		if math.Abs(q-cur) <= senderBand*math.Abs(cur) {
			continue
		}
		st.cur, st.has = q, true
		ds = append(ds, Decision{Knob: KnobSenderThreshold, Sender: sender, Value: q})
	}
	return ds
}
