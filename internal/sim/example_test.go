package sim

import (
	"fmt"

	"repro/internal/trace"
)

// ExampleRunDynamic pushes the barbell contention fixture through the
// discrete-event engine with hold spans: all four payments arrive at
// t=0 wanting 10 across a bridge that holds 15 per direction. The
// first dispatch locks 10 of the bridge for its virtual service time,
// so every later arrival — and each of its retries while the hold is
// outstanding — probes only the 5 that remain and fails: exactly one
// payment crosses. With Workers: 1 the run is a pure function of the
// seed — same seed, same metrics, same fingerprint.
func ExampleRunDynamic() {
	net, payments, err := BuildContention(2, 1000, 15, 10)
	if err != nil {
		panic(err)
	}
	r, err := BuildRouter(RouterSpec{Scheme: SchemeShortestPath, Seed: 1})
	if err != nil {
		panic(err)
	}
	res, err := RunDynamic(net, r, trace.NewReplayStream(payments), 30, nil, 10, DynamicOptions{
		Workers: 1,
		Seed:    1,
		Service: 1, // mean hold span in virtual seconds
		Retries: 4,
	})
	if err != nil {
		panic(err)
	}
	m := res.Aggregate
	fmt.Printf("delivered %d/%d, volume %g, windows %d\n", m.Successes, m.Payments, m.SuccessVolume, len(res.Windows))
	fmt.Printf("fingerprint %016x\n", res.Fingerprint)
	// Output:
	// delivered 1/4, volume 10, windows 1
	// fingerprint 06f271122e0c51d2
}
