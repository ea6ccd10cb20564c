package main

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"time"

	tsig "repro"
	"repro/internal/bn254"
	"repro/internal/core"
)

// rung is one timed entry point of the ladder: the median and quartiles
// of single-call times and the heap allocations per call.
type rung struct {
	name        string
	q1, med, q3 float64 // ms
	allocs      float64
	samples     int
}

// measure calls fn reps times after one untimed call, timing each call
// and counting heap allocations over all of them.
func measure(name string, reps int, fn func(i int)) rung {
	fn(-1)
	times := make([]float64, reps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range times {
		start := time.Now()
		fn(i)
		times[i] = float64(time.Since(start)) / 1e6
	}
	runtime.ReadMemStats(&m1)
	s := sortedCopy(times)
	return rung{
		name: name, q1: quantile(s, 0.25), med: quantile(s, 0.5), q3: quantile(s, 0.75),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(reps), samples: reps,
	}
}

// ladder times the public entry points of internal/core (through the
// Group and Member methods, on a group of the workload's n and t) and
// internal/bn254 that the signing path is built from.
func ladder(reps int, seed int64) ([]rung, error) {
	group, members, err := tsig.NewScheme(tsig.WithDomain(domain)).Keygen(fleetN, fleetT)
	if err != nil {
		return nil, err
	}
	group.Precompute()
	msgs := make([][]byte, reps+1)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("perfbench/ladder/%d/%d", seed, i))
	}
	msg := func(i int) []byte { return msgs[i+1] }

	// Shares of every member on every message, and t+1 of them combined.
	parts := make([][]*core.PartialSignature, len(msgs))
	sigs := make([]*core.Signature, len(msgs))
	for i, m := range msgs {
		for _, mb := range members {
			ps, err := mb.SignShare(m)
			if err != nil {
				return nil, err
			}
			parts[i] = append(parts[i], ps)
		}
		if sigs[i], err = group.CombinePreverified(parts[i][:fleetT+1]); err != nil {
			return nil, err
		}
	}
	batch := make([]core.ShareBatchEntry, bulkBatch)
	for j := range batch {
		m := []byte(fmt.Sprintf("perfbench/ladder/batch/%d/%d", seed, j))
		ps, err := members[0].SignShare(m)
		if err != nil {
			return nil, err
		}
		batch[j] = core.ShareBatchEntry{Msg: m, VK: group.VerificationKey(1), PS: ps}
	}

	var failed error
	check := func(ok bool, what string) {
		if !ok && failed == nil {
			failed = fmt.Errorf("ladder: %s returned a wrong result", what)
		}
	}
	rungs := []rung{
		measure("core.ShareSign", reps, func(i int) {
			_, err := members[0].SignShare(msg(i))
			check(err == nil, "ShareSign")
		}),
		measure("core.ShareVerify", reps, func(i int) {
			check(group.ShareVerify(msg(i), parts[i+1][1]), "ShareVerify")
		}),
		measure("core.CombinePreverified", reps, func(i int) {
			_, err := group.CombinePreverified(parts[i+1][:fleetT+1])
			check(err == nil, "CombinePreverified")
		}),
		measure("core.Verify", reps, func(i int) {
			check(group.Verify(msg(i), sigs[i+1]), "Verify")
		}),
		measure(fmt.Sprintf("core.BatchShareVerify.k%d", bulkBatch), reps, func(int) {
			ok, err := core.BatchShareVerify(group.PK, batch, rand.Reader)
			check(ok && err == nil, "BatchShareVerify")
		}),
	}

	g1s := make([]*bn254.G1, 64)
	scalars := make([]*big.Int, 64)
	for i := range g1s {
		if scalars[i], err = bn254.RandScalar(rand.Reader); err != nil {
			return nil, err
		}
		g1s[i] = new(bn254.G1).ScalarBaseMult(scalars[i])
	}
	q := new(bn254.G2).ScalarBaseMult(scalars[0])
	pre := bn254.PrecomputeG2(q)
	slots := make([]*bn254.PairingSlot, 4)
	for i := range slots {
		slots[i] = &bn254.PairingSlot{P: g1s[i], Pre: bn254.PrecomputeG2(new(bn254.G2).ScalarBaseMult(scalars[i+4]))}
	}
	rungs = append(rungs,
		measure("bn254.HashToG1", reps, func(i int) { bn254.HashToG1(domain, msg(i)) }),
		measure("bn254.G1ScalarMult", reps, func(i int) { new(bn254.G1).ScalarMult(g1s[1], scalars[(i+64)%64]) }),
		measure("bn254.Pair", reps, func(int) { bn254.Pair(g1s[1], q) }),
		measure("bn254.PrecomputeG2", reps, func(int) { bn254.PrecomputeG2(q) }),
		measure("bn254.PairFixed", reps, func(int) { bn254.PairFixed(g1s[1], pre) }),
		measure("bn254.PairingCheckMixed.4", reps, func(int) { bn254.PairingCheckMixed(slots) }),
		measure("bn254.G1MSM.k3", reps, func(int) {
			_, err := bn254.G1MSM(g1s[:3], scalars[:3])
			check(err == nil, "G1MSM")
		}),
		measure("bn254.G1MSM.k64", reps, func(int) {
			_, err := bn254.G1MSM(g1s, scalars)
			check(err == nil, "G1MSM")
		}),
	)
	return rungs, failed
}

// localProtocols times the in-process keygen and refresh, which the
// HTTP runs add wire and session overhead to.
func localProtocols(reps int) (keygenMS, refreshMS float64, err error) {
	scheme := tsig.NewScheme(tsig.WithDomain(domain))
	var kg, rf []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, _, err := scheme.Keygen(fleetN, fleetT); err != nil {
			return 0, 0, err
		}
		kg = append(kg, float64(time.Since(start))/1e6)
		start = time.Now()
		if _, err := scheme.RunRefresh(fleetN, fleetT); err != nil {
			return 0, 0, err
		}
		rf = append(rf, float64(time.Since(start))/1e6)
	}
	return median(kg), median(rf), nil
}
