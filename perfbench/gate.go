package main

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	tsig "repro"
	"repro/internal/core"
)

// tamperSamples is how many returned signatures the gate also checks
// against a tampered message, which must fail to verify.
const tamperSamples = 16

// gateBatch is how many signatures of one tenant the gate verifies with
// one batch verification.
const gateBatch = 32

// signed is one returned signature to check.
type signed struct {
	tenant int
	msg    []byte
	sig    *tsig.Signature
}

// gate is the correctness check run after timing ends. Each tenant's
// public key is fetched over the wire and must equal the one its keygen
// returned (so every refresh left it unchanged); every returned
// signature must verify under it; a seeded sample of tampered messages
// must not. It returns every mismatch, including those recorded while
// the workload ran.
func (r *runner) gate(ctx context.Context) (checked int, problems []string) {
	problems = append(problems, r.violations...)
	pks := make([]*tsig.PublicKey, len(r.clients))
	for i, cl := range r.clients {
		pk, _, err := cl.FetchPubkey(ctx)
		if err != nil {
			return 0, append(problems, fmt.Sprintf("fetching the public key of %s: %v", r.tenantID[i], err))
		}
		if !pk.Equal(r.pks[i]) {
			problems = append(problems, fmt.Sprintf("public key of %s differs from the one its keygen returned", r.tenantID[i]))
		}
		pks[i] = pk
	}

	var all []signed
	add := func(recs []*record) {
		for _, rec := range recs {
			for j, sig := range rec.sigs {
				if sig != nil {
					all = append(all, signed{rec.tenant, rec.msgs[j], sig})
				}
			}
		}
	}
	for _, p := range r.phases {
		add(p.records)
	}
	add(r.warmRecs)
	add(r.windowRecs)
	add(r.probes.batches)
	add(r.probes.signs)
	add(r.afterRefresh)

	// Signatures are checked in batches of one tenant (one multi-pairing
	// each); a batch that fails is checked one signature at a time, so
	// that every bad one is named.
	var chunks [][]signed
	for t := range pks {
		var chunk []signed
		for _, s := range all {
			if s.tenant != t {
				continue
			}
			if chunk = append(chunk, s); len(chunk) == gateBatch {
				chunks, chunk = append(chunks, chunk), nil
			}
		}
		if len(chunk) > 0 {
			chunks = append(chunks, chunk)
		}
	}
	bad := make(chan string, len(all))
	work := make(chan []signed)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range work {
				pk := pks[chunk[0].tenant]
				entries := make([]core.BatchEntry, len(chunk))
				for i, s := range chunk {
					entries[i] = core.BatchEntry{Msg: s.msg, Sig: s.sig}
				}
				if ok, err := core.BatchVerify(pk, entries, crand.Reader); ok && err == nil {
					continue
				}
				for _, s := range chunk {
					if !pk.Verify(s.msg, s.sig) {
						bad <- fmt.Sprintf("signature on %q for %s does not verify", s.msg, r.tenantID[s.tenant])
					}
				}
			}
		}()
	}
	for _, c := range chunks {
		work <- c
	}
	close(work)
	wg.Wait()
	close(bad)
	for b := range bad {
		problems = append(problems, b)
	}

	rng := rand.New(rand.NewSource(r.cfg.seed))
	for k := 0; k < tamperSamples && len(all) > 0; k++ {
		s := all[rng.Intn(len(all))]
		msg := append([]byte(nil), s.msg...)
		msg[rng.Intn(len(msg))] ^= byte(1 + rng.Intn(255))
		if pks[s.tenant].Verify(msg, s.sig) {
			problems = append(problems, fmt.Sprintf("signature on %q also verifies on tampered %q", s.msg, msg))
		}
	}
	return len(all), problems
}
