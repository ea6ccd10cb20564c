package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// metric is one named figure of the result.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, not part of the result
}

// latencyMetrics gives the median and tail of a phase's successful
// calls, each timed from its due time. A SignBatch call is one sample:
// its signatures all arrive together.
func latencyMetrics(prefix string, p *phase) []metric {
	var lat, hits []float64
	for _, rec := range p.records {
		if rec.failed > 0 {
			continue
		}
		lat = append(lat, rec.latencyMS())
		if !rec.batch && rec.cached[0] {
			hits = append(hits, rec.latencyMS())
		}
	}
	tv, pct := tail(lat)
	note := fmt.Sprintf("%s phase, n=%d calls", p.name, len(lat))
	if len(hits) > 0 {
		note += fmt.Sprintf(", %d cache hits (p50 %.3f ms)", len(hits), median(hits))
	}
	return []metric{
		{name: prefix + "_p50_ms", value: median(lat), unit: "ms", note: note},
		{name: prefix + "_tail_ms", value: tv, unit: "ms", note: fmt.Sprintf("%s phase, p%.2f of n=%d (%d samples beyond)", p.name, pct, len(lat), tailBeyond)},
	}
}

// delivered counts the verified signatures a phase returned.
func (p *phase) delivered() int { return delivered(p.records) }

func delivered(recs []*record) int {
	n := 0
	for _, rec := range recs {
		n += len(rec.msgs) - rec.failed
	}
	return n
}

func recordMS(recs []*record) []float64 {
	var out []float64
	for _, rec := range recs {
		if rec.failed == 0 {
			out = append(out, float64(rec.done.Sub(rec.sent))/1e6)
		}
	}
	return out
}

func refreshMS(runs []refreshRun) []float64 {
	var out []float64
	for _, run := range runs {
		if run.err == nil {
			out = append(out, run.ms())
		}
	}
	return out
}

// counts returns the operations attempted and failed over the whole run:
// every message signed or attempted, warm-up included, and every refresh.
func (r *runner) counts() (attempted, failed int) {
	recs := slices.Concat(r.warmRecs, r.windowRecs, r.probes.batches, r.probes.signs, r.afterRefresh)
	for _, p := range r.phases {
		recs = append(recs, p.records...)
	}
	for _, rec := range recs {
		attempted += len(rec.msgs)
		failed += rec.failed
	}
	for _, run := range r.allRefreshes() {
		attempted++
		if run.err != nil {
			failed++
		}
	}
	return attempted, failed
}

// allRefreshes is every refresh of the run: warm-up, timed and probes.
func (r *runner) allRefreshes() []refreshRun {
	return slices.Concat(r.warmRefreshes, r.refreshes, r.probes.refreshes)
}

// endToEnd computes the untraced pass's metrics.
func (r *runner) endToEnd() []metric {
	light, loaded := r.phases[0], r.phases[1]
	attempted, failed := r.counts()
	ms := []metric{
		{name: "setup_s", value: median(r.setupS), unit: "s", note: fmt.Sprintf("median of %d fleet set-ups with keygen over HTTP", len(r.setupS))},
		{name: "ok_ratio", value: float64(attempted-failed) / float64(attempted), unit: "ratio", note: fmt.Sprintf("fail_ratio=%.4f (%d of %d operations failed or refused)", float64(failed)/float64(attempted), failed, attempted)},
	}
	ms = append(ms, latencyMetrics("sign", light)...)
	ms = append(ms, latencyMetrics("loaded", loaded)...)
	// An open-loop phase delivers its offered rate, so the open-loop
	// workloads take their throughput from the closed-loop Sign probes.
	sigs, busy, source := delivered(r.probes.signs), r.probes.signBusy.Seconds(), fmt.Sprintf("closed-loop Sign probes from %d clients", r.workers)
	if r.cfg.workload == "sign-bulk" {
		sigs, busy, source = loaded.delivered(), loaded.busy.Seconds(), "the loaded phase"
	}
	ms = append(ms, metric{name: "sigs_per_s", value: float64(sigs) / busy, unit: "1/s",
		note: fmt.Sprintf("%d verified signatures in %.2fs of %s", sigs, busy, source)})
	ms = append(ms, metric{name: "batch_p50_ms", value: median(recordMS(r.probes.batches)), unit: "ms",
		note: fmt.Sprintf("probe: %d sequential SignBatch(%d) on the quiet fleet", len(r.probes.batches), bulkBatch)})

	refreshes, refreshNote := refreshMS(r.probes.refreshes), fmt.Sprintf("probe: %d sequential RunRefresh on the quiet fleet", len(r.probes.refreshes))
	if r.cfg.workload == "kms-churn" {
		refreshes, refreshNote = refreshMS(r.refreshes), fmt.Sprintf("%d RunRefresh under signing traffic", len(r.refreshes))
	}
	ms = append(ms, metric{name: "refresh_p50_ms", value: median(refreshes), unit: "ms", note: refreshNote})
	return ms
}

// requestSpans gathers one traced client request's spans.
type requestSpans struct {
	client *span
	coord  *span
	rpcs   []span
	signer []span
	proto  []span
}

func groupSpans(spans []span) map[string]*requestSpans {
	out := map[string]*requestSpans{}
	for i := range spans {
		s := &spans[i]
		rs := out[s.RID]
		if rs == nil {
			rs = &requestSpans{}
			out[s.RID] = rs
		}
		switch {
		case s.Name == spanClient:
			rs.client = s
		case strings.HasPrefix(s.Name, "coord.") && s.Name != spanRPC:
			rs.coord = s
		case s.Name == spanRPC:
			rs.rpcs = append(rs.rpcs, *s)
		case strings.HasPrefix(s.Name, "proto."):
			rs.proto = append(rs.proto, *s)
		default:
			rs.signer = append(rs.signer, *s)
		}
	}
	return out
}

// perLayer computes the traced pass's metrics from the spans, the
// metric deltas and the ladder.
func (r *runner) perLayer(spans []span, rungs []rung, keygenMS, refreshMS float64, rep io.Writer) []metric {
	byRID := groupSpans(spans)
	var recs []*record
	for _, p := range r.phases {
		recs = append(recs, p.records...)
	}

	// Client, coordinator and signer spans of the timed signing requests.
	var rtt, wire, coordHTTP, self []float64
	var fanRTT, fanWire, quorumWait, postQuorum []float64
	var signMS, batchMS []float64
	var busy, wasted float64
	var sigs, rpcs, sharesUsed, sharesAsked int
	var tracedLat, untracedLat []float64
	for _, rec := range recs {
		if rec.failed > 0 {
			continue
		}
		if strings.HasPrefix(rec.rid, tracedPrefix) {
			tracedLat = append(tracedLat, rec.latencyMS())
		} else {
			untracedLat = append(untracedLat, rec.latencyMS())
		}
		rs := byRID[rec.rid]
		if rs == nil || rs.client == nil || rs.coord == nil {
			continue
		}
		sigs += len(rec.msgs)
		c, h := rs.client.dur(), rs.coord.dur()
		rtt = append(rtt, ms(c))
		wire = append(wire, ms(c-h))
		coordHTTP = append(coordHTTP, ms(h))
		var ivs []interval
		var okEnds []int64
		// Only a call that fanned out itself combined shares; a cache hit
		// or a coalesced follower reports signers it did not ask.
		used := map[int]bool{}
		for _, ss := range rec.signers {
			for _, i := range ss {
				used[i] = len(rs.rpcs) > 0
			}
			if len(rs.rpcs) > 0 {
				sharesUsed += len(ss)
			}
		}
		for _, rpc := range rs.rpcs {
			ivs = append(ivs, interval{rpc.Start, rpc.End})
			rpcs++
			sharesAsked += rpc.Msgs
			if rpc.Status == 200 {
				okEnds = append(okEnds, rpc.End)
			}
		}
		self = append(self, ms(h-coveredWithin(interval{rs.coord.Start, rs.coord.End}, ivs)))
		sort.Slice(okEnds, func(i, j int) bool { return okEnds[i] < okEnds[j] })
		if len(okEnds) > fleetT && len(rec.msgs) == 1 {
			q := okEnds[fleetT]
			fanRTT = append(fanRTT, ms(c))
			fanWire = append(fanWire, ms(c-h))
			quorumWait = append(quorumWait, ms(q-rs.coord.Start))
			postQuorum = append(postQuorum, ms(rs.coord.End-q))
		}
		for _, s := range rs.signer {
			switch s.Name {
			case spanSignerSign:
				signMS = append(signMS, ms(s.dur()))
			case spanSignerBatch:
				batchMS = append(batchMS, ms(s.dur()))
			default:
				continue
			}
			busy += ms(s.dur())
			if !used[s.Signer] {
				wasted += ms(s.dur())
			}
		}
	}

	// Protocol sessions of every traced refresh, timed or probe.
	var protoStart, protoStep, protoFinish []float64
	runs := slices.Concat(r.refreshes, r.probes.refreshes)
	rounds := 0
	for _, run := range runs {
		rounds += run.rounds
	}
	for _, rs := range byRID {
		for _, s := range rs.proto {
			switch s.Name {
			case spanProtoStart:
				protoStart = append(protoStart, ms(s.dur()))
			case spanProtoStep:
				protoStep = append(protoStep, ms(s.dur()))
			case spanProtoFinish:
				protoFinish = append(protoFinish, ms(s.dur()))
			}
		}
	}

	timed := counters{}
	var mallocs, bytes, gcs uint64
	var cpu float64
	delivered := 0
	var lateMax float64
	for _, p := range r.phases {
		for k, v := range p.metrics {
			timed[k] += v
		}
		mallocs += p.mem.Mallocs
		bytes += p.mem.TotalAlloc
		gcs += uint64(p.mem.NumGC)
		cpu += ms(int64(p.cpu))
		delivered += p.delivered()
		lateMax = math.Max(lateMax, ms(int64(p.lateMax)))
	}
	all := counters{}
	for k, v := range timed {
		all[k] = v + r.probeDelta[k]
	}
	batchMsgs := 0
	for _, rec := range recs {
		if rec.batch {
			batchMsgs += len(rec.msgs)
		}
	}

	var windowLat []float64
	for _, rec := range r.windowRecs {
		if rec.failed == 0 {
			windowLat = append(windowLat, rec.latencyMS())
		}
	}
	windowTail, windowPct := tail(windowLat)

	rung := map[string]rung{}
	for _, g := range rungs {
		rung[g.name] = g
	}
	model := float64(fleetN)*rung["core.ShareSign"].med + float64(fleetT+1)*rung["core.ShareVerify"].med +
		rung["core.CombinePreverified"].med + rung["core.Verify"].med
	cpuPerSig := div(cpu, float64(delivered))

	out := []metric{
		{name: "client.rtt_ms", value: mean(rtt), unit: "ms", note: fmt.Sprintf("mean over %d traced calls", len(rtt))},
		{name: "client.wire_ms", value: mean(wire), unit: "ms"},
		{name: "coord.http_ms", value: mean(coordHTTP), unit: "ms"},
		{name: "coord.quorum_wait_ms", value: mean(quorumWait), unit: "ms", note: fmt.Sprintf("mean over %d fanned-out Sign calls", len(quorumWait))},
		{name: "coord.post_quorum_ms", value: mean(postQuorum), unit: "ms"},
		{name: "coord.self_ms", value: mean(self), unit: "ms"},
		{name: "coord.rpcs_per_sig", value: div(float64(rpcs), float64(sigs)), unit: "count"},
		{name: "coord.useful_share_ratio", value: div(float64(sharesUsed), float64(sharesAsked)), unit: "ratio",
			note: fmt.Sprintf("%d shares combined of %d requested", sharesUsed, sharesAsked)},
		{name: "coord.cache_hit_ratio", value: div(timed["tsig_coordinator_cache_hits_total"], timed["tsig_coordinator_cache_hits_total"]+timed["tsig_coordinator_cache_misses_total"]), unit: "ratio"},
		{name: "coord.coalesced_ratio", value: div(timed["tsig_coordinator_coalesced_total"], timed["tsig_coordinator_sign_requests_total"]), unit: "ratio"},
		{name: "coord.batch_occupancy", value: div(float64(batchMsgs), timed["tsig_coordinator_batch_requests_total"]), unit: "count"},
		{name: "signer.sign_ms", value: mean(signMS), unit: "ms"},
		{name: "signer.sign_batch_ms", value: mean(batchMS), unit: "ms"},
		{name: "signer.busy_ms_per_sig", value: div(busy, float64(sigs)), unit: "ms"},
		{name: "signer.wasted_ms_per_sig", value: div(wasted, float64(sigs)), unit: "ms"},
		{name: "signer.shed", value: timed["tsig_signer_shed_total"], unit: "count"},
		{name: "proto.start_ms", value: mean(protoStart), unit: "ms"},
		{name: "proto.step_ms", value: mean(protoStep), unit: "ms"},
		{name: "proto.finish_ms", value: mean(protoFinish), unit: "ms"},
		{name: "proto.rounds_per_run", value: div(float64(rounds), float64(len(runs))), unit: "count"},
		{name: "proto.bytes_per_run", value: div(all["tsig_proto_broadcast_bytes_total"]+all["tsig_proto_unicast_bytes_total"], float64(len(runs))), unit: "bytes"},
		{name: "proto.msgs_per_run", value: div(all["tsig_proto_broadcast_messages_total"]+all["tsig_proto_unicast_messages_total"], float64(len(runs))), unit: "count"},
		{name: "precompute.rebuilds_per_refresh", value: div(all["tsig_pairing_precompute_rebuilds_total"], float64(len(runs))), unit: "count"},
		{name: "kms.first_sign_after_refresh_ms", value: median(recordMS(r.afterRefresh)), unit: "ms"},
		{name: "kms.sign_during_refresh_p50_ms", value: orZero(median(windowLat)), unit: "ms", note: fmt.Sprintf("%d calls started with a refresh", len(windowLat))},
		{name: "kms.sign_during_refresh_tail_ms", value: orZero(windowTail), unit: "ms", note: fmt.Sprintf("p%.2f of n=%d (%d samples beyond)", windowPct, len(windowLat), tailBeyond)},
		{name: "registry.hot_hit_ratio", value: div(all["tsig_registry_hot_hits_total"], all["tsig_registry_hot_hits_total"]+all["tsig_registry_hot_misses_total"]), unit: "ratio"},
		{name: "registry.manifest_rewrites", value: all["tsig_registry_manifest_rewrites_total"], unit: "count"},
		{name: "dkg.local_keygen_ms", value: keygenMS, unit: "ms"},
		{name: "dkg.local_refresh_ms", value: refreshMS, unit: "ms"},
	}
	for _, g := range rungs {
		out = append(out,
			metric{name: g.name, value: g.med, unit: "ms", note: fmt.Sprintf("q1=%.4f q3=%.4f of %d calls", g.q1, g.q3, g.samples)},
			metric{name: g.name + ".allocs", value: g.allocs, unit: "count"})
	}
	out = append(out,
		metric{name: "runtime.allocs_per_sig", value: div(float64(mallocs), float64(delivered)), unit: "count"},
		metric{name: "runtime.bytes_per_sig", value: div(float64(bytes), float64(delivered)), unit: "bytes"},
		metric{name: "runtime.gc_per_sig", value: div(float64(gcs), float64(delivered)), unit: "count"},
		metric{name: "runtime.cpu_ms_per_sig", value: cpuPerSig, unit: "ms", note: "process CPU over the timed phases"},
		metric{name: "model.cpu_ms_per_sig", value: model, unit: "ms", note: fmt.Sprintf("%d·ShareSign + %d·ShareVerify + Combine + Verify from the ladder", fleetN, fleetT+1)},
		metric{name: "gen.late_max_ms", value: lateMax, unit: "ms"},
		metric{name: "trace.overhead_pct", value: 100 * div(median(tracedLat)-median(untracedLat), median(untracedLat)), unit: "%",
			note: fmt.Sprintf("median of %d traced vs %d untraced requests of the same phases", len(tracedLat), len(untracedLat))},
	)

	fmt.Fprintf(rep, "\nblocking path of fanned-out Sign calls (means over %d traced calls):\n", len(fanRTT))
	sum := mean(fanWire) + mean(quorumWait) + mean(postQuorum)
	fmt.Fprintf(rep, "  client.wire_ms %.3f + coord.quorum_wait_ms %.3f + coord.post_quorum_ms %.3f = %.3f ms against client.rtt_ms %.3f ms (%.1f%%)\n",
		mean(fanWire), mean(quorumWait), mean(postQuorum), sum, mean(fanRTT), 100*div(sum, mean(fanRTT)))
	fmt.Fprintf(rep, "cost model: %d·ShareSign %.3f + %d·ShareVerify %.3f + Combine %.3f + Verify %.3f = %.3f ms of CPU per signature; measured %.3f ms (%d signatures, %.0f ms process CPU)\n",
		fleetN, rung["core.ShareSign"].med, fleetT+1, rung["core.ShareVerify"].med,
		rung["core.CombinePreverified"].med, rung["core.Verify"].med, model, cpuPerSig, delivered, cpu)
	selfTimeReport(rep, spans)
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// orZero is x, or 0 when x is NaN (the layer did no work in this run).
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// div is a/b, or 0 when b is 0 (the layer did no work in this run).
func div(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// selfTimeReport prints, per span name, the count, mean duration and
// mean self time: the duration minus the part covered by the span's
// children (the next layer's spans of the same request).
func selfTimeReport(w io.Writer, spans []span) {
	byRID := map[string][]span{}
	for _, s := range spans {
		byRID[s.RID] = append(byRID[s.RID], s)
	}
	childOf := func(parent, child span) bool {
		switch {
		case parent.Name == spanClient:
			return strings.HasPrefix(child.Name, "coord.") && child.Name != spanRPC
		case strings.HasPrefix(parent.Name, "coord.") && parent.Name != spanRPC:
			return child.Name == spanRPC
		case parent.Name == spanRPC:
			return child.Signer == parent.Signer && (strings.HasPrefix(child.Name, "signer.") || strings.HasPrefix(child.Name, "proto."))
		}
		return false
	}
	type agg struct {
		n         int
		dur, self float64
	}
	aggs := map[string]*agg{}
	for _, group := range byRID {
		for _, p := range group {
			var ivs []interval
			for _, c := range group {
				if childOf(p, c) {
					ivs = append(ivs, interval{c.Start, c.End})
				}
			}
			a := aggs[p.Name]
			if a == nil {
				a = &agg{}
				aggs[p.Name] = a
			}
			a.n++
			a.dur += ms(p.dur())
			a.self += ms(p.dur() - coveredWithin(interval{p.Start, p.End}, ivs))
		}
	}
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "self time by span (%d spans):\n", len(spans))
	fmt.Fprintf(w, "  %-20s %8s %12s %12s\n", "span", "count", "mean ms", "self ms")
	for _, n := range names {
		a := aggs[n]
		fmt.Fprintf(w, "  %-20s %8d %12.3f %12.3f\n", n, a.n, a.dur/float64(a.n), a.self/float64(a.n))
	}
}
