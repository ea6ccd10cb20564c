package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	tsig "repro"
	"repro/client"
	"repro/service"
)

// Fleet shape and workload parameters. The rates and sizes are part of
// the benchmark's definition: changing one changes what every recorded
// figure means.
const (
	fleetN, fleetT = 5, 2
	domain         = "perfbench/v1"

	lightRate  = 5.0 // sign-open light phase, signatures/s (about 40% of the knee)
	loadedRate = 7.0 // sign-open loaded phase, signatures/s

	bulkBatch = 16 // messages per SignBatch on sign-bulk and in the batch probe

	churnTenants    = 4
	churnLightRate  = 12.0                    // kms-churn light phase and refresh windows, requests/s over all tenants
	churnLoadedRate = 18.0                    // kms-churn loaded phase, requests/s over all tenants (see README.md on its tail)
	churnRepeat     = 0.85                    // share of kms-churn requests repeating a recent message
	churnRecent     = 8                       // how far back a repeat may reach, per tenant
	churnWindow     = 1200 * time.Millisecond // signing traffic started with each kms-churn refresh

	warmBatch = 2 // messages in the untimed SignBatch of each probe slot

	phaseSlices = 4 // each phase is timed in this many slices, alternating with the other

	requestTimeout = 30 * time.Second
)

var (
	workloads  = []string{"sign-open", "sign-bulk", "kms-churn"}
	phaseNames = []string{"light", "loaded"}
)

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	At     time.Duration // offset from the phase start
	Tenant int
	Msg    []byte
	Repeat bool // repeats a recent message of the same tenant
}

// openSchedule draws n = rate·dur arrivals as a Poisson process
// conditioned on its count (sorted uniform offsets), spread uniformly
// over tenants. With repeat > 0, all but m = n - round(repeat·n)
// requests re-send one of the tenant's last churnRecent distinct
// messages. A tenant's first request is fresh even where a repeat was
// due, and the next fresh one that could repeat does so in its place,
// so the share of repeats holds. The m fresh ones are spread
// evenly: the arrivals are cut into m runs of consecutive arrivals, and
// one drawn at random from each run is fresh. Drawn at random from the
// whole schedule, they came in clusters (three fresh messages within
// 40 ms, up to twice a phase), each of which queued on the nproc client
// connections; so the tail jumped with the seed's count of clusters.
// Everything derives from rng, so a seed fixes the schedule.
func openSchedule(rng *rand.Rand, tag string, rate float64, dur time.Duration, tenants int, repeat float64) []arrival {
	n := int(rate*dur.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = rng.Float64() * float64(dur)
	}
	sort.Float64s(offsets)
	fresh := make([]bool, n)
	m := n - int(repeat*float64(n)+0.5)
	for k := 0; k < m; k++ {
		lo, hi := k*n/m, (k+1)*n/m
		fresh[lo+rng.Intn(hi-lo)] = true
	}
	recent := make([][][]byte, tenants)
	owed := 0 // repeats due that found their tenant with no message yet
	out := make([]arrival, n)
	for i := range out {
		a := arrival{At: time.Duration(offsets[i]), Tenant: rng.Intn(tenants)}
		r := recent[a.Tenant]
		switch {
		case len(r) == 0 && !fresh[i]:
			owed++
		case len(r) > 0 && fresh[i] && owed > 0:
			owed--
			fresh[i] = false
		}
		if len(r) > 0 && !fresh[i] {
			a.Msg, a.Repeat = r[rng.Intn(len(r))], true
		} else {
			a.Msg = seededMessage(rng, tag, i)
			recent[a.Tenant] = append(recent[a.Tenant], a.Msg)
			if len(recent[a.Tenant]) > churnRecent {
				recent[a.Tenant] = recent[a.Tenant][1:]
			}
		}
		out[i] = a
	}
	return out
}

// seededMessage is a distinct message: a readable tag and index plus
// 16 seeded random bytes.
func seededMessage(rng *rand.Rand, tag string, i int) []byte {
	var salt [16]byte
	rng.Read(salt[:])
	return []byte(fmt.Sprintf("perfbench/%s/%d/%x", tag, i, salt))
}

// record is one client call: a Sign (one message) or a SignBatch.
type record struct {
	tenant  int
	msgs    [][]byte
	sigs    []*tsig.Signature // nil entries failed
	signers [][]int
	cached  []bool
	rid     string
	due     time.Time // open loop: when it was scheduled; closed loop: when it was sent
	sent    time.Time
	done    time.Time
	failed  int  // messages that failed or were refused
	batch   bool // a SignBatch call
}

func (r *record) latencyMS() float64 { return float64(r.done.Sub(r.due)) / 1e6 }

// phase is the timed traffic of one shape, light or loaded, gathered
// over its slices.
type phase struct {
	name    string
	records []*record
	busy    time.Duration // per slice, its start to its last completion, summed
	lateMax time.Duration
	mem     runtime.MemStats // deltas over the slices
	cpu     time.Duration
	metrics counters // deltas over the slices
}

// refreshRun is one RunRefresh call.
type refreshRun struct {
	start, end time.Time
	rounds     int
	err        error
}

func (r refreshRun) ms() float64 { return float64(r.end.Sub(r.start)) / 1e6 }

// runner holds one run's fleet, clients and everything recorded.
type runner struct {
	cfg      config
	tr       *tracer
	fleet    *fleet
	clients  []*client.Client // per tenant
	tenantID []string
	pks      []*tsig.PublicKey // per tenant, from the keygen
	ridSeq   atomic.Int64
	workers  int

	setupS        []float64
	phases        []*phase
	warmRefreshes []refreshRun // one untimed, untraced refresh of each kms-churn tenant
	refreshes     []refreshRun // kms-churn refreshes under signing traffic
	windows       [][]arrival  // kms-churn signing traffic during each refresh
	windowRecs    []*record    // what that traffic returned
	probes        struct {
		batches   []*record
		refreshes []refreshRun
		signs     []*record     // closed-loop Sign throughput probes
		signBusy  time.Duration // their wall time, summed
	}
	afterRefresh []*record // one fresh Sign of the refreshed tenant after each refresh
	probeDelta   counters  // metric deltas over the probes
	warmRecs     []*record // untimed warm-up calls: counted in attempted and checked by the gate
	failures     []string  // the first operation failures, for the report
	violations   []string  // correctness failures seen while running
	vioMu        sync.Mutex
}

// noteFailure keeps the first few operation failures for the report.
func (r *runner) noteFailure(err error) {
	r.vioMu.Lock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	r.vioMu.Unlock()
}

func (r *runner) violate(format string, args ...any) {
	r.vioMu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.vioMu.Unlock()
}

// tenants is how many tenant groups the workload keys.
func tenantsFor(workload string) int {
	if workload == "kms-churn" {
		return churnTenants
	}
	return 1
}

// setupsFor is how many times the workload sets its fleet up. A
// one-tenant set-up takes about 0.13 s, and single set-ups of one run
// ranged over 0.12-0.18 s, so the median is taken over eleven. On
// kms-churn one set-up mints four tenants on disk and takes about 3 s,
// and two are enough.
func setupsFor(workload string) int {
	if workload == "kms-churn" {
		return 2
	}
	return 11
}

// setup brings the fleet up cfg.setups times, keying it over HTTP each
// time, and keeps the last one. setup_s is the median of these.
func (r *runner) setup(ctx context.Context) error {
	tenants := tenantsFor(r.cfg.workload)
	for k := 0; k < r.cfg.setups; k++ {
		regRoot := ""
		if r.cfg.workload == "kms-churn" {
			regRoot = filepath.Join(r.cfg.buildDir, "tmp", fmt.Sprintf("kms-%d-%d", os.Getpid(), k))
		}
		start := time.Now()
		f, err := startFleet(fleetN, r.tr, regRoot)
		if err != nil {
			return fmt.Errorf("starting fleet: %w", err)
		}
		clients, ids, pks, err := r.keyFleet(ctx, f, tenants)
		if err != nil {
			f.close()
			return err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		if k < r.cfg.setups-1 {
			f.close()
			continue
		}
		r.fleet, r.clients, r.tenantID, r.pks = f, clients, ids, pks
	}
	return nil
}

// keyFleet runs one DKG over HTTP per tenant. A single-tenant workload
// keys the default group through the legacy routes.
func (r *runner) keyFleet(ctx context.Context, f *fleet, tenants int) ([]*client.Client, []string, []*tsig.PublicKey, error) {
	base := &client.Client{BaseURL: f.coordURL, Transport: r.clientHTTP()}
	clients := make([]*client.Client, tenants)
	ids := make([]string, tenants)
	pks := make([]*tsig.PublicKey, tenants)
	for i := range clients {
		clients[i], ids[i] = base, service.DefaultGroupID
		if tenants > 1 {
			ids[i] = fmt.Sprintf("tenant-%d", i)
			clients[i] = base.ForGroup(ids[i])
		}
		g, _, err := clients[i].RunDKG(ctx, fleetT, domain)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("keygen over HTTP for %s: %w", ids[i], err)
		}
		pks[i] = g.PK
	}
	return clients, ids, pks, nil
}

// clientHTTP is the client side's connection pool: at most one
// connection per worker to the coordinator.
func (r *runner) clientHTTP() client.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = r.workers
	tr.MaxIdleConnsPerHost = r.workers
	var rt http.RoundTripper = tr
	if r.cfg.wrapClient != nil {
		rt = r.cfg.wrapClient(rt)
	}
	return &http.Client{Transport: rt}
}

// nextRID returns the request id for the next client call. The traced
// pass alternates traced and untraced ids; always forces a traced id.
func (r *runner) nextRID(always bool) string {
	if r.tr == nil {
		return ""
	}
	seq := r.ridSeq.Add(1)
	if always || seq%2 == 0 {
		return tracedPrefix + strconv.FormatInt(seq, 10)
	}
	return untracedPrefix + strconv.FormatInt(seq, 10)
}

// untracedRID returns a request id the traced pass does not trace.
func (r *runner) untracedRID() string {
	if r.tr == nil {
		return ""
	}
	return untracedPrefix + strconv.FormatInt(r.ridSeq.Add(1), 10)
}

// call runs one client call and records its span in the traced pass.
func (r *runner) call(ctx context.Context, rid string, fn func(context.Context) error) (sent, done time.Time, err error) {
	ctx, cancel := context.WithTimeout(service.WithRequestID(ctx, rid), requestTimeout)
	defer cancel()
	sent = time.Now()
	err = fn(ctx)
	done = time.Now()
	if r.tr.wants(rid) {
		r.tr.add(span{Name: spanClient, RID: rid, Start: int64(sent.Sub(r.tr.epoch)), End: int64(done.Sub(r.tr.epoch))})
	}
	return sent, done, err
}

// opFailure tells a failed or refused operation (an HTTP error answer,
// a transport error, a timeout) from a wrong answer, which is a
// correctness violation and never just a failure.
func opFailure(err error) bool {
	var apiErr *client.APIError
	var urlErr *url.Error
	var netErr net.Error
	return errors.As(err, &apiErr) || errors.As(err, &urlErr) || errors.As(err, &netErr) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// sign sends one Sign and records it.
func (r *runner) sign(ctx context.Context, tenant int, msg []byte, due time.Time, always bool) *record {
	rec := &record{tenant: tenant, msgs: [][]byte{msg}, due: due, rid: r.nextRID(always)}
	var sig *tsig.Signature
	var resp *service.SignatureResponse
	var err error
	rec.sent, rec.done, err = r.call(ctx, rec.rid, func(ctx context.Context) error {
		sig, resp, err = r.clients[tenant].Sign(ctx, msg)
		return err
	})
	if due.IsZero() {
		rec.due = rec.sent
	}
	rec.sigs = []*tsig.Signature{sig}
	switch {
	case err == nil:
		rec.signers, rec.cached = [][]int{resp.Signers}, []bool{resp.Cached}
	case opFailure(err):
		rec.failed = 1
		r.noteFailure(err)
	default:
		r.violate("sign %q for %s: %v", msg, r.tenantID[tenant], err)
		rec.failed = 1
	}
	return rec
}

// signBatch sends one SignBatch and records it.
func (r *runner) signBatch(ctx context.Context, tenant int, msgs [][]byte, always bool) *record {
	rec := &record{tenant: tenant, msgs: msgs, rid: r.nextRID(always), batch: true}
	var sigs []*tsig.Signature
	var resp *service.SignBatchResponse
	var err error
	rec.sent, rec.done, err = r.call(ctx, rec.rid, func(ctx context.Context) error {
		sigs, resp, err = r.clients[tenant].SignBatch(ctx, msgs)
		return err
	})
	rec.due = rec.sent
	switch {
	case err == nil:
		rec.sigs = sigs
		rec.signers = make([][]int, len(msgs))
		rec.cached = make([]bool, len(msgs))
		for j, res := range resp.Results {
			rec.signers[j], rec.cached[j] = res.Signers, res.Cached
			if sigs[j] == nil {
				rec.failed++
			}
		}
	case opFailure(err):
		rec.sigs, rec.failed = make([]*tsig.Signature, len(msgs)), len(msgs)
		r.noteFailure(err)
	default:
		r.violate("sign-batch of %d for %s: %v", len(msgs), r.tenantID[tenant], err)
		rec.sigs, rec.failed = make([]*tsig.Signature, len(msgs)), len(msgs)
	}
	return rec
}

// refresh runs one proactive refresh of a tenant, under request id rid,
// and checks that its public key survived.
func (r *runner) refresh(ctx context.Context, tenant int, rid string) refreshRun {
	var run refreshRun
	var g *tsig.Group
	var resp *service.ProtoRunResponse
	var err error
	run.start, run.end, run.err = r.call(ctx, rid, func(ctx context.Context) error {
		g, resp, err = r.clients[tenant].RunRefresh(ctx)
		return err
	})
	switch {
	case run.err == nil:
		run.rounds = resp.Rounds
		if !g.PK.Equal(r.pks[tenant]) {
			r.violate("refresh of %s changed the public key", r.tenantID[tenant])
		}
		if len(resp.Crashed) > 0 {
			run.err = fmt.Errorf("refresh of %s: signers %v crashed", r.tenantID[tenant], resp.Crashed)
		}
	case opFailure(run.err):
		r.noteFailure(run.err)
	default:
		r.violate("refresh of %s: %v", r.tenantID[tenant], run.err)
	}
	return run
}

// openLoop sends the schedule from nproc workers, timing each request
// from its due time. The generator never blocks: a request waits in the
// queue for a free worker, and that wait is part of its latency.
func (r *runner) openLoop(ctx context.Context, sched []arrival) (recs []*record, start time.Time, lateMax time.Duration) {
	start = time.Now().Add(2 * time.Millisecond)
	recs = make([]*record, len(sched))
	queue := make(chan int, len(sched)) // sized to the schedule: the generator never waits
	var late atomic.Int64
	go func() {
		defer close(queue)
		for i, a := range sched {
			due := start.Add(a.At)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if l := int64(time.Since(due)); l > late.Load() {
				late.Store(l)
			}
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				a := sched[i]
				recs[i] = r.sign(ctx, a.Tenant, a.Msg, start.Add(a.At), false)
			}
		}()
	}
	wg.Wait()
	return recs, start, time.Duration(late.Load())
}

// closedLoop runs `clients` callers, each sending its next SignBatch of
// bulkBatch distinct messages as soon as the previous one returns, until
// dur has passed.
func (r *runner) closedLoop(ctx context.Context, tag string, clients int, dur time.Duration) (recs []*record, start time.Time) {
	start = time.Now()
	deadline := start.Add(dur)
	next := r.batchSource(tag)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rec := r.signBatch(ctx, 0, next(), false)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recs, func(i, j int) bool { return recs[i].sent.Before(recs[j].sent) })
	return recs, start
}

// batchSource hands out batches of distinct seeded messages; the k-th
// batch handed out is the same for a given seed and tag.
func (r *runner) batchSource(tag string) func() [][]byte {
	rng := r.scheduleRNG(tag)
	var mu sync.Mutex
	k := 0
	return func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		msgs := make([][]byte, bulkBatch)
		for j := range msgs {
			msgs[j] = seededMessage(rng, tag, k*bulkBatch+j)
		}
		k++
		return msgs
	}
}

func tagHash(tag string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint32(tag[i])) * 16777619
	}
	return h
}

// scheduleRNG is the seeded generator for one schedule of the run.
func (r *runner) scheduleRNG(tag string) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed ^ int64(tagHash(tag))<<16))
}

// timed runs one slice of a phase, adding its records and its memory,
// CPU and metric deltas to the phase. The slice body returns its records
// and when it started.
func (r *runner) timed(ctx context.Context, p *phase, body func() ([]*record, time.Time)) error {
	before, err := r.fleet.scrapeAll(ctx)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	recs, start := body()
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	after, err := r.fleet.scrapeAll(ctx)
	if err != nil {
		return err
	}
	p.cpu += cpu1 - cpu0
	p.mem.Mallocs += m1.Mallocs - m0.Mallocs
	p.mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
	p.mem.NumGC += m1.NumGC - m0.NumGC
	if p.metrics == nil {
		p.metrics = counters{}
	}
	for k, v := range after {
		p.metrics[k] += v - before[k]
	}
	end := start
	for _, rec := range recs {
		if rec.done.After(end) {
			end = rec.done
		}
	}
	p.busy += end.Sub(start)
	p.records = append(p.records, recs...)
	return nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sliceDur splits the measured seconds between the slices of the two
// phases.
func (r *runner) sliceDur() time.Duration {
	return time.Duration(r.cfg.seconds * float64(time.Second) / (2 * phaseSlices))
}

// runPhases warms both shapes up, then times them in alternating slices,
// light first, so that both sample the host over the whole run. Probes
// run before the warm-up and after every slice, so that they sample it
// too; an untimed batch goes first, so that the first probe's timed
// batches do not pay for the first batch after the keygen. slice runs
// slice k of phase i and returns its records and start.
func (r *runner) runPhases(ctx context.Context, warm func(i int), slice func(i, k int) ([]*record, time.Time, time.Duration)) error {
	r.warmBatch(ctx, "warm-batch-setup")
	if err := r.probe(ctx, 0); err != nil {
		return err
	}
	for i := range phaseNames {
		warm(i)
	}
	for _, name := range phaseNames {
		r.phases = append(r.phases, &phase{name: name})
	}
	for k := 0; k < phaseSlices; k++ {
		for i, p := range r.phases {
			if err := r.timed(ctx, p, func() ([]*record, time.Time) {
				recs, start, late := slice(i, k)
				p.lateMax = max(p.lateMax, late)
				return recs, start
			}); err != nil {
				return err
			}
			if err := r.probe(ctx, 1+k*len(r.phases)+i); err != nil {
				return err
			}
		}
	}
	return nil
}

// warm drives untimed traffic of the given shape for cfg.warmup.
func (r *runner) warm(ctx context.Context, sched []arrival) {
	recs, _, _ := r.openLoop(ctx, sched)
	r.countWarm(recs)
}

func (r *runner) countWarm(recs []*record) {
	r.warmRecs = append(r.warmRecs, recs...)
}

// phaseSchedule draws one phase's whole open-loop schedule, warm-up
// and slices in a row, so that each tenant's recent messages carry over
// from one part to the next. It returns the warm-up's arrivals and each
// slice's, each timed from the start of its own part.
func (r *runner) phaseSchedule(phase string, rate float64, tenants int, repeat float64) (warm []arrival, parts [][]arrival) {
	parts = r.schedule(phase, rate, tenants, repeat, r.cfg.warmup, phaseSlices, r.sliceDur())
	return parts[0], parts[1:]
}

// schedule draws one open-loop schedule of a first part of length
// first followed by n parts of length each, and returns the arrivals of
// every part, each timed from the start of its part.
func (r *runner) schedule(tag string, rate float64, tenants int, repeat float64, first time.Duration, n int, each time.Duration) [][]arrival {
	all := openSchedule(r.scheduleRNG(tag), tag, rate, first+time.Duration(n)*each, tenants, repeat)
	parts := [][]arrival{window(all, 0, first)}
	for k := 0; k < n; k++ {
		from := first + time.Duration(k)*each
		parts = append(parts, window(all, from, from+each))
	}
	return parts
}

// window returns the arrivals due in [from, to), timed from from.
func window(sched []arrival, from, to time.Duration) []arrival {
	var out []arrival
	for _, a := range sched {
		if a.At >= from && a.At < to {
			a.At -= from
			out = append(out, a)
		}
	}
	return out
}

// runSignOpen: one tenant, open-loop Poisson arrivals of distinct
// messages at the light and the loaded rate.
func (r *runner) runSignOpen(ctx context.Context) error {
	warm := make([][]arrival, len(phaseNames))
	parts := make([][][]arrival, len(phaseNames))
	for i, rate := range []float64{lightRate, loadedRate} {
		warm[i], parts[i] = r.phaseSchedule(phaseNames[i], rate, 1, 0)
	}
	return r.runPhases(ctx, func(i int) {
		r.warm(ctx, warm[i])
	}, func(i, k int) ([]*record, time.Time, time.Duration) {
		return r.openLoop(ctx, parts[i][k])
	})
}

// runSignBulk: one tenant, closed-loop SignBatch of bulkBatch distinct
// messages from one client (light) and from nproc clients (loaded).
func (r *runner) runSignBulk(ctx context.Context) error {
	clients := []int{1, r.workers}
	return r.runPhases(ctx, func(i int) {
		warm, _ := r.closedLoop(ctx, "warm-"+phaseNames[i], clients[i], r.cfg.warmup)
		r.countWarm(warm)
	}, func(i, k int) ([]*record, time.Time, time.Duration) {
		recs, start := r.closedLoop(ctx, fmt.Sprintf("%s-%d", phaseNames[i], k), clients[i], r.sliceDur())
		return recs, start, 0
	})
}

// runKMSChurn: churnTenants tenants on file-backed registries, open loop
// over the tenants at the light and the loaded rate, with churnRepeat of
// requests repeating a recent message. After every slice one proactive
// refresh runs, round robin over the tenants, while churnWindow of
// signing traffic at the light rate for the other tenants goes on; then
// one fresh Sign of the refreshed tenant follows. The refreshes run
// between the slices, not in them: a refresh stalls every signing request that needs a registry
// lock while a key file is rewritten, and on a slow disk the number of
// stalled requests straddled the tail's rank, so the tail swung between
// runs (56-119 ms over ten). Their signing traffic is reported in the
// traced pass. Before the warm-up every tenant is refreshed once: a
// tenant's first refresh after its keygen rewrites fewer key files than
// later ones and takes about half as long on a file-backed registry, so
// the timed refreshes are all of the steady kind.
func (r *runner) runKMSChurn(ctx context.Context) error {
	warm := make([][]arrival, len(phaseNames))
	parts := make([][][]arrival, len(phaseNames))
	for i, rate := range []float64{churnLightRate, churnLoadedRate} {
		warm[i], parts[i] = r.phaseSchedule(phaseNames[i], rate, churnTenants, churnRepeat)
	}
	r.windows = make([][]arrival, 2*phaseSlices)
	for k := range r.windows {
		r.windows[k] = r.refreshTraffic(k)
	}
	return r.runPhases(ctx, func(i int) {
		if i == 0 {
			for t := 0; t < churnTenants; t++ {
				r.warmRefreshes = append(r.warmRefreshes, r.refresh(ctx, t, r.untracedRID()))
			}
		}
		r.warm(ctx, warm[i])
	}, func(i, k int) ([]*record, time.Time, time.Duration) {
		return r.openLoop(ctx, parts[i][k])
	})
}

// refreshTraffic draws the signing traffic that goes on during the k-th
// kms-churn refresh: churnWindow at the light rate, over the tenants
// other than the one being refreshed (tenant k mod churnTenants). A Sign
// for the tenant being refreshed can get 502 quorum not reached (see
// README.md), so that tenant gets none.
func (r *runner) refreshTraffic(k int) []arrival {
	tag := fmt.Sprintf("refresh-%d", k)
	sched := openSchedule(r.scheduleRNG(tag), tag, churnLightRate, churnWindow, churnTenants-1, churnRepeat)
	for i := range sched {
		sched[i].Tenant = (k + 1 + sched[i].Tenant) % churnTenants
	}
	return sched
}

// refreshWindow runs the next kms-churn refresh while the k-th window of
// signing traffic goes on, then one fresh Sign of the refreshed tenant.
func (r *runner) refreshWindow(ctx context.Context, k int) {
	n := len(r.refreshes)
	done := make(chan refreshRun)
	go func() { done <- r.refresh(ctx, n%churnTenants, r.nextRID(true)) }()
	recs, _, _ := r.openLoop(ctx, r.windows[k])
	r.refreshes = append(r.refreshes, <-done)
	r.windowRecs = append(r.windowRecs, recs...)
	msg := seededMessage(r.scheduleRNG(fmt.Sprintf("after-refresh-%d", n)), "after-refresh", n)
	r.afterRefresh = append(r.afterRefresh, r.sign(ctx, n%churnTenants, msg, time.Time{}, true))
}

// probe runs, between and around the timed slices, the work the
// workload's own traffic does not measure, so that every workload
// reports every end-to-end metric. First cfg.batchProbes timed SignBatch
// calls on the quiet fleet; then, on the open-loop workloads, a
// closed-loop Sign throughput probe (see signProbe); then the refreshes:
// on kms-churn (from slot 1 on) the next refresh under signing traffic,
// elsewhere cfg.refreshProbes refreshes on the quiet fleet, each
// followed by one fresh Sign. Last comes one untimed SignBatch of
// warmBatch messages, because the first batch after a refresh ran up to
// half again as long as the next ones; so no timed batch, probe or
// slice, is the first after a refresh. Spreading the probes over the run
// samples the host at several moments.
func (r *runner) probe(ctx context.Context, slot int) error {
	before, err := r.fleet.scrapeAll(ctx)
	if err != nil {
		return err
	}
	next := r.batchSource(fmt.Sprintf("probe-%d", slot))
	for k := 0; k < r.cfg.batchProbes; k++ {
		r.probes.batches = append(r.probes.batches, r.signBatch(ctx, 0, next(), true))
	}
	if r.cfg.workload != "sign-bulk" {
		r.signProbe(ctx, slot)
	}
	switch {
	case r.cfg.workload != "kms-churn":
		rng := r.scheduleRNG(fmt.Sprintf("probe-refresh-%d", slot))
		for k := 0; k < r.cfg.refreshProbes; k++ {
			r.probes.refreshes = append(r.probes.refreshes, r.refresh(ctx, 0, r.nextRID(true)))
			r.afterRefresh = append(r.afterRefresh, r.sign(ctx, 0, seededMessage(rng, "after-refresh", k), time.Time{}, true))
		}
	case slot > 0:
		r.refreshWindow(ctx, slot-1)
	}
	r.warmBatch(ctx, fmt.Sprintf("warm-batch-%d", slot))
	after, err := r.fleet.scrapeAll(ctx)
	if err != nil {
		return err
	}
	if r.probeDelta == nil {
		r.probeDelta = counters{}
	}
	for k, v := range after {
		r.probeDelta[k] += v - before[k]
	}
	return nil
}

// warmBatch sends one untimed SignBatch of warmBatch messages.
func (r *runner) warmBatch(ctx context.Context, tag string) {
	r.countWarm([]*record{r.signBatch(ctx, 0, r.batchSource(tag)()[:warmBatch], false)})
}

// signProbe measures the signing throughput of an open-loop workload,
// whose own delivered rate is its offered rate: nproc clients each send
// cfg.signProbeRounds Signs of distinct messages back to back, round
// robin over the tenants, and the probe's wall time is added up for
// sigs_per_s.
func (r *runner) signProbe(ctx context.Context, slot int) {
	tag := fmt.Sprintf("probe-sign-%d", slot)
	rng := r.scheduleRNG(tag)
	recs := make([]*record, r.workers*r.cfg.signProbeRounds)
	msgs := make([][]byte, len(recs))
	for i := range msgs {
		msgs[i] = seededMessage(rng, tag, i)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < r.cfg.signProbeRounds; k++ {
				i := k*r.workers + c
				recs[i] = r.sign(ctx, i%len(r.clients), msgs[i], time.Time{}, false)
			}
		}()
	}
	wg.Wait()
	r.probes.signBusy += time.Since(start)
	r.probes.signs = append(r.probes.signs, recs...)
}
