package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	tsig "repro"
	"repro/service"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyConfig shrinks every part of a run to a few requests.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		root: "..", buildDir: t.TempDir(),
		setups: 1, warmup: 200 * time.Millisecond,
		batchProbes: 1, signProbeRounds: 1, refreshProbes: 1, ladderReps: 2, localReps: 1,
	}
}

// TestSmokeWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and returned in the result.
func TestSmokeWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var rep bytes.Buffer
			res, err := run(context.Background(), tinyConfig(t, w, trace), &rep)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, trace, err, rep.String())
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: result %+v", w, trace, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(rep.String(), "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: report does not print %s", w, trace, m.Name)
				}
			}
		}
	}
}

// TestScheduleReproducible checks that a seed fixes the messages and
// the arrival schedule of a phase, warm-up and slices, and that another
// seed changes them.
func TestScheduleReproducible(t *testing.T) {
	gen := func(seed int64) ([][]arrival, [][]byte) {
		r := &runner{cfg: config{seed: seed, seconds: 8, warmup: time.Second}}
		warm, parts := r.phaseSchedule("loaded", churnLightRate, churnTenants, churnRepeat)
		next := r.batchSource("loaded")
		return append([][]arrival{warm}, parts...), append(next(), next()...)
	}
	s1, b1 := gen(42)
	s2, b2 := gen(42)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("the same seed gave different schedules")
	}
	s3, b3 := gen(43)
	if reflect.DeepEqual(s1, s3) || reflect.DeepEqual(b1, b3) {
		t.Fatal("different seeds gave the same schedule")
	}
	repeats, n := 0, 0
	for _, part := range s1 {
		for i, a := range part {
			if i > 0 && a.At < part[i-1].At {
				t.Fatalf("arrival %d is due before arrival %d", i, i-1)
			}
			if a.Repeat {
				repeats++
			}
			n++
		}
	}
	if share := float64(repeats) / float64(n); share < churnRepeat-0.05 || share > churnRepeat {
		t.Errorf("repeat share %.2f, want about %.2f", share, churnRepeat)
	}
}

// TestRefreshTrafficSkipsRefreshedTenant checks that the signing traffic
// of each kms-churn refresh goes to every tenant but the refreshed one.
func TestRefreshTrafficSkipsRefreshedTenant(t *testing.T) {
	r := &runner{cfg: config{seed: 42}}
	for k := 0; k < 2*phaseSlices; k++ {
		seen := map[int]bool{}
		for _, a := range r.refreshTraffic(k) {
			seen[a.Tenant] = true
		}
		for tn := 0; tn < churnTenants; tn++ {
			if want := tn != k%churnTenants; seen[tn] != want {
				t.Errorf("refresh %d: tenant %d has traffic %v, want %v", k, tn, seen[tn], want)
			}
		}
	}
}

// flipOnce flips one bit of one byte of the signature in the first
// Sign response it carries. It takes the first flip, from the last byte
// and the lowest bit on, after which the signature still decodes, so the
// client accepts it and only the gate's verification can catch it.
type flipOnce struct {
	next    http.RoundTripper
	mu      sync.Mutex
	flipped bool
}

func (f *flipOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/sign") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.flipped {
		return resp, nil
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var body service.SignatureResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, err
	}
	sig := body.Signature
flip:
	for i := len(sig) - 1; i >= 0; i-- {
		for bit := 0; bit < 8; bit++ {
			sig[i] ^= 1 << bit
			if _, err := tsig.UnmarshalSignature(sig); err == nil {
				f.flipped = true
				break flip
			}
			sig[i] ^= 1 << bit
		}
	}
	if raw, err = json.Marshal(body); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestGateTripsOnFlippedSignature checks that one corrupted signature
// fails the run in the gate's verification, instead of being counted as
// a failed operation.
func TestGateTripsOnFlippedSignature(t *testing.T) {
	cfg := tinyConfig(t, "sign-open", false)
	var flip *flipOnce
	cfg.wrapClient = func(rt http.RoundTripper) http.RoundTripper {
		flip = &flipOnce{next: rt}
		return flip
	}
	var rep bytes.Buffer
	res, err := run(context.Background(), cfg, &rep)
	if flip == nil || !flip.flipped {
		t.Fatal("no signature was corrupted")
	}
	if err == nil || res != nil || !strings.Contains(err.Error(), "correctness gate failed") || !strings.Contains(err.Error(), "does not verify") {
		t.Fatalf("run with a corrupted signature returned %+v, %v; want the gate's verification to fail\n%s", res, err, rep.String())
	}
}
