package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/service"
	"repro/service/registry"
)

// fleet is a live in-process deployment: n keyless signer daemons and
// one keyless coordinator, each on its own 127.0.0.1 listener, wired as
// tsigd processes would be. With a registry root every daemon gets its
// own file-backed registry (the tsigd -keystore-dir shape).
type fleet struct {
	coordURL  string
	daemonURL []string // coordinator first, then signers 1..n
	servers   []*http.Server
	regRoot   string
	scrape    *http.Client
}

// startFleet brings up the fleet. tr, when non-nil, wraps every
// daemon's handler and the coordinator's outbound transport in spans.
func startFleet(n int, tr *tracer, regRoot string) (f *fleet, err error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f = &fleet{regRoot: regRoot, scrape: &http.Client{Transport: &http.Transport{}}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	openReg := func(name string) (*registry.Registry, error) {
		if regRoot == "" {
			return nil, nil
		}
		return registry.Open(registry.Config{Dir: filepath.Join(regRoot, name)})
	}
	signerURLs := make([]string, n)
	hosts := make(map[string]int, n)
	for i := 1; i <= n; i++ {
		reg, err := openReg(fmt.Sprintf("signer-%d", i))
		if err != nil {
			return nil, err
		}
		sg, err := service.NewDaemonSigner(service.DaemonConfig{Index: i, Logger: quiet, Registry: reg})
		if err != nil {
			return nil, err
		}
		var h http.Handler = sg
		if tr != nil {
			h = tracedHandler{next: sg, tr: tr, signer: i}
		}
		if signerURLs[i-1], err = f.serve(h); err != nil {
			return nil, err
		}
		hosts[strings.TrimPrefix(signerURLs[i-1], "http://")] = i
	}
	reg, err := openReg("coordinator")
	if err != nil {
		return nil, err
	}
	cfg := service.CoordinatorConfig{Logger: quiet, Registry: reg}
	if tr != nil {
		cfg.HTTPClient = &http.Client{Transport: &tracedTransport{next: http.DefaultTransport, tr: tr, signers: hosts}}
	}
	coord, err := service.NewKeylessCoordinator(signerURLs, cfg)
	if err != nil {
		return nil, err
	}
	var h http.Handler = coord
	if tr != nil {
		h = tracedHandler{next: coord, tr: tr}
	}
	if f.coordURL, err = f.serve(h); err != nil {
		return nil, err
	}
	f.daemonURL = append([]string{f.coordURL}, signerURLs...)
	return f, nil
}

// serve starts handler on an ephemeral loopback port and returns its
// base URL.
func (f *fleet) serve(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: handler}
	f.servers = append(f.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// close shuts every daemon down, waiting for in-flight handlers, and
// removes the fleet's registries.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range f.servers {
		_ = srv.Shutdown(ctx)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	f.scrape.CloseIdleConnections()
	if f.regRoot != "" {
		_ = os.RemoveAll(f.regRoot)
	}
}

// counters is one scrape of every daemon's /metrics: each family's
// samples summed over labels and over daemons.
type counters map[string]float64

func (f *fleet) scrapeAll(ctx context.Context) (counters, error) {
	out := counters{}
	for _, u := range f.daemonURL {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := f.scrape.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		err = parseExposition(resp.Body, out)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
	}
	return out, nil
}

// parseExposition adds every sample of a Prometheus text exposition
// into out, keyed by metric name without labels.
func parseExposition(r io.Reader, out counters) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("sample %q: %w", line, err)
		}
		out[name] += v
	}
	return sc.Err()
}
