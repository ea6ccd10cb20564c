package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies the host and the build a result came from, so
// that figures from another machine or another tree are recognisable.
type fingerprint struct {
	CPU         string `json:"cpu"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Revision    string `json:"vcs_revision"`
	Modified    string `json:"vcs_modified"`
	SourceHash  string `json:"source_sha256"`
	Substrate   string `json:"substrate"`
	GOOS_GOARCH string `json:"goos_goarch"`
}

func hostFingerprint(root string) fingerprint {
	fp := fingerprint{
		CPU:         cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Revision:    "unavailable",
		Modified:    "unavailable",
		SourceHash:  sourceHash(root),
		Substrate:   substrate(root),
		GOOS_GOARCH: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Revision = s.Value
			case "vcs.modified":
				fp.Modified = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and go.mod file of the tree, so a
// build from a checkout without version control still names its source.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// bigFp matches a base-field element declared as a math/big integer.
var bigFp = regexp.MustCompile(`type fp struct \{\s*\w+ big\.Int\s*\}`)

// substrate labels the field arithmetic under internal/bn254 from the
// declaration of its base-field element.
func substrate(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "internal", "bn254", "fp.go"))
	switch {
	case err != nil:
		return "unknown"
	case bigFp.Match(data):
		return "math/big"
	}
	return "not math/big"
}
