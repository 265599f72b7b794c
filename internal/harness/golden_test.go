package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/pio"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

// TestVirtualCostGolden pins the absolute values of the virtual cost model:
// the exact single-rank write and read phase durations of pMEMCPY under each
// configuration that selects a distinct charge path (serial, sharded and
// striped copies, the staged DRAM pass, MAP_SYNC, the hierarchy layout and
// the async pipeline). Single-rank virtual time is exact, so any change to a
// charge formula, however small, shows here. Regenerate with -update only
// for an intended cost-model change.
func TestVirtualCostGolden(t *testing.T) {
	cases := []struct {
		name string
		lib  pio.Library
		set  func(*Params)
	}{
		{"bp4", core.Library{}, nil},
		{"raw", core.Library{Codec: "raw"}, nil},
		{"parallelism4", core.Library{}, func(p *Params) { p.Parallelism = 4 }},
		{"readparallelism4", core.Library{}, func(p *Params) { p.ReadParallelism = 4 }},
		{"pools4", core.Library{}, func(p *Params) { p.Pools = 4 }},
		{"staged", core.Library{Staged: true}, nil},
		{"mapsync", core.Library{MapSync: true}, nil},
		{"hierarchy", core.Library{Layout: core.LayoutHierarchy}, nil},
		{"async", core.Library{}, func(p *Params) { p.Async = true }},
	}
	var b strings.Builder
	for _, c := range cases {
		p := smallParams(1)
		if c.set != nil {
			c.set(&p)
		}
		res, err := Run(c.lib, p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s write=%d read=%d\n", c.name, int64(res.Write), int64(res.Read))
	}
	got := b.String()
	path := filepath.Join("testdata", "virtual_cost.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("virtual cost drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
