package simulate

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
)

// TestManifestGolden pins the deterministic manifest projection — every
// metric name and value, the per-phase timeline and the span tree — of a
// few representative runs to committed fixtures. The determinism suites
// only compare one parallelism level against another, so a series that
// is renamed, dropped or revalued on every level at once passes them;
// this test does not. Regenerate with -update-golden only for an
// intentional metric-schema change.
func TestManifestGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func(p Params) (*obs.Manifest, error)
	}{
		{"cpu_scan", opManifest(CPU, OpScan)},
		{"nmp_join", opManifest(NMP, OpJoin)},
		{"mondrian_group-by", opManifest(Mondrian, OpGroupBy)},
		{"mondrian_plan_join-agg-sort", planManifest(Mondrian, PlanJoinAggSort)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p := goldenParams()
			p.Obs = obs.NewRegistry()
			m, err := c.build(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(m.Deterministic(), "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "manifest", c.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("manifest diverged from committed fixture %s (%d vs %d bytes)", path, len(got), len(want))
			}
		})
	}
}

func opManifest(s System, op Operator) func(Params) (*obs.Manifest, error) {
	return func(p Params) (*obs.Manifest, error) {
		r, err := Run(s, op, p)
		if err != nil {
			return nil, err
		}
		return BuildManifest(r, p, true), nil
	}
}

func planManifest(s System, pl Plan) func(Params) (*obs.Manifest, error) {
	return func(p Params) (*obs.Manifest, error) {
		r, err := RunPlan(s, pl, p)
		if err != nil {
			return nil, err
		}
		return BuildPlanManifest(r, p, true), nil
	}
}
