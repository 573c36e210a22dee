package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/ecocloud-go/mondrian/internal/report"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// digestSeed is the benchmark seed whose paper-suite digests are recorded:
// mondrian-bench's default suite seed.
const digestSeed = 42

// suiteDigests maps "System/Operator" to the SHA-256 of that cell's
// simulated Result JSON at digestSeed. Regenerate with -record-digests
// only when a documented model change moves the simulated numbers.
//
//go:embed testdata/suite_digests.json
var suiteDigestsJSON []byte

func cellKey(r request) string { return r.System.String() + "/" + r.Op.String() }

func resultDigest(r *simulate.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// suiteSetup is what a mondrian-bench user pays before the first cell:
// parameter construction and validation, and suite construction.
func suiteSetup(seed int64) (*simulate.Suite, time.Duration, error) {
	t0 := time.Now()
	p := suiteParams(seed)
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	su := simulate.NewSuite(p)
	return su, time.Since(t0), nil
}

// suitePass runs the default mondrian-bench artifact: every cell through
// Suite.Get in the order the artifact first touches it (so each cell is
// timed), then Table 5 and Figs. 6–9 from the suite's cache, rendered as
// mondrian-bench renders them.
func suitePass(su *simulate.Suite, seed int64, st *runStats) (map[string]*simulate.Result, error) {
	var want map[string]string
	if seed == digestSeed {
		if err := json.Unmarshal(suiteDigestsJSON, &want); err != nil {
			return nil, fmt.Errorf("reference digests: %w", err)
		}
	}
	results := map[string]*simulate.Result{}
	start := time.Now()
	for _, c := range suiteCells(seed) {
		st.Attempted++
		t0 := time.Now()
		r, err := su.Get(c.System, c.Op)
		lat := msSince(t0)
		switch {
		case err != nil:
			st.fail(c, err.Error())
			continue
		case !r.Verified:
			st.fail(c, "unverified result")
			continue
		}
		st.Lat = append(st.Lat, lat)
		results[cellKey(c)] = r
		if want == nil {
			continue
		}
		d, err := resultDigest(r)
		if err != nil {
			return nil, err
		}
		if d != want[cellKey(c)] {
			st.fail(c, "result digest differs from the recorded reference")
		} else {
			st.DigestsMatched++
		}
	}
	if err := renderArtifact(su, io.Discard); err != nil {
		st.Errors = append(st.Errors, err.Error())
	}
	st.WindowNs = time.Since(start).Nanoseconds()
	st.Completed = len(results)
	return results, nil
}

func renderArtifact(su *simulate.Suite, w io.Writer) error {
	rows, err := su.Table5()
	if err != nil {
		return err
	}
	report.WriteTable5(w, rows)
	figs := []struct {
		title string
		fn    func() ([]simulate.FigSeries, error)
	}{
		{"Figure 6: probe speedup vs CPU (log scale)", su.Fig6},
		{"Figure 7: overall speedup vs CPU (log scale)", su.Fig7},
	}
	for _, f := range figs {
		s, err := f.fn()
		if err != nil {
			return err
		}
		report.WriteFig(w, f.title, s)
	}
	entries, err := su.Fig8()
	if err != nil {
		return err
	}
	report.WriteFig8(w, entries)
	s, err := su.Fig9()
	if err != nil {
		return err
	}
	report.WriteFig(w, "Figure 9: efficiency improvement vs CPU (log scale)", s)
	return nil
}

// recordDigests runs the suite at digestSeed and writes the reference
// digests file.
func recordDigests(path string) error {
	su, _, err := suiteSetup(digestSeed)
	if err != nil {
		return err
	}
	out := map[string]string{}
	for _, c := range suiteCells(digestSeed) {
		r, err := su.Get(c.System, c.Op)
		if err != nil {
			return err
		}
		if out[cellKey(c)], err = resultDigest(r); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
